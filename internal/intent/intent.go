package intent

import (
	"fmt"
	"strconv"
	"strings"
)

// ComponentName identifies a concrete component (Activity or Service) the
// way Android does: package plus class. QGJ fuzzes *explicit* intents, so
// nearly every generated intent carries a ComponentName.
type ComponentName struct {
	Package string
	Class   string
}

// IsZero reports whether the component name is unset (implicit intent).
func (c ComponentName) IsZero() bool { return c.Package == "" && c.Class == "" }

// FlattenToString renders pkg/class shorthand ("com.foo/.Bar" when the class
// lives under the package namespace), the format `am start -n` accepts.
func (c ComponentName) FlattenToString() string {
	if c.IsZero() {
		return ""
	}
	return c.Package + "/" + c.shortClass()
}

// shortClass is the class as the flat form spells it: relative to the
// package when the package prefixes it.
func (c ComponentName) shortClass() string {
	cls := c.Class
	if len(cls) > len(c.Package) && cls[len(c.Package)] == '.' && cls[:len(c.Package)] == c.Package {
		cls = cls[len(c.Package):]
	}
	return cls
}

// AppendFlat appends FlattenToString's rendering of c to dst.
func (c ComponentName) AppendFlat(dst []byte) []byte {
	if c.IsZero() {
		return dst
	}
	dst = append(dst, c.Package...)
	dst = append(dst, '/')
	return append(dst, c.shortClass()...)
}

// UnflattenComponent parses the pkg/class shorthand back into a
// ComponentName. ok is false for malformed input.
func UnflattenComponent(s string) (ComponentName, bool) {
	pkg, cls, found := strings.Cut(s, "/")
	if !found || pkg == "" || cls == "" {
		return ComponentName{}, false
	}
	if strings.HasPrefix(cls, ".") {
		cls = pkg + cls
	}
	return ComponentName{Package: pkg, Class: cls}, true
}

// String implements fmt.Stringer using the ComponentInfo format.
func (c ComponentName) String() string {
	if c.IsZero() {
		return "ComponentInfo{}"
	}
	return fmt.Sprintf("ComponentInfo{%s/%s}", c.Package, c.Class)
}

// Intent is the Android intent data structure: an abstract description of an
// operation to be performed (Section II-A).
type Intent struct {
	Action     string
	Data       URI
	Categories []string
	Type       string // explicit MIME type
	Component  ComponentName
	Extras     *Bundle
	Flags      uint32

	// SenderUID is the UID of the process that sends the intent; the
	// dispatcher uses it for permission checks. It is transport metadata,
	// not part of the serialized intent.
	SenderUID int
}

// FlagActivityNewTask is Intent.FLAG_ACTIVITY_NEW_TASK.
const FlagActivityNewTask uint32 = 0x10000000

// IsExplicit reports whether the intent names a target component.
func (in *Intent) IsExplicit() bool { return !in.Component.IsZero() }

// HasCategory reports whether the intent carries the category.
func (in *Intent) HasCategory(cat string) bool {
	for _, c := range in.Categories {
		if c == cat {
			return true
		}
	}
	return false
}

// AddCategory appends a category if not already present.
func (in *Intent) AddCategory(cat string) {
	if !in.HasCategory(cat) {
		in.Categories = append(in.Categories, cat)
	}
}

// PutExtra adds a typed extra, allocating the bundle lazily.
func (in *Intent) PutExtra(key string, v Value) {
	if in.Extras == nil {
		in.Extras = NewBundle()
	}
	in.Extras.Put(key, v)
}

// Clone returns a deep copy of the intent.
func (in *Intent) Clone() *Intent {
	cp := *in
	cp.Categories = append([]string(nil), in.Categories...)
	cp.Extras = in.Extras.Clone()
	return &cp
}

// Reset clears the intent for reuse, retaining the Categories and Extras
// storage so pooled intents stop allocating after warm-up. The campaign
// generator owns the reset/reuse contract; callbacks that retain an intent
// past their scope must Clone it.
func (in *Intent) Reset() {
	in.Action = ""
	in.Data = URI{}
	in.Categories = in.Categories[:0]
	in.Type = ""
	in.Component = ComponentName{}
	in.Extras.Reset()
	in.Flags = 0
	in.SenderUID = 0
}

// String renders the intent in the logcat style the paper quotes, e.g.
// {act=android.intent.action.DIAL dat=tel:123 cmp=com.foo/.Bar (has extras)}.
func (in *Intent) String() string {
	var buf [128]byte
	return string(in.AppendText(buf[:0]))
}

// AppendText appends String's rendering of the intent to buf.
func (in *Intent) AppendText(buf []byte) []byte {
	buf = append(buf, '{')
	mark := len(buf)
	if in.Action != "" {
		buf = append(buf, "act="...)
		buf = append(buf, in.Action...)
	}
	if !in.Data.IsZero() {
		if len(buf) > mark {
			buf = append(buf, ' ')
		}
		buf = append(buf, "dat="...)
		buf = appendURIText(buf, &in.Data)
	}
	for _, c := range in.Categories {
		if len(buf) > mark {
			buf = append(buf, ' ')
		}
		buf = append(buf, "cat="...)
		buf = append(buf, c...)
	}
	if in.Type != "" {
		if len(buf) > mark {
			buf = append(buf, ' ')
		}
		buf = append(buf, "typ="...)
		buf = append(buf, in.Type...)
	}
	if !in.Component.IsZero() {
		if len(buf) > mark {
			buf = append(buf, ' ')
		}
		buf = append(buf, "cmp="...)
		buf = in.Component.AppendFlat(buf)
	}
	if in.Flags != 0 {
		if len(buf) > mark {
			buf = append(buf, ' ')
		}
		buf = append(buf, "flg=0x"...)
		buf = strconv.AppendUint(buf, uint64(in.Flags), 16)
	}
	if in.Extras.Len() > 0 {
		if len(buf) > mark {
			buf = append(buf, ' ')
		}
		buf = append(buf, "(has extras)"...)
	}
	return append(buf, '}')
}
