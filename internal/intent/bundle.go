package intent

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Kind enumerates the value types a Bundle entry can carry. The set mirrors
// the extra types the `am` shell utility accepts (--es, --ei, --ef, --ez,
// --el, --eu).
type Kind int

const (
	KindString Kind = iota + 1
	KindInt
	KindLong
	KindFloat
	KindBool
	KindURI
	KindNull // an extra key explicitly mapped to null — a classic NPE trigger
)

// String returns the am-style flag mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindLong:
		return "long"
	case KindFloat:
		return "float"
	case KindBool:
		return "boolean"
	case KindURI:
		return "uri"
	case KindNull:
		return "null"
	default:
		return "unknown"
	}
}

// Value is a typed bundle value.
type Value struct {
	Kind Kind
	Str  string
	I64  int64
	F64  float64
	B    bool
	URI  URI
}

// String renders the value the way Intent.toString would.
func (v Value) String() string {
	switch v.Kind {
	case KindString:
		return v.Str
	case KindInt, KindLong:
		return strconv.FormatInt(v.I64, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F64, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindURI:
		return v.URI.String()
	case KindNull:
		return "null"
	default:
		return "?"
	}
}

// Convenience constructors.
func StringValue(s string) Value { return Value{Kind: KindString, Str: s} }
func IntValue(i int64) Value     { return Value{Kind: KindInt, I64: i} }
func FloatValue(f float64) Value { return Value{Kind: KindFloat, F64: f} }
func BoolValue(b bool) Value     { return Value{Kind: KindBool, B: b} }
func NullValue() Value           { return Value{Kind: KindNull} }

// Bundle is an ordered set of typed key/value extras. Android's Bundle is a
// string-keyed map; we keep insertion order so flattened intents are
// reproducible. Fuzzed intents carry at most a handful of extras, so the
// entries live in one slice and lookups scan it: a map would hash every key
// and, because Value is larger than a map slot holds inline, allocate per
// Put.
type Bundle struct {
	entries []bundleEntry
}

type bundleEntry struct {
	key   string
	value Value
}

// NewBundle returns an empty bundle.
func NewBundle() *Bundle {
	return &Bundle{}
}

// index returns the position of key, or -1.
func (b *Bundle) index(key string) int {
	for i := range b.entries {
		if b.entries[i].key == key {
			return i
		}
	}
	return -1
}

// Put inserts or replaces the value for key; a replaced key keeps its
// position.
func (b *Bundle) Put(key string, v Value) {
	if i := b.index(key); i >= 0 {
		b.entries[i].value = v
		return
	}
	b.entries = append(b.entries, bundleEntry{key: key, value: v})
}

// Get returns the value for key; ok is false when absent.
func (b *Bundle) Get(key string) (Value, bool) {
	if b == nil {
		return Value{}, false
	}
	if i := b.index(key); i >= 0 {
		return b.entries[i].value, true
	}
	return Value{}, false
}

// Len returns the number of extras.
func (b *Bundle) Len() int {
	if b == nil {
		return 0
	}
	return len(b.entries)
}

// Keys returns the keys in insertion order (a copy).
func (b *Bundle) Keys() []string {
	if b == nil {
		return nil
	}
	out := make([]string, len(b.entries))
	for i := range b.entries {
		out[i] = b.entries[i].key
	}
	return out
}

// At returns the i-th extra in insertion order (0 <= i < Len); iterating
// with At copies nothing, unlike Keys.
func (b *Bundle) At(i int) (key string, v Value) {
	e := &b.entries[i]
	return e.key, e.value
}

// HasNull reports whether any extra carries an explicit null value.
func (b *Bundle) HasNull() bool {
	if b == nil {
		return false
	}
	for i := range b.entries {
		if b.entries[i].value.Kind == KindNull {
			return true
		}
	}
	return false
}

// Reset empties the bundle in place, retaining the entry storage so a
// pooled bundle stops allocating once warmed up.
func (b *Bundle) Reset() {
	if b == nil {
		return
	}
	b.entries = b.entries[:0]
}

// Clone returns a deep copy of the bundle.
func (b *Bundle) Clone() *Bundle {
	if b == nil {
		return nil
	}
	return &Bundle{entries: slices.Clone(b.entries)}
}

// String renders the bundle content deterministically: insertion order for
// human display, with kind annotations.
func (b *Bundle) String() string {
	if b.Len() == 0 {
		return "Bundle[]"
	}
	var sb strings.Builder
	sb.WriteString("Bundle[")
	for i, e := range b.entries {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%s(%s)", e.key, e.value.String(), e.value.Kind)
	}
	sb.WriteByte(']')
	return sb.String()
}
