// Package core implements QGJ itself — the paper's primary contribution:
// the generational intent fuzzer (QGJ-Master) with its four Fuzz Intent
// Campaigns and the shared Fuzzer library that injects intents on the
// target device.
package core

import (
	"fmt"
	"sync"

	"repro/internal/intent"
	"repro/internal/rng"
)

// Campaign identifies one of the four Fuzz Intent Campaigns of Table I.
type Campaign int

const (
	// CampaignA "Semi-valid Action and Data": valid action and valid data
	// URI generated separately; the combination may be invalid.
	// |Action| x |TypeOf(Data)| intents per component (~1M overall).
	CampaignA Campaign = iota + 1
	// CampaignB "Blank Action or Data": either action OR data is set, all
	// other fields blank. |Action| + |TypeOf(Data)| per component (~100K).
	CampaignB
	// CampaignC "Random Action or Data": one side valid, the other random.
	// (|Action| + |TypeOf(Data)|) x variants per component (~300K).
	CampaignC
	// CampaignD "Random Extras": a valid {Action, Data} pair plus 1-5 Extra
	// fields with random values. |Action| x variants per component (~250K).
	CampaignD
	// CampaignF "Fault Injection" extends the paper's severity scale below
	// the app layer: a stream of well-formed intents keeps each component
	// busy while internal/faultinject perturbs the OS underneath it (binder
	// failures, sensor stalls, killed services, storage errors) on a seeded
	// schedule. |Action| per component — the workload is deliberately small
	// and valid-leaning so observed failures are attributable to the
	// injected faults, not the intents.
	CampaignF
)

// AllCampaigns lists the campaigns in execution order ("All 4 campaigns are
// executed one after another", Section III-D).
var AllCampaigns = []Campaign{CampaignA, CampaignB, CampaignC, CampaignD}

// Name returns the Table I row label.
func (c Campaign) Name() string {
	switch c {
	case CampaignA:
		return "A: Semi-valid Action and Data"
	case CampaignB:
		return "B: Blank Action or Data"
	case CampaignC:
		return "C: Random Action or Data"
	case CampaignD:
		return "D: Random Extras"
	case CampaignF:
		return "F: Fault Injection"
	default:
		return "unknown"
	}
}

// Letter returns the single-letter campaign id.
func (c Campaign) Letter() string {
	switch c {
	case CampaignA:
		return "A"
	case CampaignB:
		return "B"
	case CampaignC:
		return "C"
	case CampaignD:
		return "D"
	case CampaignF:
		return "F"
	default:
		return "?"
	}
}

// ParseCampaign converts a letter ("A".."D", case-insensitive) to a
// Campaign.
func ParseCampaign(s string) (Campaign, error) {
	switch s {
	case "A", "a":
		return CampaignA, nil
	case "B", "b":
		return CampaignB, nil
	case "C", "c":
		return CampaignC, nil
	case "D", "d":
		return CampaignD, nil
	case "F", "f":
		return CampaignF, nil
	default:
		return 0, fmt.Errorf("core: unknown campaign %q", s)
	}
}

// GeneratorConfig scales and seeds intent generation. The zero value means
// "full paper scale"; tests shrink ActionStride/SchemeStride to run fast.
type GeneratorConfig struct {
	// Seed drives random actions, data, and extras.
	Seed uint64
	// ActionStride takes every k-th action from the catalog (1 or 0 = all).
	ActionStride int
	// SchemeStride takes every k-th data scheme (1 or 0 = all).
	SchemeStride int
	// RandomVariants is how many random variants FIC C generates per
	// catalog entry (default 3; chosen so the per-campaign volume matches
	// Table I's ~300K).
	RandomVariants int
	// ExtrasVariants is how many extras sets FIC D generates per action
	// (default 3; ~250K overall in Table I).
	ExtrasVariants int
}

func (cfg GeneratorConfig) normalized() GeneratorConfig {
	if cfg.ActionStride < 1 {
		cfg.ActionStride = 1
	}
	if cfg.SchemeStride < 1 {
		cfg.SchemeStride = 1
	}
	if cfg.RandomVariants < 1 {
		cfg.RandomVariants = 3
	}
	if cfg.ExtrasVariants < 1 {
		cfg.ExtrasVariants = 3
	}
	return cfg
}

// catalog is the strided view of the action and scheme catalogs one
// generator configuration draws from, with every per-entry derivation the
// campaigns need computed once: each scheme's sample URI, and each
// action's valid datum (the sample URI of the first strided scheme it
// accepts, in catalog order for determinism). Callers treat it as
// read-only.
type catalog struct {
	actions []string
	// data[j] is the j-th strided scheme's sample URI.
	data []intent.URI
	// valid[i] is actions[i]'s valid datum, the zero URI (no data) for a
	// data-less action.
	valid []intent.URI
}

// catalogs memoizes catalog views by stride pair. Generate runs once per
// (campaign, component) — hundreds of thousands of times at farm scale —
// and the catalogs are immutable, so each view is materialized once.
var catalogs sync.Map // [2]int{action stride, scheme stride} -> *catalog

func (cfg GeneratorConfig) catalog() *catalog {
	key := [2]int{cfg.ActionStride, cfg.SchemeStride}
	if v, ok := catalogs.Load(key); ok {
		return v.(*catalog)
	}
	c := &catalog{actions: strided(intent.Actions, cfg.ActionStride)}
	schemes := strided(intent.Schemes, cfg.SchemeStride)
	for _, s := range schemes {
		c.data = append(c.data, intent.SampleData(s))
	}
	c.valid = make([]intent.URI, len(c.actions))
	for i, a := range c.actions {
		spec := intent.LookupAction(a)
		for j, s := range schemes {
			if spec.AcceptsScheme(s) {
				c.valid[i] = c.data[j]
				break
			}
		}
	}
	catalogs.Store(key, c)
	return c
}

// strided takes every stride-th entry of all.
func strided(all []string, stride int) []string {
	out := make([]string, 0, len(all)/stride+1)
	for i := 0; i < len(all); i += stride {
		out = append(out, all[i])
	}
	return out
}

// CountPerComponent predicts how many intents the campaign generates for
// one component under cfg — the |Action| x |TypeOf(Data)| arithmetic of
// Table I.
func (c Campaign) CountPerComponent(cfg GeneratorConfig) int {
	cfg = cfg.normalized()
	cat := cfg.catalog()
	nA, nS := len(cat.actions), len(cat.data)
	switch c {
	case CampaignA:
		return nA * nS
	case CampaignB:
		return nA + nS
	case CampaignC:
		return (nA + nS) * cfg.RandomVariants
	case CampaignD:
		return nA * cfg.ExtrasVariants
	case CampaignF:
		return nA
	default:
		return 0
	}
}

// fuzzExtraKeys are the random-looking keys FIC D attaches; none fall in a
// namespace a component expects.
var fuzzExtraKeys = []string{
	"fuzzKey", "qgj.extra", "payload", "random_field", "x", "data1",
	"extra_junk", "blob", "argv", "opt",
}

// maxExtras is FIC D's upper bound on extras per intent ("1-5 Extra fields").
const maxExtras = 5

// fuzzExtraKeyNumbered precomputes every "<key><index>" string FIC D can
// attach, so generation never runs fmt.Sprintf per extra.
var fuzzExtraKeyNumbered = func() [][maxExtras]string {
	out := make([][maxExtras]string, len(fuzzExtraKeys))
	for i, k := range fuzzExtraKeys {
		for e := 0; e < maxExtras; e++ {
			out[i][e] = fmt.Sprintf("%s%d", k, e)
		}
	}
	return out
}()

// intentPool recycles the campaign generators' working intents (and,
// transitively, their category and extras storage) across Generate calls —
// including concurrent ones from farm shards.
var intentPool = sync.Pool{New: func() any { return new(intent.Intent) }}

// Generate streams the campaign's intents for one target component into
// emit, in deterministic order. senderUID stamps the intents with QGJ's
// (unprivileged) identity.
//
// The *intent.Intent passed to emit is only valid for the duration of the
// callback: the generator reuses one pooled intent for the whole stream,
// resetting it between emissions. Callbacks that retain an intent (or its
// Extras) past their return must Clone it.
func (c Campaign) Generate(target intent.ComponentName, cfg GeneratorConfig, senderUID int, emit func(*intent.Intent)) {
	cfg = cfg.normalized()
	r := rng.New(cfg.Seed).Split("campaign-" + c.Letter() + "-" + target.FlattenToString())
	cat := cfg.catalog()

	in := intentPool.Get().(*intent.Intent)
	defer func() {
		in.Reset()
		intentPool.Put(in)
	}()
	base := func() *intent.Intent {
		in.Reset()
		in.Component = target
		in.SenderUID = senderUID
		return in
	}

	switch c {
	case CampaignA:
		// Cartesian product of valid actions and valid data; many pairs are
		// semantically incompatible — exactly the defect FIC A probes.
		for _, a := range cat.actions {
			for j := range cat.data {
				in := base()
				in.Action = a
				in.Data = cat.data[j]
				emit(in)
			}
		}
	case CampaignB:
		// Action XOR data; everything else blank.
		for _, a := range cat.actions {
			in := base()
			in.Action = a
			emit(in)
		}
		for j := range cat.data {
			in := base()
			in.Data = cat.data[j]
			emit(in)
		}
	case CampaignC:
		// Valid action with random data, then random action with valid
		// data, RandomVariants times each.
		for _, a := range cat.actions {
			for v := 0; v < cfg.RandomVariants; v++ {
				in := base()
				in.Action = a
				in.Data = randomURI(r)
				emit(in)
			}
		}
		for j := range cat.data {
			for v := 0; v < cfg.RandomVariants; v++ {
				in := base()
				in.Action = randomAction(r)
				in.Data = cat.data[j]
				emit(in)
			}
		}
	case CampaignD:
		// Valid {Action, Data} pair plus 1-5 random extras.
		for i, a := range cat.actions {
			for v := 0; v < cfg.ExtrasVariants; v++ {
				in := base()
				in.Action = a
				in.Data = cat.valid[i]
				nExtras := r.IntBetween(1, 5)
				for e := 0; e < nExtras; e++ {
					// Same RNG consumption as rng.Pick(r, fuzzExtraKeys),
					// but the numbered key comes from the precomputed table.
					ki := r.Intn(len(fuzzExtraKeys))
					in.PutExtra(fuzzExtraKeyNumbered[ki][e], randomExtraValue(r))
				}
				emit(in)
			}
		}
	case CampaignF:
		// Well-formed traffic for the fault campaign: every catalog action,
		// with a scheme the action legitimately accepts when one exists.
		// Failures under FIC F come from the injected OS faults, so the
		// intents themselves stay as benign as the generator can make them.
		for i, a := range cat.actions {
			in := base()
			in.Action = a
			in.Data = cat.valid[i]
			emit(in)
		}
	}
}

// randomAction fabricates a non-catalog action string like the paper's
// 'S0me.r@ndom.$trinG', built in one buffer: one allocation per action.
func randomAction(r *rng.Source) string {
	var buf [32]byte
	b := r.AppendASCII(buf[:0], 4, 10)
	b = r.AppendASCII(append(b, '.'), 3, 8)
	b = r.AppendASCII(append(b, '.'), 3, 12)
	return string(b)
}

// randomURI fabricates a syntactically parseable URI with a non-catalog
// scheme: "<scheme>:<opaque>" in one string, which the URI's two fields
// share.
func randomURI(r *rng.Source) intent.URI {
	var buf [32]byte
	b := appendSchemeToken(buf[:0], r)
	k := len(b)
	text := string(r.AppendASCII(append(b, ':'), 1, 16))
	return intent.URI{Scheme: text[:k], Opaque: text[k+1:]}
}

// appendSchemeToken appends a random 2-8 letter scheme. Keep regenerating
// shouldn't be needed: a token colliding with one of the 12 catalog schemes
// is rare and harmless (the intent simply counts as semi-valid for that
// delivery).
func appendSchemeToken(dst []byte, r *rng.Source) []byte {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	n := r.IntBetween(2, 8)
	for range n {
		dst = append(dst, letters[r.Intn(len(letters))])
	}
	return dst
}

// randomExtraValue draws a random typed extra; roughly a quarter are
// explicit nulls, the classic NPE trigger.
func randomExtraValue(r *rng.Source) intent.Value {
	switch r.Intn(8) {
	case 0, 1:
		return intent.NullValue()
	case 2, 3, 4:
		return intent.StringValue(r.ASCII(1, 24))
	case 5:
		return intent.IntValue(int64(r.Uint64()))
	case 6:
		return intent.FloatValue(r.NormFloat64() * 1e4)
	default:
		return intent.BoolValue(r.Bool(0.5))
	}
}
