package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method Python's statistics.quantiles(xs, n=4) uses ("exclusive"),
// with the median as statistics.median computes it.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		q[1] = s[n/2]
	} else {
		q[1] = (s[n/2-1] + s[n/2]) / 2
	}
	return q
}

// summary is one end-to-end metric over a workload's repetitions.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(xs []float64, unit string) summary {
	q := quartiles(xs)
	return summary{Median: q[1], Q1: q[0], Q3: q[2], N: len(xs), Unit: unit}
}

// stage is one span name's share of a traced replay.
type stage struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// topStages ranks span names by self time within the traced run's replay.
func topStages(spans []span, k int) []stage {
	root := -1
	for i, s := range spans {
		if s.Name == "replay" && s.Parent < 0 {
			root = i
		}
	}
	if root < 0 {
		return nil
	}
	total := float64(spans[root].dur()) / 1e9
	var out []stage
	for name, sec := range selfSeconds(spans, root) {
		if name != "replay" {
			out = append(out, stage{Name: name, Seconds: sec, Share: sec / total})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seconds > out[b].Seconds })
	return out[:min(k, len(out))]
}

// print writes the human-readable report of one workload.
func (wr *workloadResult) print(w io.Writer, def *definition) {
	verdict := "correct"
	if !wr.correct() {
		verdict = "FAILED"
	}
	frac := 0.0
	if wr.Attempted > 0 {
		frac = float64(wr.Failed) / float64(wr.Attempted)
	}
	fmt.Fprintf(w, "== %s: %d repetitions, %s, attempted %d failed %d (fail_frac %g)\n",
		wr.Name, len(wr.Reps), verdict, wr.Attempted, wr.Failed, frac)
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "   check failed: %s\n", p)
	}
	if len(wr.Reps) > 0 {
		fmt.Fprintf(w, "   output hash %.16s\n", wr.Reps[0].Hash)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	samples := wr.endToEnd()
	fmt.Fprintln(tw, "   metric\tunit\tmedian\tq1\tq3\tn")
	for _, m := range def.EndToEnd {
		s := summarize(samples[m.Name], m.Unit)
		fmt.Fprintf(tw, "   %s\t%s\t%.4g\t%.4g\t%.4g\t%d\n", m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	if wr.Traced != nil {
		fmt.Fprintln(tw, "   per-layer (traced run)\t\t\t\t\t")
		for _, m := range def.PerLayer {
			fmt.Fprintf(tw, "   %s\t%s\t%.4g\t\t\t\n", m.Name, m.Unit, wr.Traced.Layers[m.Name])
		}
	}
	tw.Flush()
	if t := wr.Traced; t != nil {
		fmt.Fprintf(w, "   traced run: orchestration wall %.3fs (overhead %+.1f%%), peak RSS %.0f MiB\n",
			t.WallS, 100*t.Layers["trace.overhead_frac"], t.PeakRSSMB)
		fmt.Fprintf(w, "   top self time:")
		for _, s := range topStages(wr.Traced.Spans, 3) {
			fmt.Fprintf(w, " %s %.3fs (%.0f%%);", s.Name, s.Seconds, 100*s.Share)
		}
		fmt.Fprintln(w)
	}
}

// setFile is one set of runs: every workload at one seed.
type setFile struct {
	Seed      uint64        `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Workloads []setWorkload `json:"workloads"`
}

type setWorkload struct {
	Name      string             `json:"name"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Hash      string             `json:"hash,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	PerLayer  map[string]float64 `json:"perLayer,omitempty"`
	TopStages []stage            `json:"topStages,omitempty"`
}

func writeSet(path string, def *definition, seed uint64, seconds float64, results []*workloadResult) error {
	set := setFile{Seed: seed, Seconds: seconds}
	for _, wr := range results {
		sw := setWorkload{Name: wr.Name, Correct: wr.correct(), Problems: wr.Problems,
			Attempted: wr.Attempted, Failed: wr.Failed, Metrics: make(map[string]summary)}
		if len(wr.Reps) > 0 {
			sw.Hash = wr.Reps[0].Hash
		}
		samples := wr.endToEnd()
		for _, m := range def.EndToEnd {
			sw.Metrics[m.Name] = summarize(samples[m.Name], m.Unit)
		}
		if wr.Traced != nil {
			sw.PerLayer = wr.Traced.Layers
			sw.TopStages = topStages(wr.Traced.Spans, 3)
		}
		set.Workloads = append(set.Workloads, sw)
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (*setFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// agreeMain compares two sets: one row per workload and end-to-end metric,
// with both medians and interquartile ranges and the verdict. It exits 1 if
// any median differs from the first set's by more than the metric's bound.
func agreeMain(args []string, w io.Writer) int {
	defPath := "BENCHMARK.json"
	if len(args) == 4 && args[0] == "--benchmark" {
		defPath, args = args[1], args[2:]
	}
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: qgjbench agree [--benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	def, err := loadDefinition(defPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qgjbench agree: %v\n", err)
		return 2
	}
	a, err := readSet(args[0])
	if err == nil {
		var b *setFile
		if b, err = readSet(args[1]); err == nil {
			return agree(w, def, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "qgjbench agree: %v\n", err)
	return 2
}

func agree(w io.Writer, def *definition, a, b *setFile) int {
	status := 0
	byName := make(map[string]setWorkload)
	for _, sw := range b.Workloads {
		byName[sw.Name] = sw
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA IQR\tB median\tB IQR\tchange\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t(missing from B)\t\t\t\t\t\t\t\tDISAGREE\n", wa.Name)
			status = 1
			continue
		}
		for _, m := range def.EndToEnd {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			change := (sb.Median - sa.Median) / sa.Median
			verdict := "agree"
			if !(change <= m.Bound && change >= -m.Bound) {
				verdict, status = "DISAGREE", 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n",
				wa.Name, m.Name, m.Unit, sa.Median, sa.Q3-sa.Q1, sb.Median, sb.Q3-sb.Q1,
				100*change, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	return status
}
