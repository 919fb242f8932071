package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// Summarize groups per-repeat results by benchmark name into mean/std/CV
// summaries, sorted by name. Benchmarks absent from some repeats (a
// flaking skip) are summarized over the repeats that produced them —
// Repeats records how many did, so the comparator can refuse to gate on
// thin evidence.
func Summarize(reps []*Parsed) []Summary {
	byName := make(map[string][]Result)
	for _, rep := range reps {
		if rep == nil {
			continue
		}
		for _, r := range rep.Results {
			byName[r.Name] = append(byName[r.Name], r)
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Summary, 0, len(names))
	for _, n := range names {
		rs := byName[n]
		s := Summary{Name: n, Repeats: len(rs), HasMem: true}
		ns := make([]float64, len(rs))
		var bs, as []float64
		for i, r := range rs {
			ns[i] = r.NsOp
			b, okB := deref(r.BOp)
			a, okA := deref(r.AllocsOp)
			if !okB || !okA {
				s.HasMem = false
				continue
			}
			bs, as = append(bs, b), append(as, a)
		}
		s.NsOp = stat(ns)
		if s.HasMem && len(bs) > 0 {
			s.BOp, s.AllocsOp = stat(bs), stat(as)
		} else {
			s.HasMem = false
		}
		out = append(out, s)
	}
	return out
}

// stat computes the summary statistics of one metric's samples. Std is
// the sample standard deviation (n-1), zero for a single repeat.
func stat(xs []float64) Stat {
	if len(xs) == 0 {
		return Stat{}
	}
	s := Stat{Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	if s.Mean != 0 {
		s.CV = s.Std / s.Mean
	}
	return s
}

// Baseline is the machine-readable analysis a run folder tracks
// (analysis/baseline.json): everything the comparator needs to act as an
// oracle — per-benchmark statistics with their noise figures, plus the
// measurement protocol and the box's parallelism, so a baseline recorded
// on a 1-CPU container can be recognized for what it is.
type Baseline struct {
	Label      string    `json:"label,omitempty"`
	CreatedAt  string    `json:"created_at,omitempty"`
	Benchtime  string    `json:"benchtime,omitempty"`
	Repeats    int       `json:"repeats"`
	GoMaxProcs int       `json:"gomaxprocs,omitempty"`
	Summaries  []Summary `json:"benchmarks"`
	Skipped    []Skip    `json:"skipped,omitempty"`
}

// WriteBaseline writes the baseline document.
func WriteBaseline(w io.Writer, b *Baseline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// LoadBaseline reads either format a tracked baseline comes in:
//
//   - a harness baseline.json (object form, full statistics), or
//   - a flat BENCH_n.json (array form, `secreta-bench parse` output):
//     each entry becomes a single-repeat summary with zero spread, which
//     is exactly what those recordings were.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: reading baseline: %w", err)
	}
	return ParseBaseline(data, path)
}

// ParseBaseline decodes baseline bytes (see LoadBaseline); name is used
// in errors only.
func ParseBaseline(data []byte, name string) (*Baseline, error) {
	trimmed := firstNonSpace(data)
	switch trimmed {
	case '[':
		var flat []Result
		if err := json.Unmarshal(data, &flat); err != nil {
			return nil, fmt.Errorf("harness: parsing flat baseline %s: %w", name, err)
		}
		b := &Baseline{Repeats: 1, Label: name}
		for _, r := range flat {
			s := Summary{Name: r.Name, Repeats: 1, NsOp: point(r.NsOp)}
			if bv, ok := deref(r.BOp); ok {
				if av, ok2 := deref(r.AllocsOp); ok2 {
					s.BOp, s.AllocsOp, s.HasMem = point(bv), point(av), true
				}
			}
			b.Summaries = append(b.Summaries, s)
		}
		return b, nil
	case '{':
		var b Baseline
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("harness: parsing baseline %s: %w", name, err)
		}
		return &b, nil
	}
	return nil, fmt.Errorf("harness: baseline %s is neither a JSON array nor an object", name)
}

func firstNonSpace(data []byte) byte {
	for _, c := range data {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		}
		return c
	}
	return 0
}

func point(v float64) Stat { return Stat{Mean: v, Min: v, Max: v} }

// ByName indexes the baseline's summaries.
func (b *Baseline) ByName() map[string]Summary {
	out := make(map[string]Summary, len(b.Summaries))
	for _, s := range b.Summaries {
		out[s.Name] = s
	}
	return out
}

// SkippedSet returns the names recorded as skipped.
func (b *Baseline) SkippedSet() map[string]bool {
	out := make(map[string]bool, len(b.Skipped))
	for _, s := range b.Skipped {
		out[s.Name] = true
	}
	return out
}

// WriteSummaryCSV writes the grouped table: one row per benchmark with
// mean/std/CV for every metric.
func WriteSummaryCSV(w io.Writer, sums []Summary) error {
	cw := csv.NewWriter(w)
	header := []string{
		"benchmark", "repeats",
		"ns_op_mean", "ns_op_std", "ns_op_cv", "ns_op_min", "ns_op_max",
		"b_op_mean", "allocs_op_mean",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range sums {
		row := []string{
			s.Name, strconv.Itoa(s.Repeats),
			f(s.NsOp.Mean), f(s.NsOp.Std), f(s.NsOp.CV), f(s.NsOp.Min), f(s.NsOp.Max),
			f(s.BOp.Mean), f(s.AllocsOp.Mean),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteSummaryMarkdown writes the human table (analysis/summary.md): the
// grouped statistics plus any skips, flagging benchmarks whose CV exceeds
// the noisy threshold so a shaky baseline is visibly shaky.
func WriteSummaryMarkdown(w io.Writer, b *Baseline) error {
	fmt.Fprintf(w, "# Benchmark summary\n\n")
	if b.Label != "" {
		fmt.Fprintf(w, "Run: `%s`", b.Label)
		if b.CreatedAt != "" {
			fmt.Fprintf(w, " (%s)", b.CreatedAt)
		}
		fmt.Fprintf(w, "\n\n")
	}
	fmt.Fprintf(w, "Protocol: %d repeats, benchtime %s, GOMAXPROCS %d.\n\n",
		b.Repeats, orDash(b.Benchtime), b.GoMaxProcs)
	fmt.Fprintln(w, "| benchmark | repeats | ns/op (mean) | ±std | CV | B/op | allocs/op |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|")
	for _, s := range b.Summaries {
		cv := fmt.Sprintf("%.1f%%", 100*s.NsOp.CV)
		if s.NsOp.CV > NoisyCV {
			cv += " ⚠"
		}
		mem, allocs := "—", "—"
		if s.HasMem {
			mem = fmt.Sprintf("%.0f", s.BOp.Mean)
			allocs = fmt.Sprintf("%.0f", s.AllocsOp.Mean)
		}
		fmt.Fprintf(w, "| %s | %d | %.0f | %.0f | %s | %s | %s |\n",
			s.Name, s.Repeats, s.NsOp.Mean, s.NsOp.Std, cv, mem, allocs)
	}
	if len(b.Skipped) > 0 {
		fmt.Fprintf(w, "\n## Skipped\n\n")
		for _, sk := range b.Skipped {
			fmt.Fprintf(w, "- `%s`: %s\n", sk.Name, orDash(sk.Reason))
		}
	}
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

// NoisyCV is the coefficient of variation beyond which a benchmark's
// wall-clock statistics are flagged as noisy in summaries — and beyond
// which a regression gate verdict on it deserves suspicion.
const NoisyCV = 0.10
