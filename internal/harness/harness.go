// Package harness is the paper-grade experiment harness: it turns the
// ad-hoc bench workflow (a shell script, hand-committed BENCH_n.json,
// reviewer-eyeball comparisons) into tested Go code. It has four parts:
//
//   - a parser for `go test -bench` output (parse.go) — the replacement
//     for the old awk pipeline, with the same package-qualified names and
//     loud duplicate detection, plus skip capture so a benchmark that
//     refuses to run on a small box (e.g. E8 workers > GOMAXPROCS) is
//     recorded as skipped rather than silently absent;
//   - an experiment grid (grid.go) loaded from scripts/paper/
//     experiments.json: which benchmarks to run, how many repeats, how
//     much warmup, and per-benchmark regression tolerances;
//   - a runner + analyzer (run.go, analyze.go) that executes the grid
//     into a timestamped run folder (paper_runs/<ts>/{csv,logs,analysis})
//     and emits grouped mean/std/CV tables as CSV + markdown plus a
//     machine-readable baseline.json;
//   - a comparator (compare.go) that diffs a fresh measurement against a
//     tracked baseline (either a flat BENCH_*.json or a harness
//     baseline.json) with noise-aware thresholds, and is wired into CI as
//     a gating step.
//
// The design treats the tracked baseline as an oracle that CI checks
// mechanically — the black-box-checking stance — instead of trusting a
// reviewer to notice a 25% slowdown in a wall of benchmark output.
package harness

import "fmt"

// Result is one parsed benchmark measurement. Name is package-qualified
// ("secreta/internal/privacy.BenchmarkPartition") so identically named
// benchmarks in different packages stay distinct records. BOp and
// AllocsOp are nil when the benchmark ran without -benchmem.
type Result struct {
	Name     string   `json:"name"`
	NsOp     float64  `json:"ns_op"`
	BOp      *float64 `json:"b_op"`
	AllocsOp *float64 `json:"allocs_op"`
}

// Skip records a benchmark that declined to run, with the reason it
// printed. Skips matter to comparisons: a benchmark missing from a fresh
// run because it skipped (GOMAXPROCS too small, fixture absent) must not
// be confused with a benchmark that silently disappeared.
type Skip struct {
	Name   string `json:"name"`
	Reason string `json:"reason,omitempty"`
}

// Parsed is the outcome of one `go test -bench` invocation.
type Parsed struct {
	Results []Result `json:"results"`
	Skips   []Skip   `json:"skips,omitempty"`
}

// bop/aop return the measured value or NaN-free sentinels for printing.
func deref(p *float64) (float64, bool) {
	if p == nil {
		return 0, false
	}
	return *p, true
}

func fptr(v float64) *float64 { return &v }

// Stat is the summary of one metric across repeats.
type Stat struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	// CV is the coefficient of variation (Std/Mean, 0 when Mean is 0) —
	// the noise figure the comparator widens its thresholds by.
	CV  float64 `json:"cv"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Summary aggregates one benchmark's repeats.
type Summary struct {
	Name    string `json:"name"`
	Repeats int    `json:"repeats"`
	NsOp    Stat   `json:"ns_op"`
	// BOp/AllocsOp are zero-valued when the runs lacked -benchmem.
	BOp      Stat `json:"b_op"`
	AllocsOp Stat `json:"allocs_op"`
	HasMem   bool `json:"has_mem"`
}

func (s Summary) String() string {
	return fmt.Sprintf("%s: %.0f ns/op ±%.1f%% over %d repeats", s.Name, s.NsOp.Mean, 100*s.NsOp.CV, s.Repeats)
}
