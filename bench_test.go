// Package secreta's root benchmark suite measures the paper experiments
// E1-E10 (experiment.Paper, indexed in docs/PERFORMANCE.md) on the same
// dataset `secreta-bench -exp` prints their tables from, so
// `go test -run '^$' -bench BenchmarkPaper .` times exactly what the
// harness prints. BenchmarkE8Workers is E8's configuration batch at fixed
// worker counts; the ablation benches below contrast design choices with
// the alternatives they replaced.
package secreta

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/experiment"
	"secreta/internal/generalize"
	"secreta/internal/metrics"
	"secreta/internal/privacy"
	"secreta/internal/rt"
)

// loadEnv builds the experiment input of experiment.DefaultData resized
// to records.
func loadEnv(b *testing.B, records int) *experiment.Env {
	b.Helper()
	cfg := experiment.DefaultData
	cfg.Records = records
	env, err := experiment.NewEnv(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkPaper runs each paper experiment, one sub-benchmark per ID,
// with its table written to io.Discard.
func BenchmarkPaper(b *testing.B) {
	env := loadEnv(b, experiment.DefaultData.Records)
	for _, e := range experiment.Paper {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(env, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Workers: E8's configuration batch at each worker count.
func BenchmarkE8Workers(b *testing.B) {
	env := loadEnv(b, 300)
	cfgs := env.E8Configs()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if p := runtime.GOMAXPROCS(0); p < workers {
				// On a small box the extra goroutines just timeslice one
				// core; the numbers would measure the scheduler, not the
				// evaluator. Skip loudly so the harness records why.
				b.Skipf("GOMAXPROCS=%d < workers=%d: scaling not measurable on this box", p, workers)
			}
			for i := 0; i < b.N; i++ {
				for _, r := range engine.RunAll(env.DS, cfgs, workers) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationMergeGate contrasts the gated merge policy (a merge must
// strictly reduce k^m violations) against ungated merging, which cascades
// into a single class.
func BenchmarkAblationMergeGate(b *testing.B) {
	env := loadEnv(b, 600)
	for _, tc := range []struct {
		name    string
		ungated bool
	}{{"gated", false}, {"ungated", true}} {
		b.Run(tc.name, func(b *testing.B) {
			qis := mustQIs(b, env.DS)
			hh, err := env.Hierarchies.ForQIs(env.DS, qis)
			if err != nil {
				b.Fatal(err)
			}
			var gcp float64
			for i := 0; i < b.N; i++ {
				res, err := rt.Anonymize(env.DS, rt.Options{
					K: 10, M: 2, Delta: 0.1,
					Hierarchies: env.Hierarchies, ItemHierarchy: env.ItemHierarchy,
					RelAlgo: "cluster", TransAlgo: "apriori",
					Flavor: rt.RMerge, UngatedMerges: tc.ungated,
				})
				if err != nil {
					b.Fatal(err)
				}
				cols, dicts := res.Anonymized.Columns(qis)
				gcp = metrics.GCPColumns(res.Anonymized.N, cols, dicts, hh)
			}
			b.ReportMetric(gcp, "GCP")
		})
	}
}

// BenchmarkAblationIncognitoNaive contrasts Incognito's pruned search with
// an exhaustive lattice scan that checks k-anonymity at every node.
func BenchmarkAblationIncognitoNaive(b *testing.B) {
	env := loadEnv(b, 300)
	qis := mustQIs(b, env.DS)
	hh, err := env.Hierarchies.ForQIs(env.DS, qis)
	if err != nil {
		b.Fatal(err)
	}
	heights := make([]int, len(qis))
	for i, h := range hh {
		heights[i] = h.Height()
	}
	b.Run("incognito", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := engine.Run(env.DS, engine.Config{
				Mode: engine.Relational, Algorithm: "incognito", K: 10,
				Hierarchies: env.Hierarchies,
			})
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})
	b.Run("naive-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			found := 0
			for node := make([]int, len(heights)); node != nil; node = nextLevels(node, heights) {
				cand, err := generalize.FullDomain(env.DS, env.Hierarchies, qis, node)
				if err != nil {
					b.Fatal(err)
				}
				if privacy.IsKAnonymous(cand, qis, 10) {
					found++
				}
			}
			if found == 0 {
				b.Fatal("no k-anonymous node")
			}
		}
	})
}

// nextLevels advances node to the next level vector below heights, the
// last position fastest, and returns nil after the top node.
func nextLevels(node, heights []int) []int {
	for j := len(node) - 1; j >= 0; j-- {
		if node[j] < heights[j] {
			node[j]++
			return node
		}
		node[j] = 0
	}
	return nil
}

// BenchmarkExtensionRho measures the rho-uncertainty extension algorithm.
func BenchmarkExtensionRho(b *testing.B) {
	env := loadEnv(b, 600)
	h := env.DS.ItemHistogram()
	sens := []string{h[0].Value, h[1].Value, h[2].Value}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := engine.Run(env.DS, engine.Config{
			Mode: engine.Transactional, Algorithm: "rho",
			Rho: 0.5, M: 2, K: 1, Sensitive: sens,
		})
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

func mustQIs(b *testing.B, ds *dataset.Dataset) []int {
	b.Helper()
	qis, err := ds.QIIndices(nil)
	if err != nil {
		b.Fatal(err)
	}
	return qis
}
