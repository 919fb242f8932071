package experiment

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/engine"
	"secreta/internal/gen"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/metrics"
	"secreta/internal/policy"
	"secreta/internal/query"
	"secreta/internal/rt"
)

// DefaultData is the generated census the paper experiments run on by
// default: `secreta-bench -exp` prints its tables from it and the root
// BenchmarkPaper measures them on it.
var DefaultData = gen.Config{Records: 600, Items: 24, Seed: 42}

// Env is the shared input of the paper experiments: a generated census
// dataset, fanout-4 relational hierarchies, a fanout-2 item hierarchy
// and a workload of COUNT queries.
type Env struct {
	DS            *dataset.Dataset
	Hierarchies   generalize.Set
	ItemHierarchy *hierarchy.Hierarchy
	Workload      *query.Workload
	Seed          int64
}

// NewEnv generates the experiment input for cfg.
func NewEnv(cfg gen.Config) (*Env, error) {
	ds := gen.Census(cfg)
	hs, err := gen.Hierarchies(ds, 4)
	if err != nil {
		return nil, err
	}
	ih, err := gen.ItemHierarchy(ds, 2)
	if err != nil {
		return nil, err
	}
	w, err := query.Generate(ds, query.GenOptions{Queries: 80, Dims: 2, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Env{DS: ds, Hierarchies: hs, ItemHierarchy: ih, Workload: w, Seed: cfg.Seed}, nil
}

// baseRT is the RT configuration the experiments vary: Cluster +
// Apriori under Rmerger at k=10, m=2, δ=0.2 over the env's workload.
func (env *Env) baseRT() engine.Config {
	return engine.Config{
		Mode: engine.RT, RelAlgo: "cluster", TransAlgo: "apriori", Flavor: rt.RMerge,
		K: 10, M: 2, Delta: 0.2,
		Hierarchies: env.Hierarchies, ItemHierarchy: env.ItemHierarchy, Workload: env.Workload,
	}
}

// E8Configs is E8's batch: baseRT at k = 2, 4, …, 16 without a
// workload, so the batch measures the anonymizers and not ARE.
func (env *Env) E8Configs() []engine.Config {
	var cfgs []engine.Config
	for k := 2; k <= 16; k += 2 {
		c := env.baseRT()
		c.K = k
		c.Workload = nil
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// Spec is one paper experiment: Run prints its table to w.
type Spec struct {
	ID    string
	Brief string
	Run   func(env *Env, w io.Writer) error
}

// Paper lists the experiments E1–E10 that reproduce the paper's
// Evaluation and Comparison modes (docs/PERFORMANCE.md, "The paper
// experiments").
var Paper = []Spec{
	{"E1", "attribute histograms (Fig. 2, Dataset Editor)", runE1},
	{"E2", "ARE vs delta, fixed k,m (Fig. 3a)", runE2},
	{"E3", "runtime phase breakdown (Fig. 3b)", runE3},
	{"E4", "generalized value frequencies (Fig. 3c)", runE4},
	{"E5", "item frequency relative error (Fig. 3d)", runE5},
	{"E6", "comparison mode: ARE & runtime vs k (Fig. 4)", runE6},
	{"E7", "20-combination matrix (Sec. 1)", runE7},
	{"E8", "evaluator scalability vs workers (Sec. 2.2)", runE8},
	{"E9", "relational algorithms: GCP & ARE vs k", runE9},
	{"E10", "transaction algorithms: loss & runtime vs k", runE10},
}

// E1: per-attribute histograms of the original dataset.
func runE1(env *Env, w io.Writer) error {
	for i, a := range env.DS.Attrs {
		h := env.DS.Histogram(i)
		top := h
		if len(top) > 5 {
			top = top[:5]
		}
		fmt.Fprintf(w, "%-10s %2d distinct; top:", a.Name, len(h))
		for _, f := range top {
			fmt.Fprintf(w, " %s=%d", f.Value, f.Count)
		}
		fmt.Fprintln(w)
	}
	ih := env.DS.ItemHistogram()
	fmt.Fprintf(w, "%-10s %2d distinct items; top item %s=%d, median item %s=%d (Zipf skew)\n",
		env.DS.TransName, len(ih), ih[0].Value, ih[0].Count,
		ih[len(ih)/2].Value, ih[len(ih)/2].Count)
	return nil
}

// E2: ARE vs delta at fixed k, m (Fig. 3a). The paper's plot tracks how the
// merge slack trades transaction utility against relational utility, so we
// report ARE over the mixed workload and over an item-only workload (the
// transaction side the plot is about).
func runE2(env *Env, w io.Writer) error {
	sweep := Sweep{Param: "delta", Start: 0, End: 0.5, Step: 0.1}
	mixed, err := VaryingRun(env.DS, env.baseRT(), sweep, 0)
	if err != nil {
		return err
	}
	itemW, err := query.Generate(env.DS, query.GenOptions{Queries: 80, Dims: -1, Items: 1, Seed: env.Seed})
	if err != nil {
		return err
	}
	itemCfg := env.baseRT()
	itemCfg.Workload = itemW
	itemsOnly, err := VaryingRun(env.DS, itemCfg, sweep, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s %10s %10s %10s %10s\n", "delta", "ARE", "itemARE", "GCP", "tGCP")
	for i, p := range mixed.Points {
		if p.Err != nil {
			fmt.Fprintf(w, "%8.2f error: %v\n", p.X, p.Err)
			continue
		}
		fmt.Fprintf(w, "%8.2f %10.4f %10.4f %10.4f %10.4f\n", p.X,
			p.Indicators.ARE, itemsOnly.Points[i].Indicators.ARE,
			p.Indicators.GCP, p.Indicators.TransactionGCP)
	}
	fmt.Fprintln(w, "expected shape: item-query ARE and transaction loss fall as delta rises (more")
	fmt.Fprintln(w, "merging freedom); relational GCP rises in exchange.")
	return nil
}

// E3: phase breakdown of a single RT run (Fig. 3b).
func runE3(env *Env, w io.Writer) error {
	res := engine.Run(env.DS, env.baseRT())
	if res.Err != nil {
		return res.Err
	}
	fmt.Fprintf(w, "total runtime: %v\n", res.Runtime.Round(time.Microsecond))
	for _, p := range res.Phases {
		pct := 100 * float64(p.Duration) / float64(res.Runtime)
		fmt.Fprintf(w, "  %-12s %10v  %5.1f%%\n", p.Name, p.Duration.Round(time.Microsecond), pct)
	}
	return nil
}

// E4: frequencies of generalized values in a relational attribute (Fig.
// 3c). delta=0 keeps clusters unmerged so the local recoding granularity
// stays visible in the histogram.
func runE4(env *Env, w io.Writer) error {
	cfg := env.baseRT()
	cfg.Delta = 0
	res := engine.Run(env.DS, cfg)
	if res.Err != nil {
		return res.Err
	}
	ai := env.DS.AttrIndex("Age")
	freqs := metrics.GeneralizedFrequencies(res.Anonymized(), ai)
	fmt.Fprintf(w, "top generalized Age values (of %d):\n", len(freqs))
	for _, f := range freqs[:min(10, len(freqs))] {
		fmt.Fprintf(w, "  %-20s %d\n", f.Value, f.Count)
	}
	return nil
}

// E5: relative error of item frequencies, original vs anonymized (Fig. 3d).
func runE5(env *Env, w io.Writer) error {
	res := engine.Run(env.DS, env.baseRT())
	if res.Err != nil {
		return res.Err
	}
	ves := metrics.ItemFrequencyError(env.DS, res.Anonymized(), env.ItemHierarchy)
	sum, max := 0.0, 0.0
	for _, ve := range ves {
		sum += ve.RelError
		if ve.RelError > max {
			max = ve.RelError
		}
	}
	fmt.Fprintf(w, "items: %d, mean relative error: %.4f, max: %.4f\n", len(ves), sum/float64(len(ves)), max)
	sort.Slice(ves, func(i, j int) bool { return ves[i].RelError > ves[j].RelError })
	fmt.Fprintln(w, "worst five items:")
	for _, ve := range ves[:min(5, len(ves))] {
		fmt.Fprintf(w, "  %-8s orig %5.0f est %7.2f relerr %.3f\n", ve.Value, ve.Original, ve.Estimate, ve.RelError)
	}
	return nil
}

// E6: comparison mode — multiple configurations, ARE and runtime vs k.
func runE6(env *Env, w io.Writer) error {
	mk := func(rel, tra string, fl rt.Flavor) engine.Config {
		c := env.baseRT()
		c.RelAlgo, c.TransAlgo, c.Flavor = rel, tra, fl
		c.Label = rel + "+" + tra + "/" + fl.String()
		return c
	}
	bases := []engine.Config{
		mk("cluster", "apriori", rt.RMerge),
		mk("cluster", "apriori", rt.TMerge),
		mk("topdown", "apriori", rt.RMerge),
	}
	series, err := Compare(env.DS, bases, Sweep{Param: "k", Start: 5, End: 25, Step: 5}, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-30s %6s %10s %10s %10s\n", "configuration", "k", "ARE", "GCP", "time")
	for _, s := range series {
		for _, p := range s.Points {
			if p.Err != nil {
				fmt.Fprintf(w, "%-30s %6.0f error: %v\n", s.Label, p.X, p.Err)
				continue
			}
			fmt.Fprintf(w, "%-30s %6.0f %10.4f %10.4f %9.1fms\n",
				s.Label, p.X, p.Indicators.ARE, p.Indicators.GCP,
				float64(p.Runtime)/float64(time.Millisecond))
		}
	}
	fmt.Fprintln(w, "expected shape: ARE/GCP grow with k for every configuration.")
	return nil
}

// E7: the paper's 20 combinations under one bounding method. Every
// combination must deliver k-anonymity and k^m-anonymity; the table is
// printed in full before a miss is reported as the error.
func runE7(env *Env, w io.Writer) error {
	var missed []string
	fmt.Fprintf(w, "%-22s %10s %10s %10s %6s\n", "combination", "GCP", "tGCP", "ARE", "ok")
	for _, rel := range rt.RelationalAlgos {
		for _, tra := range rt.TransactionAlgos {
			cfg := env.baseRT()
			cfg.RelAlgo, cfg.TransAlgo = rel, tra
			cfg.K = 5
			res := engine.Run(env.DS, cfg)
			if res.Err != nil {
				fmt.Fprintf(w, "%-22s error: %v\n", rel+"+"+tra, res.Err)
				missed = append(missed, rel+"+"+tra)
				continue
			}
			ok := res.Indicators.KAnonymous && res.Indicators.KMAnonymous
			fmt.Fprintf(w, "%-22s %10.4f %10.4f %10.4f %6v\n",
				rel+"+"+tra, res.Indicators.GCP, res.Indicators.TransactionGCP, res.Indicators.ARE, ok)
			if !ok {
				missed = append(missed, rel+"+"+tra)
			}
		}
	}
	if len(missed) > 0 {
		return fmt.Errorf("%d of %d combinations missed k or k^m: %v",
			len(missed), len(rt.RelationalAlgos)*len(rt.TransactionAlgos), missed)
	}
	return nil
}

// E8: Method Evaluator/Comparator scalability with worker count.
func runE8(env *Env, w io.Writer) error {
	cfgs := env.E8Configs()
	fmt.Fprintf(w, "%8s %12s (%d configurations, %d CPUs)\n", "workers", "wall time", len(cfgs), runtime.NumCPU())
	base := time.Duration(0)
	for _, workers := range []int{1, 2, 4, 8} {
		if p := runtime.GOMAXPROCS(0); p < workers {
			fmt.Fprintf(w, "%8d %12s  skipped: GOMAXPROCS=%d < workers=%d, scaling not measurable\n",
				workers, "—", p, workers)
			continue
		}
		start := time.Now()
		results := engine.RunAll(env.DS, cfgs, workers)
		wall := time.Since(start)
		for _, r := range results {
			if r.Err != nil {
				return r.Err
			}
		}
		if workers == 1 {
			base = wall
		}
		fmt.Fprintf(w, "%8d %12v  speedup %.2fx\n", workers, wall.Round(time.Millisecond),
			float64(base)/float64(wall))
	}
	fmt.Fprintln(w, "expected shape: near-linear speedup until configurations are exhausted.")
	return nil
}

// E9: the four relational algorithms alone, GCP & ARE vs k.
func runE9(env *Env, w io.Writer) error {
	var bases []engine.Config
	for _, algo := range rt.RelationalAlgos {
		bases = append(bases, engine.Config{
			Label: algo, Mode: engine.Relational, Algorithm: algo,
			Hierarchies: env.Hierarchies, Workload: env.Workload,
		})
	}
	series, err := Compare(env.DS, bases, Sweep{Param: "k", Start: 2, End: 50, Step: 16}, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %6s %10s %10s %10s\n", "algorithm", "k", "GCP", "ARE", "time")
	for _, s := range series {
		for _, p := range s.Points {
			if p.Err != nil {
				fmt.Fprintf(w, "%-12s %6.0f error: %v\n", s.Label, p.X, p.Err)
				continue
			}
			fmt.Fprintf(w, "%-12s %6.0f %10.4f %10.4f %9.1fms\n",
				s.Label, p.X, p.Indicators.GCP, p.Indicators.ARE,
				float64(p.Runtime)/float64(time.Millisecond))
		}
	}
	fmt.Fprintln(w, "expected shape: cluster (local recoding) <= topdown/bottomup <= incognito (full-domain) in GCP.")
	return nil
}

// E10: the five transaction algorithms alone, loss & runtime vs k.
func runE10(env *Env, w io.Writer) error {
	pol := &policy.Policy{
		Privacy: policy.PrivacyAllItems(env.DS),
		Utility: policy.UtilityTop(env.DS),
	}
	var bases []engine.Config
	for _, algo := range rt.TransactionAlgos {
		bases = append(bases, engine.Config{
			Label: algo, Mode: engine.Transactional, Algorithm: algo, M: 2,
			ItemHierarchy: env.ItemHierarchy, Policy: pol,
		})
	}
	series, err := Compare(env.DS, bases, Sweep{Param: "k", Start: 2, End: 26, Step: 8}, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %6s %12s %10s\n", "algorithm", "k", "trans. GCP", "time")
	for _, s := range series {
		for _, p := range s.Points {
			if p.Err != nil {
				fmt.Fprintf(w, "%-12s %6.0f error: %v\n", s.Label, p.X, p.Err)
				continue
			}
			fmt.Fprintf(w, "%-12s %6.0f %12.4f %9.1fms\n",
				s.Label, p.X, p.Indicators.TransactionGCP,
				float64(p.Runtime)/float64(time.Millisecond))
		}
	}
	fmt.Fprintln(w, "expected shape: loss grows with k for the hierarchy-based algorithms (apriori, lra,")
	fmt.Fprintln(w, "vpa); COAT/PCTA labels are arbitrary groups outside the hierarchy, so their tGCP is an")
	fmt.Fprintln(w, "upper bound — compare their runtimes and the policy-protection checks instead.")
	return nil
}
