// Package engine implements SECRETA's backend core (Figure 1 of the
// paper): the Anonymization Module — a uniform interface over all nine
// algorithms and the three RT bounding methods — and the Method
// Evaluator/Comparator, which fans configurations out to N parallel
// anonymization workers and collects results with runtime, phase
// breakdowns, and the full set of utility indicators.
//
// All concurrent execution flows through Scheduler, a bounded worker pool
// that streams results as they complete and honors context cancellation
// down into the algorithms' hot loops (RunCtx). Successful runs are
// memoized in Cache, a size-bounded LRU keyed by dataset and
// configuration content, shared by every scheduler a server creates.
package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/generalize"
	"secreta/internal/hierarchy"
	"secreta/internal/metrics"
	"secreta/internal/obs"
	"secreta/internal/policy"
	"secreta/internal/privacy"
	"secreta/internal/query"
	"secreta/internal/relational"
	"secreta/internal/rt"
	"secreta/internal/timing"
	"secreta/internal/transaction"
)

// Mode classifies what a configuration anonymizes.
type Mode int

const (
	// Relational runs a relational algorithm on the QI attributes.
	Relational Mode = iota
	// Transactional runs a transaction algorithm on the item attribute.
	Transactional
	// RT runs a bounding-method combination on both.
	RT
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Relational:
		return "relational"
	case Transactional:
		return "transaction"
	case RT:
		return "rt"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config is one anonymization request: an algorithm (or combination) plus
// parameters. It is what the Evaluation mode runs once and the Comparison
// mode runs per configuration per parameter value.
type Config struct {
	// Label identifies the configuration in reports and plots.
	Label string
	// Mode picks the attribute side(s) to anonymize.
	Mode Mode
	// Algorithm names the relational or transaction algorithm (per
	// Mode); for RT mode, RelAlgo/TransAlgo/Flavor are used instead.
	Algorithm string
	// RelAlgo, TransAlgo, Flavor configure RT mode.
	RelAlgo   string
	TransAlgo string
	Flavor    rt.Flavor
	// K, M, Delta are the privacy parameters (M, Delta: RT/transaction).
	K     int
	M     int
	Delta float64
	// Rho and Sensitive configure the rho-uncertainty extension
	// algorithm (transaction mode, Algorithm: "rho").
	Rho       float64
	Sensitive []string
	// QIs restricts the quasi-identifiers (empty: all relational).
	QIs []string
	// Hierarchies, ItemHierarchy, Policy are the configuration inputs
	// from the Configuration Editor. Runs only read them, and results
	// keep them: a server shares one hierarchy set across every job over
	// a registry dataset and the results those jobs retain.
	Hierarchies   generalize.Set
	ItemHierarchy *hierarchy.Hierarchy
	Policy        *policy.Policy
	// Workload, when set, lets the evaluator compute ARE.
	Workload *query.Workload
}

// DisplayLabel returns Label or a synthesized description.
func (c *Config) DisplayLabel() string {
	if c.Label != "" {
		return c.Label
	}
	switch c.Mode {
	case RT:
		return fmt.Sprintf("%s+%s/%s k=%d m=%d d=%.2g", c.RelAlgo, c.TransAlgo, c.Flavor, c.K, c.M, c.Delta)
	case Transactional:
		return fmt.Sprintf("%s k=%d m=%d", c.Algorithm, c.K, c.M)
	default:
		return fmt.Sprintf("%s k=%d", c.Algorithm, c.K)
	}
}

// Indicators is the utility/privacy summary of one run — the numbers the
// message box and plots of the Evaluation mode present.
type Indicators struct {
	GCP              float64 // relational information loss, [0,1]
	TransactionGCP   float64 // transaction information loss, [0,1]
	ARE              float64 // average relative error over the workload
	Discernibility   float64
	CAVG             float64
	SuppressionRatio float64
	MinClassSize     int
	Classes          int
	KAnonymous       bool
	KMAnonymous      bool
}

// Result is one completed anonymization with its evaluation.
type Result struct {
	Config Config
	// Records is a replayable, incrementally consumable iterator over the
	// anonymized records — what streaming consumers (secreta-serve's
	// chunked result delivery, `secreta evaluate -stream`) read instead of
	// one fully materialized payload. It is set whenever the run produced
	// an anonymized dataset and may be scanned any number of times: a
	// *dataset.Indexed for relational runs and cached results, a
	// *dataset.Dataset for transaction and RT runs.
	Records    dataset.RecordSource
	Runtime    time.Duration
	Phases     []timing.Phase
	Indicators Indicators
	Err        error
}

// Anonymized returns the anonymized records as strings, for the callers
// that need them (file output, frequency tables, ARE): interned records
// are materialized anew on every call. Nil when the run failed.
func (r *Result) Anonymized() *dataset.Dataset { return materialize(r.Records) }

func materialize(src dataset.RecordSource) *dataset.Dataset {
	if ix, ok := src.(*dataset.Indexed); ok {
		return ix.Materialize()
	}
	ds, _ := src.(*dataset.Dataset)
	return ds
}

// Run executes a single configuration synchronously and evaluates it —
// the Evaluation mode's single-parameter execution. The run cannot be
// cancelled; use RunCtx when it should be.
func Run(ds *dataset.Dataset, cfg Config) *Result {
	return RunCtx(context.Background(), ds, cfg)
}

// RunCtx is Run under a context: ctx is plumbed into the algorithm's hot
// loops (Apriori repair rounds, cluster absorption, lattice expansion, RT
// merge traversal), so cancelling it aborts the run mid-algorithm — not at
// the next configuration boundary — with Result.Err set to the context's
// error.
func RunCtx(ctx context.Context, ds *dataset.Dataset, cfg Config) *Result {
	return runInput(ctx, NewInput(ds), cfg)
}

// runInput is RunCtx over a caller-supplied Input, whose derived state
// (the interning) every run over the same Input shares.
func runInput(ctx context.Context, in *Input, cfg Config) *Result {
	ds := in.Dataset()
	sp := obs.FromCtx(ctx).Start("run", obs.String("config", cfg.DisplayLabel()))
	defer sp.End()
	ctx = obs.With(ctx, sp)
	start := time.Now()
	res := &Result{Config: cfg}
	anon, phases, err := dispatch(ctx, in, cfg)
	res.Runtime = time.Since(start)
	res.Phases = phases
	// Stopwatch phases are contiguous from the run's start; replay them as
	// child spans so the trace shows the algorithm's internal cost split
	// without re-timing anything. They are anchored at the span's own
	// start, so a preemption between opening the span and reading the
	// clock above cannot open a gap before the first phase.
	at := sp.StartTime()
	for _, ph := range phases {
		next := at.Add(ph.Duration)
		sp.Interval(ph.Name, at, next)
		at = next
	}
	if err != nil {
		res.Err = err
		return res
	}
	res.Records = anon
	evalStart := time.Now()
	res.Indicators, res.Err = Evaluate(ds, anon, cfg)
	sp.Interval("evaluate", evalStart, time.Now())
	return res
}

func dispatch(ctx context.Context, in *Input, cfg Config) (dataset.RecordSource, []timing.Phase, error) {
	ds := in.Dataset()
	switch cfg.Mode {
	case Relational:
		run, err := rt.RelationalByName(cfg.Algorithm)
		if err != nil {
			return nil, nil, err
		}
		r, err := run(ds, relational.Options{Ctx: ctx, K: cfg.K, QIs: cfg.QIs, Hierarchies: cfg.Hierarchies, Interned: in.Indexed()})
		if err != nil {
			return nil, nil, err
		}
		return r.Anonymized, r.Phases, nil
	case Transactional:
		run, err := transactionByName(cfg.Algorithm)
		if err != nil {
			return nil, nil, err
		}
		r, err := run(ds, transaction.Options{
			Ctx: ctx,
			K:   cfg.K, M: cfg.M,
			ItemHierarchy: cfg.ItemHierarchy,
			Policy:        cfg.Policy,
			Rho:           cfg.Rho,
			Sensitive:     cfg.Sensitive,
		})
		if err != nil {
			return nil, nil, err
		}
		return r.Anonymized, r.Phases, nil
	case RT:
		r, err := rt.Anonymize(ds, rt.Options{
			Ctx: ctx,
			K:   cfg.K, M: cfg.M, Delta: cfg.Delta,
			QIs:           cfg.QIs,
			Hierarchies:   cfg.Hierarchies,
			ItemHierarchy: cfg.ItemHierarchy,
			Policy:        cfg.Policy,
			RelAlgo:       cfg.RelAlgo,
			TransAlgo:     cfg.TransAlgo,
			Flavor:        cfg.Flavor,
			Interned:      in.Indexed(),
		})
		if err != nil {
			return nil, nil, err
		}
		return r.Anonymized, r.Phases, nil
	}
	return nil, nil, fmt.Errorf("engine: unknown mode %v", cfg.Mode)
}

// transactionByName resolves rt's transaction algorithms plus the
// ExtensionAlgos.
func transactionByName(name string) (func(*dataset.Dataset, transaction.Options) (*transaction.Result, error), error) {
	if strings.EqualFold(strings.TrimSpace(name), "rho") {
		return transaction.RhoUncertainty, nil
	}
	return rt.TransactionByName(name)
}

// ExtensionAlgos lists algorithms beyond the paper's original nine — the
// extensions its conclusion announces ("rho" = rho-uncertainty, Cao et
// al.). They run in Transactional mode like the core five.
var ExtensionAlgos = []string{"rho"}

// Evaluate computes the full indicator set for anonymized records.
func Evaluate(orig *dataset.Dataset, anon dataset.RecordSource, cfg Config) (Indicators, error) {
	var ind Indicators
	qis, err := orig.QIIndices(cfg.QIs)
	if err != nil {
		return ind, err
	}
	relSide := cfg.Mode == Relational || cfg.Mode == RT
	transSide := (cfg.Mode == Transactional || cfg.Mode == RT) && orig.HasTransaction()

	// The relational indicators and the RT check all consume one partition
	// of the QI columns: a relational run's, or an interning of RT's.
	var classes []privacy.Class
	if relSide {
		var cols [][]uint32
		var dicts []*dataset.Interner
		switch a := anon.(type) {
		case *dataset.Indexed:
			cols, dicts = a.Columns(qis)
		case *dataset.Dataset:
			cols, dicts = dataset.InternColumns(a, qis)
		}
		// An empty dataset prices no value, so it needs no hierarchies.
		n := anon.NumRecords()
		hh, err := cfg.Hierarchies.ForQIs(orig, qis)
		if err != nil && n > 0 {
			return ind, err
		}
		ind.GCP = metrics.GCPColumns(n, cols, dicts, hh)
		classes = privacy.PartitionColumns(n, cols, dicts)
		ind.Discernibility = metrics.DiscernibilityClasses(n, classes)
		ind.CAVG = metrics.CAVGClasses(classes, cfg.K)
		ind.SuppressionRatio = metrics.SuppressionRatioClasses(n, classes)
		ind.MinClassSize = privacy.MinClassLen(classes)
		ind.Classes = len(classes)
		ind.KAnonymous = privacy.ClassesKAnonymous(classes, cfg.K)
	}
	if transSide {
		anon := materialize(anon) // transaction and RT runs publish strings
		if cfg.ItemHierarchy != nil {
			if ind.TransactionGCP, err = metrics.TransactionGCP(orig, anon, cfg.ItemHierarchy); err != nil {
				return ind, err
			}
		}
		switch cfg.Mode {
		case RT:
			rep := privacy.CheckRTClasses(anon, classes, cfg.K, cfg.M)
			ind.KMAnonymous = rep.BadClasses == 0
			ind.KAnonymous = rep.KAnonymous
		default:
			ind.KMAnonymous = privacy.IsKMAnonymous(privacy.Transactions(anon, nil), cfg.K, cfg.M)
		}
	}
	if cfg.Workload != nil && cfg.Workload.Len() > 0 {
		are, err := query.ARE(cfg.Workload, orig, materialize(anon), cfg.Hierarchies, cfg.ItemHierarchy)
		if err != nil {
			return ind, err
		}
		ind.ARE = are
	}
	return ind, nil
}

// RunAll executes many configurations over the dataset using `workers`
// parallel anonymization module instances (the "N threads" of the paper's
// architecture; workers <= 0 means one per configuration, capped at the
// number of CPUs the runtime may use).
// Results are returned in input order; individual failures are recorded in
// Result.Err without failing the batch. It is a convenience facade over
// Scheduler for callers with no context or cache of their own.
func RunAll(ds *dataset.Dataset, cfgs []Config, workers int) []*Result {
	results, _ := NewScheduler(workers, nil).RunAll(context.Background(), NewInput(ds), cfgs)
	return results
}
