// Package experiment implements SECRETA's Experimentation Module: single-
// and varying-parameter execution. In varying-parameter execution the user
// picks one parameter (k, m or delta), its start/end values and step; the
// module runs the configuration once per value and assembles the utility
// indicators and runtimes into series ready for the Plotting Module. The
// Comparison mode runs several configurations over the same sweep. Paper
// (paper.go) is the table of experiments E1-E10 that reproduce the
// paper's figures on top of these runs.
package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/engine"
)

// Sweep describes a varying parameter: name, start/end values, and step.
type Sweep struct {
	Param string  // "k", "m" or "delta"
	Start float64 // first value (inclusive)
	End   float64 // last value (inclusive)
	Step  float64 // positive increment
}

// Validate checks the sweep definition.
func (s *Sweep) Validate() error {
	switch strings.ToLower(s.Param) {
	case "k", "m", "delta":
	default:
		return fmt.Errorf("experiment: unknown sweep parameter %q (want k, m or delta)", s.Param)
	}
	if s.Step <= 0 {
		return fmt.Errorf("experiment: sweep step must be positive, got %v", s.Step)
	}
	if s.End < s.Start {
		return fmt.Errorf("experiment: sweep end %v before start %v", s.End, s.Start)
	}
	if (s.End-s.Start)/s.Step > 10000 {
		return fmt.Errorf("experiment: sweep has more than 10000 points")
	}
	return nil
}

// Values enumerates the sweep points.
func (s *Sweep) Values() []float64 {
	var out []float64
	for v := s.Start; v <= s.End+1e-9; v += s.Step {
		out = append(out, v)
	}
	return out
}

// apply returns a copy of cfg with the sweep parameter set to v.
func (s *Sweep) apply(cfg engine.Config, v float64) engine.Config {
	switch strings.ToLower(s.Param) {
	case "k":
		cfg.K = int(v + 0.5)
	case "m":
		cfg.M = int(v + 0.5)
	case "delta":
		cfg.Delta = v
	}
	return cfg
}

// Point is one sweep measurement.
type Point struct {
	X          float64
	Indicators engine.Indicators
	Runtime    time.Duration
	Err        error
}

// Series is one configuration's measurements across the sweep.
type Series struct {
	Label  string
	Param  string
	Points []Point
}

// Failed counts the points that errored.
func (s *Series) Failed() int {
	n := 0
	for _, p := range s.Points {
		if p.Err != nil {
			n++
		}
	}
	return n
}

// Ys extracts one indicator across the series via the selector.
func (s *Series) Ys(sel func(engine.Indicators) float64) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = sel(p.Indicators)
	}
	return out
}

// Xs returns the sweep values.
func (s *Series) Xs() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.X
	}
	return out
}

// Runtimes returns per-point runtimes in seconds.
func (s *Series) Runtimes() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Runtime.Seconds()
	}
	return out
}

// VaryingRun executes the configuration once per sweep value using the
// engine's parallel workers and returns the assembled series.
func VaryingRun(ds *dataset.Dataset, base engine.Config, sweep Sweep, workers int) (*Series, error) {
	return VaryingRunCtx(context.Background(), ds, base, sweep, engine.NewScheduler(workers, nil))
}

// VaryingRunCtx is VaryingRun on an explicit scheduler: the sweep points
// run through its worker pool (and cache, when it has one) and respect
// context cancellation.
func VaryingRunCtx(ctx context.Context, ds *dataset.Dataset, base engine.Config, sweep Sweep, sched *engine.Scheduler) (*Series, error) {
	out, err := CompareCtx(ctx, ds, []engine.Config{base}, sweep, sched)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Compare runs several configurations over the same sweep — the Comparison
// mode's benchmark execution. Configurations are independent; failures stay
// per-point.
func Compare(ds *dataset.Dataset, bases []engine.Config, sweep Sweep, workers int) ([]*Series, error) {
	return CompareCtx(context.Background(), ds, bases, sweep, engine.NewScheduler(workers, nil))
}

// CompareCtx fans every (configuration, sweep value) pair out as one batch
// through the scheduler, so a wide comparison saturates the worker pool
// instead of running series after series. Point order within each series is
// preserved regardless of completion order.
func CompareCtx(ctx context.Context, ds *dataset.Dataset, bases []engine.Config, sweep Sweep, sched *engine.Scheduler) ([]*Series, error) {
	if len(bases) == 0 {
		return nil, fmt.Errorf("experiment: no configurations to compare")
	}
	if err := sweep.Validate(); err != nil {
		return nil, err
	}
	values := sweep.Values()
	cfgs := make([]engine.Config, 0, len(bases)*len(values))
	for _, base := range bases {
		for _, v := range values {
			cfgs = append(cfgs, sweep.apply(base, v))
		}
	}
	results, err := sched.RunAll(ctx, ds, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([]*Series, len(bases))
	for i, base := range bases {
		series := &Series{Label: base.DisplayLabel(), Param: sweep.Param}
		for j, v := range values {
			r := results[i*len(values)+j]
			p := Point{X: v, Runtime: r.Runtime, Err: r.Err}
			if r.Err == nil {
				p.Indicators = r.Indicators
			}
			series.Points = append(series.Points, p)
		}
		out[i] = series
	}
	return out, nil
}
