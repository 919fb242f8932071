package engine

import (
	"sync"
	"sync/atomic"

	"secreta/internal/dataset"
)

// Input is a dataset together with the state every configuration run over
// it derives from it and none may change: today, its columnar interning
// (dataset.Intern). Whoever runs configurations supplies one. A batch's
// workers share it, so they intern the dataset once between them rather
// than once per configuration — identical work whose allocation traffic
// once serialized the pool behind the garbage collector. secreta-serve
// keeps one per resident registry dataset, so every job over that dataset,
// and every result those jobs retain, shares one interning.
//
// The interning is built lazily on first use, so transaction-only runs
// never pay for it, and behind a sync.Once, so concurrent runs racing
// into their first relational or RT dispatch share one build. Algorithms
// read it and never write to it.
type Input struct {
	ds    *dataset.Dataset
	once  sync.Once
	ix    *dataset.Indexed
	bytes atomic.Int64 // ix.ResidentBytes(), once built
}

// NewInput wraps ds, which must not change while the Input is in use.
func NewInput(ds *dataset.Dataset) *Input {
	return &Input{ds: ds}
}

// Dataset returns the wrapped dataset.
func (in *Input) Dataset() *dataset.Dataset { return in.ds }

// Indexed returns the shared columnar interning, building it on first
// call. The result is immutable and safe to hand to any number of
// concurrent algorithm runs.
func (in *Input) Indexed() *dataset.Indexed {
	in.once.Do(func() {
		in.ix = dataset.Intern(in.ds)
		in.bytes.Store(in.ix.ResidentBytes())
	})
	return in.ix
}

// ApproxBytes estimates the memory the Input holds beyond the dataset
// itself: the interning once built, 0 before.
func (in *Input) ApproxBytes() int64 { return in.bytes.Load() }
