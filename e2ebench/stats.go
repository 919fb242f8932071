package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPct is the percentile job_tail_ms reports. A window holds a few
// hundred jobs or more, so 5% of them lie beyond it: a handful of
// outliers from outside the process cannot move it.
const tailPct = 95

// percentile returns the nearest-rank p-th percentile of xs (the smallest
// value with at least p% of the samples at or below it), or 0 for an empty
// slice. xs is not modified.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[nearestRank(p, len(xs))-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples, or
// 0 for none.
func nearestRank(p, n int) int {
	if n == 0 {
		return 0
	}
	return max((p*n+99)/100, 1)
}

// interval is a closed-open time range in nanoseconds.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 {
	if iv.end < iv.start {
		return 0
	}
	return iv.end - iv.start
}

// covered measures the union of the intervals clipped to within, so
// overlapping or nested intervals are counted once.
func covered(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, within.start), min(iv.end, within.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.dur()
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// span is one node of a job's span tree: the benchmark's own client spans
// with the server's job trace grafted underneath, all on one clock.
type span struct {
	name     string
	iv       interval
	children []*span
}

// self is the span's duration minus the part of it its children cover.
func (s *span) self() int64 {
	ivs := make([]interval, len(s.children))
	for i, c := range s.children {
		ivs[i] = c.iv
	}
	return s.iv.dur() - covered(s.iv, ivs)
}

// walk visits s and every descendant, parents first.
func (s *span) walk(fn func(sp, parent *span)) {
	var rec func(sp, parent *span)
	rec = func(sp, parent *span) {
		fn(sp, parent)
		for _, c := range sp.children {
			rec(c, sp)
		}
	}
	rec(s, nil)
}

// ledger counts operations — HTTP calls, jobs and output checks — and
// those that failed or were refused.
type ledger struct {
	attempted, failed int64
}

// record counts one operation; ok false marks it failed.
func (l *ledger) record(ok bool) {
	l.attempted++
	if !ok {
		l.failed++
	}
}

// httpOK reports whether a response status counts as a success: anything
// the server refused (4xx) or failed (5xx) is a failure, and so is a
// transport error (status 0).
func httpOK(status int) bool { return status >= 200 && status < 400 }

func (l *ledger) add(o ledger) {
	l.attempted += o.attempted
	l.failed += o.failed
}

// failFrac is failed over attempted operations (0 when nothing ran).
func (l ledger) failFrac() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}
