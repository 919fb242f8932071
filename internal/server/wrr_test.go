package server

import (
	"fmt"
	"math/rand"
	"testing"
)

// Deterministic property tests for the smooth weighted round-robin
// picker behind job admission. Everything is seeded, so a failure
// reproduces exactly; the seeds are fixed rather than time-derived on
// purpose.

// allEligible accepts every id.
func allEligible(string) bool { return true }

// TestWRRProportionalityAllEligible pins the picker's core guarantee:
// over any window where every entry stays eligible, each entry is picked
// in proportion to its weight — exactly at rotation boundaries (one
// rotation = total-weight picks) and within one slot at every prefix.
func TestWRRProportionalityAllEligible(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(6)
		weights := make(map[string]int, n)
		total := 0
		for i := 0; i < n; i++ {
			w := 1 + rng.Intn(9)
			weights[fmt.Sprintf("t%02d", i)] = w
			total += w
		}
		p := newWRRPicker(weights)
		const rotations = 20
		counts := make(map[string]int, n)
		for pick := 1; pick <= rotations*total; pick++ {
			id, ok := p.pick(allEligible)
			if !ok {
				t.Fatalf("trial %d: pick %d returned no id with every entry eligible", trial, pick)
			}
			counts[id]++
			// Within-one-slot at every prefix: no tenant runs ahead of (or
			// behind) its proportional share by more than one pick.
			for tid, w := range weights {
				ideal := float64(pick) * float64(w) / float64(total)
				if diff := float64(counts[tid]) - ideal; diff > 1.000001 || diff < -1.000001 {
					t.Fatalf("trial %d: after %d picks tenant %s has %d picks, ideal %.2f (off by %.2f)",
						trial, pick, tid, counts[tid], ideal, diff)
				}
			}
			// Exact at rotation boundaries.
			if pick%total == 0 {
				rot := pick / total
				for tid, w := range weights {
					if counts[tid] != rot*w {
						t.Fatalf("trial %d: after %d rotations tenant %s (weight %d) has %d picks, want %d",
							trial, rot, tid, w, counts[tid], rot*w)
					}
				}
			}
		}
	}
}

// TestWRRDeterministicTieBreak pins that equal-weight entries rotate in
// sorted-id order, and that the sequence is a pure function of the
// weights (two pickers agree pick for pick).
func TestWRRDeterministicTieBreak(t *testing.T) {
	weights := map[string]int{"c": 1, "a": 1, "b": 1}
	p1, p2 := newWRRPicker(weights), newWRRPicker(weights)
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i, w := range want {
		g1, _ := p1.pick(allEligible)
		g2, _ := p2.pick(allEligible)
		if g1 != w || g2 != w {
			t.Fatalf("pick %d: got %q/%q, want %q (sorted-id rotation)", i, g1, g2, w)
		}
	}
}

// TestWRRRandomEligibilityNeverSkipsOrStarves drives the picker with
// seeded random eligibility sets and pins three safety properties: the
// pick is always a member of the eligible set, an empty set yields none,
// and no entry that stays continuously eligible goes unpicked for more
// than two full rotations' worth of picks.
func TestWRRRandomEligibilityNeverSkipsOrStarves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5
	weights := make(map[string]int, n)
	total := 0
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("t%d", i)
		weights[ids[i]] = 1 + rng.Intn(4)
		total += weights[ids[i]]
	}
	p := newWRRPicker(weights)
	// unpickedWhileEligible counts consecutive steps an id was offered as
	// eligible but not chosen; any ineligible step resets it.
	unpickedWhileEligible := make(map[string]int, n)
	for step := 0; step < 5000; step++ {
		eligible := make(map[string]bool, n)
		for _, id := range ids {
			if rng.Intn(3) > 0 { // eligible ~2/3 of the time
				eligible[id] = true
			}
		}
		got, ok := p.pick(func(id string) bool { return eligible[id] })
		if len(eligible) == 0 {
			if ok {
				t.Fatalf("step %d: picked %q from an empty eligible set", step, got)
			}
			continue
		}
		if !eligible[got] {
			t.Fatalf("step %d: picked %q which was not eligible (%v)", step, got, eligible)
		}
		for _, id := range ids {
			switch {
			case id == got:
				unpickedWhileEligible[id] = 0
			case eligible[id]:
				unpickedWhileEligible[id]++
				if unpickedWhileEligible[id] > 2*total {
					t.Fatalf("step %d: tenant %s eligible for %d consecutive picks without being chosen (total weight %d)",
						step, id, unpickedWhileEligible[id], total)
				}
			default:
				unpickedWhileEligible[id] = 0
			}
		}
	}
}

// TestWRRAddMidStream pins admission's recovered-tenant path: an id
// added after picks have happened (a journaled job whose tenant left the
// tenants file) joins the rotation at its weight and is not starved,
// while re-adding a known id is a no-op.
func TestWRRAddMidStream(t *testing.T) {
	p := newWRRPicker(map[string]int{"a": 2, "b": 1})
	for i := 0; i < 7; i++ {
		p.pick(allEligible)
	}
	p.add("a", 99) // known: must keep its configured weight
	p.add("z", 1)  // weight < 1 is lifted to 1 elsewhere; 1 stays 1
	counts := map[string]int{}
	const rotations = 12 // total weight is now 2+1+1 = 4
	for i := 0; i < rotations*4; i++ {
		id, _ := p.pick(allEligible)
		counts[id]++
	}
	// Mid-stream accumulator offsets can shift counts by at most one slot
	// from the exact per-rotation share.
	for id, w := range map[string]int{"a": 2, "b": 1, "z": 1} {
		want := rotations * w
		if counts[id] < want-1 || counts[id] > want+1 {
			t.Fatalf("tenant %s (weight %d): %d picks over %d rotations, want %d±1 (counts=%v)",
				id, w, counts[id], rotations, want, counts)
		}
	}
}
