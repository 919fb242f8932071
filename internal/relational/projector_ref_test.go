package relational

import (
	"secreta/internal/dataset"
	"secreta/internal/hierarchy"
)

// This file preserves the string-memo projectors BottomUp, TopDown and
// Incognito counted equivalence classes with before they moved onto the
// interned QI view, as a test-only reference: every record's QI values are
// translated through a per-column string memo and packed into a byte key,
// and a map keyed by those bytes tallies the classes. The differential
// test and the fuzz target require the view's class sizes to agree with
// refClassCounts on every level vector and cut they try.

// refProjector maps a record index to a packed, injective key of its
// (generalized) QI signature. The returned slice is reused across calls.
type refProjector func(r int) []byte

// refColumnMemo interns one column's value -> generalized-value
// translations to dense IDs.
type refColumnMemo struct {
	ids  map[string]uint32 // original value -> dense generalized ID
	gids map[string]uint32 // generalized value -> dense ID (dedup across originals)
}

func newRefColumnMemo() *refColumnMemo {
	return &refColumnMemo{ids: make(map[string]uint32), gids: make(map[string]uint32)}
}

// id resolves an original value through translate, memoized.
func (m *refColumnMemo) id(v string, translate func(string) string) uint32 {
	if id, ok := m.ids[v]; ok {
		return id
	}
	g := translate(v)
	id, ok := m.gids[g]
	if !ok {
		id = uint32(len(m.gids))
		m.gids[g] = id
	}
	m.ids[v] = id
	return id
}

// refKeyProjector assembles a projector from per-column translators.
func refKeyProjector(ds *dataset.Dataset, qis []int, translate []func(string) string) refProjector {
	memos := make([]*refColumnMemo, len(qis))
	for i := range memos {
		memos[i] = newRefColumnMemo()
	}
	buf := make([]byte, 4*len(qis))
	return func(r int) []byte {
		for i, q := range qis {
			id := memos[i].id(ds.Records[r].Values[q], translate[i])
			buf[4*i] = byte(id >> 24)
			buf[4*i+1] = byte(id >> 16)
			buf[4*i+2] = byte(id >> 8)
			buf[4*i+3] = byte(id)
		}
		return buf
	}
}

// refLevelProjector generalizes each QI to the given level.
func refLevelProjector(ds *dataset.Dataset, qis []int, hh []*hierarchy.Hierarchy, levels []int) refProjector {
	translate := make([]func(string) string, len(qis))
	for i := range qis {
		h, lvl := hh[i], levels[i]
		translate[i] = func(v string) string {
			g, err := h.GeneralizeLevels(v, lvl)
			if err != nil {
				return v
			}
			return g
		}
	}
	return refKeyProjector(ds, qis, translate)
}

// refCutProjector maps each QI through its cut.
func refCutProjector(ds *dataset.Dataset, qis []int, cuts []*hierarchy.Cut) refProjector {
	translate := make([]func(string) string, len(qis))
	for i := range qis {
		c := cuts[i]
		translate[i] = func(v string) string {
			g, err := c.Map(v)
			if err != nil {
				return v
			}
			return g
		}
	}
	return refKeyProjector(ds, qis, translate)
}

// refClassCounts tallies equivalence-class sizes under the projector, in
// first-seen order.
func refClassCounts(n int, proj refProjector) []int {
	index := make(map[string]int)
	var counts []int
	for r := 0; r < n; r++ {
		key := proj(r)
		if i, ok := index[string(key)]; ok {
			counts[i]++
		} else {
			index[string(key)] = len(counts)
			counts = append(counts, 1)
		}
	}
	return counts
}
