package privacy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomGroup draws n baskets as ascending distinct IDs from pool, with
// empty baskets and repeated baskets mixed in.
func randomGroup(rng *rand.Rand, n, maxLen int, pool []uint32) [][]uint32 {
	out := make([][]uint32, 0, n)
	for len(out) < n {
		switch r := rng.Intn(10); {
		case r == 0:
			out = append(out, nil)
		case r == 1 && len(out) > 0:
			out = append(out, out[rng.Intn(len(out))])
		default:
			l := rng.Intn(maxLen + 1)
			seen := map[uint32]bool{}
			var tx []uint32
			for len(tx) < l && len(seen) < len(pool) {
				id := pool[rng.Intn(len(pool))]
				if !seen[id] {
					seen[id] = true
					tx = append(tx, id)
				}
			}
			slices.Sort(tx)
			out = append(out, tx)
		}
	}
	return out
}

// sameTable fails unless got holds exactly the keys, supports and
// violation count of want.
func sameTable(t *testing.T, got, want *KMTable) {
	t.Helper()
	if got.viol != want.viol || len(got.levels) != len(want.levels) {
		t.Fatalf("table viol %d over %d sizes, want %d over %d", got.viol, len(got.levels), want.viol, len(want.levels))
	}
	for s := range want.levels {
		g, w := got.levels[s], want.levels[s]
		if !slices.Equal(g.keys, w.keys) || !slices.Equal(g.wide, w.wide) || !slices.Equal(g.counts, w.counts) {
			t.Fatalf("size %d: keys %v%q counts %v, want %v%q counts %v", s+1, g.keys, g.wide, g.counts, w.keys, w.wide, w.counts)
		}
	}
}

// TestKMTableMatchesCounter pins the support tables to KMCounter, the
// counting definition they replace in merge scoring: a table's own count,
// the merged count of two tables, and the table folded from several
// groups all equal the counter's result over the same transactions, for
// m = 1..4 and k = 1..6. Domains include one above 2^16 item IDs, where
// size-4 itemsets no longer pack into one uint64.
func TestKMTableMatchesCounter(t *testing.T) {
	bigPool := []uint32{0, 1, 2, 65535, 65536, 65537, 70000, 70001, 70002, 70003}
	domains := []struct {
		name   string
		size   int
		pool   []uint32
		maxLen int
	}{
		{"tiny", 4, []uint32{0, 1, 2, 3}, 4},
		{"small", 12, nil, 6},
		{"above2^16", 70004, bigPool, 6},
	}
	for _, d := range domains {
		pool := d.pool
		if pool == nil {
			for id := 0; id < d.size; id++ {
				pool = append(pool, uint32(id))
			}
		}
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			groups := make([][][]uint32, 3)
			var all [][]uint32
			for g := range groups {
				groups[g] = randomGroup(rng, rng.Intn(12), d.maxLen, pool)
				all = append(all, groups[g]...)
			}
			v := &TxView{Vals: make([]string, d.size), Txs: all}
			counter := NewKMCounter(v)
			for k := 1; k <= 6; k++ {
				for m := 1; m <= 4; m++ {
					t.Run(fmt.Sprintf("%s/seed%d/k%d/m%d", d.name, seed, k, m), func(t *testing.T) {
						a := NewKMTableArena(v, k, m)
						tables := make([]KMTable, len(groups))
						for g, txs := range groups {
							tables[g] = a.Build(txs)
							if got, want := tables[g].Violations(), counter.Count(k, m, 0, txs); got != want {
								t.Fatalf("group %d: own count %d, counter %d", g, got, want)
							}
						}
						if got, want := a.MergedViolations(&tables[0], &tables[1]), counter.Count(k, m, 0, groups[0], groups[1]); got != want {
							t.Fatalf("merged count %d, counter %d", got, want)
						}
						a.Fold(&tables[0], &tables[1])
						if got, want := a.MergedViolations(&tables[0], &tables[2]), counter.Count(k, m, 0, groups...); got != want {
							t.Fatalf("merged count after a fold %d, counter %d", got, want)
						}
						a.Fold(&tables[0], &tables[2])
						if got, want := tables[0].Violations(), counter.Count(k, m, 0, groups...); got != want {
							t.Fatalf("folded count %d, counter %d", got, want)
						}
						whole := a.Build(all)
						sameTable(t, &tables[0], &whole)
					})
				}
			}
		}
	}
}
