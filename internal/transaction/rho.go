package transaction

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"secreta/internal/dataset"
	"secreta/internal/privacy"
	"secreta/internal/timing"
)

// RhoUncertainty implements the suppression-based variant of
// rho-uncertainty (Cao et al., PVLDB 2010) — the algorithm the SECRETA
// paper names as its planned extension. The item domain is split into
// public and sensitive items (Options.Sensitive); the output guarantees
// that no sensitive association rule q -> s, where q is a set of up to
// Options.M public items (including the empty set) and s a sensitive item,
// holds with confidence above rho:
//
//	support(q union {s}) / support(q) <= rho   whenever support(q∪{s}) > 0
//
// The algorithm repeatedly finds the violating rule with the highest
// confidence and suppresses the globally cheapest participating item —
// the item involved in the most violations, with ties broken toward lower
// support — until no violation remains. Suppression is global (the item
// disappears from every transaction), which preserves truthfulness.
func RhoUncertainty(ds *dataset.Dataset, opts Options) (*Result, error) {
	sw := timing.Start()
	if opts.Rho <= 0 || opts.Rho >= 1 {
		return nil, fmt.Errorf("transaction: rho must be in (0,1), got %v", opts.Rho)
	}
	if opts.M < 0 {
		return nil, fmt.Errorf("transaction: m must be >= 0, got %d", opts.M)
	}
	if !ds.HasTransaction() {
		return nil, fmt.Errorf("transaction: dataset has no transaction attribute")
	}
	if len(opts.Sensitive) == 0 {
		return nil, fmt.Errorf("transaction: rho-uncertainty needs at least one sensitive item")
	}
	sensitive := make(map[string]bool, len(opts.Sensitive))
	for _, s := range opts.Sensitive {
		sensitive[s] = true
	}
	suppressed := make(map[string]bool)
	sw.Mark("setup")

	for iter := 0; ; iter++ {
		if err := opts.interrupted(); err != nil {
			return nil, err
		}
		if iter > 10*len(ds.ItemDomain())+10 {
			return nil, fmt.Errorf("transaction: rho-uncertainty did not converge")
		}
		viols := rhoViolations(ds, sensitive, suppressed, opts.Rho, opts.M)
		if len(viols) == 0 {
			break
		}
		// Count how many violations each live item participates in.
		count := make(map[string]int)
		for _, v := range viols {
			for _, it := range v.items {
				count[it]++
			}
		}
		support := itemSupport(ds, suppressed)
		victim := ""
		for it, c := range count {
			if victim == "" ||
				c > count[victim] ||
				(c == count[victim] && (support[it] < support[victim] ||
					(support[it] == support[victim] && it < victim))) {
				victim = it
			}
		}
		suppressed[victim] = true
	}
	sw.Mark("suppress")

	mapping := make(map[string]string)
	groups := newGroupTable(ds.ItemDomain())
	for it := range suppressed {
		mapping[it] = ""
		groups.suppress(it)
	}
	items, dict := groups.publish(recordRanks(ds, groups))
	sw.Mark("recode")
	return &Result{
		Items:      items,
		ItemDict:   dict,
		Phases:     sw.Phases(),
		Mapping:    mapping,
		Suppressed: groups.suppressed(),
	}, nil
}

type rhoViolation struct {
	items      []string // antecedent + sensitive item
	confidence float64
}

// rhoViolations enumerates all violated sensitive rules with antecedents
// of size 0..m over the live (unsuppressed) items. Supports are keyed on
// item IDs — an antecedent packs its IDs four bytes each — so no item
// name can be mistaken for a separator.
func rhoViolations(ds *dataset.Dataset, sensitive, suppressed map[string]bool, rho float64, m int) []rhoViolation {
	if m < 0 {
		return nil // no antecedent sizes to check
	}
	type ruleKey struct {
		q string // antecedent item IDs, four big-endian bytes each
		s uint32 // sensitive item ID
	}
	dict := dataset.NewInterner()
	n := 0
	supAll := make(map[ruleKey]int) // rule q -> s -> support of q ∪ {s}
	supPub := make(map[string]int)  // public antecedent -> support
	var pub, sens []uint32
	for r := range ds.Records {
		// Baskets are name-sorted, so one item set always packs to the
		// same key.
		pub, sens = pub[:0], sens[:0]
		for _, it := range ds.Records[r].Items {
			switch {
			case suppressed[it]:
			case sensitive[it]:
				sens = append(sens, dict.Intern(it))
			default:
				pub = append(pub, dict.Intern(it))
			}
		}
		if len(pub)+len(sens) == 0 {
			continue
		}
		n++
		for _, s := range sens {
			supAll[ruleKey{s: s}]++
		}
		for size := 1; size <= m; size++ {
			privacy.ForEachSubset(pub, size, func(q []uint32) {
				key := packIDs(q)
				supPub[key]++
				for _, s := range sens {
					supAll[ruleKey{key, s}]++
				}
			})
		}
	}
	if n == 0 {
		return nil
	}
	supPub[""] = n
	var out []rhoViolation
	for key, supQS := range supAll {
		supQ := supPub[key.q]
		if supQ == 0 {
			continue
		}
		conf := float64(supQS) / float64(supQ)
		if conf > rho {
			var items []string
			for i := 0; i < len(key.q); i += 4 {
				items = append(items, dict.Value(binary.BigEndian.Uint32([]byte(key.q[i:]))))
			}
			items = append(items, dict.Value(key.s))
			out = append(out, rhoViolation{items: items, confidence: conf})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].confidence != out[j].confidence {
			return out[i].confidence > out[j].confidence
		}
		return strings.Join(out[i].items, ",") < strings.Join(out[j].items, ",")
	})
	return out
}

// packIDs packs item IDs four big-endian bytes each.
func packIDs(ids []uint32) string {
	buf := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint32(buf, id)
	}
	return string(buf)
}

func itemSupport(ds *dataset.Dataset, suppressed map[string]bool) map[string]int {
	out := make(map[string]int)
	for r := range ds.Records {
		for _, it := range ds.Records[r].Items {
			if !suppressed[it] {
				out[it]++
			}
		}
	}
	return out
}

// IsRhoUncertain verifies the rho-uncertainty guarantee on a dataset.
func IsRhoUncertain(ds *dataset.Dataset, sensitive []string, rho float64, m int) bool {
	sens := make(map[string]bool, len(sensitive))
	for _, s := range sensitive {
		sens[s] = true
	}
	return len(rhoViolations(ds, sens, map[string]bool{}, rho, m)) == 0
}
