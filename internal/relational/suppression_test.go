package relational

import (
	"slices"
	"testing"

	"secreta/internal/generalize"
	"secreta/internal/metrics"
	"secreta/internal/privacy"
)

func TestIncognitoSuppressionBudgetLowersGCP(t *testing.T) {
	ds, hs := smallData(t)
	qis, _ := ds.QIIndices(nil)
	k := 10
	plain, err := Incognito(ds, Options{K: k, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	withSupp, err := Incognito(ds, Options{K: k, Hierarchies: hs, MaxSuppression: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	gPlain, _ := metrics.GCP(plain.Anonymized.Materialize(), hs, qis)
	gSupp, _ := metrics.GCP(withSupp.Anonymized.Materialize(), hs, qis)
	// Suppression budget can only widen the candidate set, so the chosen
	// node's GCP (with suppression charged at full loss) never worsens.
	if gSupp > gPlain+1e-9 {
		t.Errorf("GCP with suppression %.4f > plain %.4f", gSupp, gPlain)
	}
	// The budget must be respected.
	suppressed := 0
	anon := withSupp.Anonymized.Materialize()
	for _, rec := range anon.Records {
		if !slices.ContainsFunc(qis, func(q int) bool { return rec.Values[q] != generalize.Suppressed }) {
			suppressed++
		}
	}
	if max := ds.Len() / 10; suppressed > max {
		t.Errorf("suppressed %d records, budget %d", suppressed, max)
	}
	// Remaining records are k-anonymous (suppressed ones are excluded by
	// the privacy checker).
	if !privacy.IsKAnonymous(anon, qis, k) {
		t.Error("unsuppressed part not k-anonymous")
	}
}

func TestIncognitoSuppressionValidation(t *testing.T) {
	ds, hs := smallData(t)
	if _, err := Incognito(ds, Options{K: 2, Hierarchies: hs, MaxSuppression: -0.1}); err == nil {
		t.Error("negative suppression accepted")
	}
	if _, err := Incognito(ds, Options{K: 2, Hierarchies: hs, MaxSuppression: 1.0}); err == nil {
		t.Error("suppression = 1 accepted")
	}
}

func TestIncognitoZeroBudgetMatchesPlain(t *testing.T) {
	ds, hs := smallData(t)
	qis, _ := ds.QIIndices(nil)
	a, err := Incognito(ds, Options{K: 5, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Incognito(ds, Options{K: 5, Hierarchies: hs, MaxSuppression: 0})
	if err != nil {
		t.Fatal(err)
	}
	ga, _ := metrics.GCP(a.Anonymized.Materialize(), hs, qis)
	gb, _ := metrics.GCP(b.Anonymized.Materialize(), hs, qis)
	if ga != gb {
		t.Errorf("explicit zero budget changed the result: %.4f vs %.4f", ga, gb)
	}
}

func TestSuppressionNeededMonotone(t *testing.T) {
	ds, hs := smallData(t)
	view, err := (&Options{K: 2, Hierarchies: hs}).validate(ds)
	if err != nil {
		t.Fatal(err)
	}
	hh := view.hh
	k := 8
	// Along any chain bottom -> top, suppressionNeeded must be
	// non-increasing (the monotonicity Incognito's prunings rely on).
	levels := make([]int, len(hh))
	prev := -1
	for step := 0; ; step++ {
		cur := suppressionNeeded(view.levelSizes(levels), k)
		if prev >= 0 && cur > prev {
			t.Fatalf("suppressionNeeded grew along generalization chain: %d -> %d at %v", prev, cur, levels)
		}
		prev = cur
		// Generalize the first attribute not yet at its root.
		advanced := false
		for i := range levels {
			if levels[i] < hh[i].Height() {
				levels[i]++
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
	}
	if prev != 0 {
		t.Errorf("top node still needs %d suppressions", prev)
	}
}
