package engine

import (
	"reflect"
	"testing"

	"secreta/internal/dataset"
	"secreta/internal/gen"
)

// TestResultRecordsReplayable pins the engine half of streaming delivery:
// a successful run carries a replayable record iterator that yields
// exactly the anonymized dataset's records, twice in a row.
func TestResultRecordsReplayable(t *testing.T) {
	ds := gen.Census(gen.Config{Records: 60, Items: 6, Seed: 3})
	cfg, err := ConfigFromSpec("cluster+apriori/rmerger")
	if err != nil {
		t.Fatal(err)
	}
	cfg.K, cfg.M, cfg.Delta = 3, 2, 0.5
	if cfg.Hierarchies, err = gen.Hierarchies(ds, 3); err != nil {
		t.Fatal(err)
	}
	if cfg.ItemHierarchy, err = gen.ItemHierarchy(ds, 2); err != nil {
		t.Fatal(err)
	}
	res := Run(ds, cfg)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Records == nil {
		t.Fatal("successful run carries no record iterator")
	}
	scan := func() []dataset.Record {
		var out []dataset.Record
		res.Records.ScanRecords(func(i int, rec dataset.Record) bool {
			out = append(out, rec.Clone())
			return true
		})
		return out
	}
	first, second := scan(), scan()
	anon := res.Anonymized()
	if !reflect.DeepEqual(first, anon.Records) {
		t.Fatal("record iterator diverges from Anonymized().Records")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("record iterator is not replayable")
	}
	if n := res.Records.N; n != len(anon.Records) {
		t.Fatalf("N = %d, want %d", n, len(anon.Records))
	}
}
