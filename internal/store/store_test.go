package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"secreta/internal/dataset"
	"secreta/internal/faultfs"
)

func TestBlobDirRoundTrip(t *testing.T) {
	b, err := newBlobDir(faultfs.OS, newDiag(nil), filepath.Join(t.TempDir(), "blobs"), ".json")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("b", []byte("payload-b")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("a")
	if err != nil || string(got) != "payload-a" {
		t.Fatalf("Get a: %q, %v", got, err)
	}
	if _, err := b.Get("missing"); !errors.Is(err, ErrNoBlob) {
		t.Fatalf("missing blob: %v", err)
	}
	names, err := b.Names()
	if err != nil || len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names: %v, %v", names, err)
	}
	st := b.Stats()
	if st.Count != 2 || st.Bytes != int64(len("payload-a")+len("payload-b")) {
		t.Fatalf("Stats: %+v", st)
	}
	if err := b.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("a"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	if b.Has("a") || !b.Has("b") {
		t.Fatal("Has after delete wrong")
	}
}

func TestBlobDirRejectsTraversal(t *testing.T) {
	b, err := newBlobDir(faultfs.OS, newDiag(nil), t.TempDir(), ".json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", ".", "..", "a/b", `a\b`, "../escape"} {
		if err := b.Put(name, []byte("x")); err == nil {
			t.Fatalf("name %q accepted", name)
		}
	}
}

// TestBlobDirTrim pins the oldest-first drops on a directory two blob
// kinds share, the way results/ holds .json payloads next to .ndr
// streams, with temp-file debris in it: each kind lists, counts, orders
// and drops only its own committed blobs.
func TestBlobDirTrim(t *testing.T) {
	dir := t.TempDir()
	d := newDiag(nil)
	b, err := newBlobDir(faultfs.OS, d, dir, ".json")
	if err != nil {
		t.Fatal(err)
	}
	ndr, err := newBlobDir(faultfs.OS, d, dir, ".ndr")
	if err != nil {
		t.Fatal(err)
	}
	// Distinct mtimes without sleeping; "a" and "b" tie, so name order
	// breaks it. The sibling stream and the debris are older than all.
	now := time.Now()
	setAge := func(file string, hours int) {
		t.Helper()
		mt := now.Add(-time.Duration(hours) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, file), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	for _, blob := range []struct {
		name string
		age  int
	}{{"e", 5}, {"d", 4}, {"c", 3}, {"b", 2}, {"a", 2}} {
		if err := b.Put(blob.name, bytes.Repeat([]byte("x"), 10)); err != nil {
			t.Fatal(err)
		}
		setAge(blob.name+".json", blob.age)
	}
	if err := ndr.Put("e", []byte("stream")); err != nil {
		t.Fatal(err)
	}
	setAge("e.ndr", 9)
	debris := filepath.Join(dir, ".tmp-x.json")
	if err := os.WriteFile(debris, bytes.Repeat([]byte("t"), 100), 0o644); err != nil {
		t.Fatal(err)
	}
	setAge(".tmp-x.json", 9)

	if got := (&DatasetStore{blobs: b}).IDsByAge(); strings.Join(got, ",") != "e,d,c,a,b" {
		t.Fatalf("IDsByAge = %v, want oldest first, ties by name", got)
	}
	if names, err := b.Names(); err != nil || strings.Join(names, ",") != "a,b,c,d,e" {
		t.Fatalf("json Names = %v, %v", names, err)
	}
	if names, err := ndr.Names(); err != nil || strings.Join(names, ",") != "e" {
		t.Fatalf("ndr Names = %v, %v", names, err)
	}
	if st := b.Stats(); st != (BlobStats{Count: 5, Bytes: 50}) {
		t.Fatalf("json Stats = %+v", st)
	}
	if st := ndr.Stats(); st != (BlobStats{Count: 1, Bytes: int64(len("stream"))}) {
		t.Fatalf("ndr Stats = %+v", st)
	}

	removed, err := b.Trim(4, 0)
	if err != nil || removed != 1 || b.Has("e") {
		t.Fatalf("Trim entries: removed=%d err=%v, want the oldest blob gone", removed, err)
	}
	removed, err = b.Trim(0, 30)
	if err != nil || removed != 1 || b.Has("d") {
		t.Fatalf("Trim bytes: removed=%d err=%v, want the oldest blob gone", removed, err)
	}
	// Free is a budget, not a purge: 11 bytes take two 10-byte blobs.
	removed, err = b.Free(11)
	if err != nil || removed != 2 || b.Has("c") || b.Has("a") || !b.Has("b") {
		t.Fatalf("Free: removed=%d err=%v, want c and a gone, b kept", removed, err)
	}
	if !ndr.Has("e") {
		t.Fatal("a .json drop deleted the sibling .ndr stream")
	}
	removed, err = ndr.Free(1 << 40)
	if err != nil || removed != 1 || !b.Has("b") {
		t.Fatalf("ndr Free: removed=%d err=%v, want only the stream gone", removed, err)
	}
	if _, err := os.Stat(debris); err != nil {
		t.Fatalf("temp debris touched by a drop: %v", err)
	}
}

func sampleDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds := dataset.New([]dataset.Attribute{
		{Name: "Age", Kind: dataset.Numeric},
		{Name: "Sex", Kind: dataset.Categorical},
	}, "Items")
	for _, rec := range []dataset.Record{
		{Values: []string{"25", "M"}, Items: []string{"a", "b"}},
		{Values: []string{"30", "F"}, Items: []string{"b", "c"}},
	} {
		if err := ds.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestDatasetStoreRoundTripAndVerify(t *testing.T) {
	s, err := NewDatasetStore(filepath.Join(t.TempDir(), "datasets"))
	if err != nil {
		t.Fatal(err)
	}
	ds := sampleDataset(t)
	id := ds.Fingerprint()
	if err := s.Save(id, ds); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != id {
		t.Fatal("loaded dataset has different fingerprint")
	}
	list, err := s.List()
	if err != nil || len(list) != 1 {
		t.Fatalf("List: %v, %v", list, err)
	}
	if list[0].ID != id || list[0].Records != 2 || list[0].Attrs != 2 || list[0].Bytes != ds.ApproxBytes() {
		t.Fatalf("meta: %+v", list[0])
	}

	// Meta sidecar lost (crash between blob and meta writes): List
	// regenerates it from the blob.
	if err := s.metas.Delete(id); err != nil {
		t.Fatal(err)
	}
	list, err = s.List()
	if err != nil || len(list) != 1 || list[0].Records != 2 {
		t.Fatalf("List after meta loss: %v, %v", list, err)
	}
	if !s.metas.Has(id) {
		t.Fatal("List did not regenerate the meta sidecar")
	}

	// A corrupted blob must fail fingerprint verification, and List must
	// skip it rather than fail.
	blobPath := filepath.Join(s.blobs.Dir(), id+".json")
	data, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"25"`), []byte(`"26"`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatal("tamper patch missed")
	}
	if err := os.WriteFile(blobPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(id); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("tampered blob loaded: %v", err)
	}
	if err := s.metas.Delete(id); err != nil {
		t.Fatal(err)
	}
	list, err = s.List()
	if err != nil || len(list) != 0 {
		t.Fatalf("List with corrupt blob: %v, %v", list, err)
	}

	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(id); !errors.Is(err, ErrNoBlob) {
		t.Fatalf("Load after delete: %v", err)
	}
}

// TestDatasetMetaSidecarBytes pins the .meta sidecar's bytes: data
// directories written by earlier builds must still index without a
// decode of every blob.
func TestDatasetMetaSidecarBytes(t *testing.T) {
	s, err := NewDatasetStore(filepath.Join(t.TempDir(), "datasets"))
	if err != nil {
		t.Fatal(err)
	}
	ds := sampleDataset(t)
	id := ds.Fingerprint()
	if err := s.Save(id, ds); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(s.metas.Dir(), id+".meta"))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"dataset_ref":"9f3392d196645a01f42e53e81c5dfecb7b915df206125fe0b6c7b13be68fa4e0","attrs":2,"records":2,"bytes":501}`
	if string(got) != want {
		t.Fatalf("meta sidecar = %s\nwant            %s", got, want)
	}
}

func TestCacheStoreRoundTrip(t *testing.T) {
	c, err := newCacheStore(faultfs.OS, newDiag(nil), t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := "abc123/def456" // engine keys contain '/'
	if err := c.SaveResult(key, []byte("result")); err != nil {
		t.Fatal(err)
	}
	got, err := c.LoadResult(key)
	if err != nil || string(got) != "result" {
		t.Fatalf("LoadResult: %q, %v", got, err)
	}
	miss, err := c.LoadResult("nope")
	if err != nil || miss != nil {
		t.Fatalf("LoadResult miss: %q, %v", miss, err)
	}
}

func TestStoreOpenLayoutAndStats(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds := sampleDataset(t)
	id := ds.Fingerprint()
	if err := st.Datasets.Save(id, ds); err != nil {
		t.Fatal(err)
	}
	if err := st.Results.Put("j-000001", []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Journal.Submit(submitRec("j-000001", 1)); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Datasets.Count != 1 || stats.Results.Count != 1 || stats.Journal.Jobs != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over the same dir: everything still there.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Datasets.Load(id); err != nil {
		t.Fatal(err)
	}
	if got, err := st2.Results.Get("j-000001"); err != nil || string(got) != `{"ok":true}` {
		t.Fatalf("result blob: %q, %v", got, err)
	}
	if jobs := st2.Journal.Jobs(); len(jobs) != 1 || jobs[0].ID != "j-000001" {
		t.Fatalf("journal: %+v", jobs)
	}
}

func TestDumpJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Journal.Submit(submitRec("j-000001", 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Journal.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := st.Journal.Start("j-000001"); err != nil {
		t.Fatal(err)
	}
	if err := st.Journal.Finish("j-000001", "done", "", true); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DumpJournal(&buf, dir); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"snapshot: seq=1", "j-000001", "start", "finish", "-> done", "tail: clean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	st.Close()
}
