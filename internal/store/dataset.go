package store

import (
	"bytes"
	"encoding/json"
	"fmt"

	"secreta/internal/dataset"
	"secreta/internal/faultfs"
)

// DatasetStore persists registry datasets as content-addressed blobs:
// <fingerprint>.json holds the dataset in the same JSON format the HTTP
// API speaks, <fingerprint>.meta its dataset.Meta sidecar. Load verifies that the
// decoded dataset's fingerprint matches its file name, so a corrupt or
// tampered blob can never impersonate a dataset_ref. It is the durable
// registry.Backing.
type DatasetStore struct {
	blobs *BlobDir
	metas *BlobDir
}

// NewDatasetStore creates dir if needed.
func NewDatasetStore(dir string) (*DatasetStore, error) {
	return newDatasetStore(faultfs.OS, newDiag(nil), dir)
}

// newDatasetStore is NewDatasetStore over an explicit filesystem seam and
// shared diagnostics — the constructor Store.Open wires.
func newDatasetStore(fsys faultfs.FS, d *diag, dir string) (*DatasetStore, error) {
	blobs, err := newBlobDir(fsys, d, dir, ".json")
	if err != nil {
		return nil, err
	}
	metas, err := newBlobDir(fsys, d, dir, ".meta")
	if err != nil {
		return nil, err
	}
	return &DatasetStore{blobs: blobs, metas: metas}, nil
}

// Save durably writes ds under id (its content fingerprint). The blob is
// written before the meta sidecar, so a crash between the two leaves a
// valid blob whose meta List regenerates.
func (s *DatasetStore) Save(id string, ds *dataset.Dataset) error {
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return fmt.Errorf("store: encoding dataset %q: %w", id, err)
	}
	if err := s.blobs.Put(id, buf.Bytes()); err != nil {
		return err
	}
	return s.writeMeta(ds.Meta(id))
}

func (s *DatasetStore) writeMeta(meta dataset.Meta) error {
	data, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("store: encoding dataset meta %q: %w", meta.ID, err)
	}
	return s.metas.Put(meta.ID, data)
}

// Load reads and decodes the dataset under id, verifying its content
// fingerprint against the name it was stored under.
func (s *DatasetStore) Load(id string) (*dataset.Dataset, error) {
	data, err := s.blobs.Get(id)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("store: decoding dataset %q: %w", id, err)
	}
	if got := ds.Fingerprint(); got != id {
		return nil, fmt.Errorf("store: dataset blob %q is corrupt: content fingerprint is %q", id, got)
	}
	return ds, nil
}

// Delete removes the blob and its meta sidecar; missing files are fine.
// A blob that fails to delete counts as a trim error (trim_errors on
// /stats) — the retention sweeper skips stuck files rather than wedging,
// and the counter is how an operator notices them.
func (s *DatasetStore) Delete(id string) error {
	if err := s.blobs.Delete(id); err != nil {
		s.blobs.diag.trimError(s.blobs.dir, err)
		return err
	}
	return s.metas.Delete(id)
}

// List describes every stored dataset. A blob whose meta sidecar is
// missing (crash between the two writes, or an older layout) is decoded
// once to regenerate it; a blob that fails to decode is skipped — one
// corrupt upload must not take the whole index down.
func (s *DatasetStore) List() ([]dataset.Meta, error) {
	names, err := s.blobs.Names()
	if err != nil {
		return nil, err
	}
	out := make([]dataset.Meta, 0, len(names))
	for _, id := range names {
		if data, err := s.metas.Get(id); err == nil {
			var meta dataset.Meta
			if json.Unmarshal(data, &meta) == nil && meta.ID == id {
				out = append(out, meta)
				continue
			}
		}
		ds, err := s.Load(id)
		if err != nil {
			continue
		}
		// Rewriting the sidecar is an optimization for the next List; a
		// failure (read-only disk) must not veto the index — we already
		// have the meta in hand.
		meta := ds.Meta(id)
		_ = s.writeMeta(meta)
		out = append(out, meta)
	}
	return out, nil
}

// Stats reports blob-file occupancy (disk bytes, not ApproxBytes).
func (s *DatasetStore) Stats() BlobStats { return s.blobs.Stats() }
