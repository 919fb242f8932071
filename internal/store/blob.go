package store

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"secreta/internal/faultfs"
)

// ErrNoBlob is returned by BlobDir.Get when no blob with the given name
// exists.
var ErrNoBlob = errors.New("store: no such blob")

// BlobDir is one flat directory of named blob files with atomic, fsync'd
// writes. Names are single-segment identifiers (fingerprints, job IDs);
// the BlobDir appends its extension. Safe for concurrent use — atomicity
// comes from the filesystem (temp file + rename), not a lock, so readers
// always see either the old or the new content of a blob, never a torn
// write.
type BlobDir struct {
	fsys faultfs.FS
	diag *diag
	dir  string
	ext  string
}

// newBlobDir creates dir if needed and returns a BlobDir whose files all
// carry ext (e.g. ".json"), over the filesystem seam and diagnostics
// Store.Open shares across its sub-stores.
func newBlobDir(fsys faultfs.FS, d *diag, dir, ext string) (*BlobDir, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating blob dir: %w", err)
	}
	return &BlobDir{fsys: fsys, diag: d, dir: dir, ext: ext}, nil
}

// Dir returns the directory path.
func (b *BlobDir) Dir() string { return b.dir }

func (b *BlobDir) path(name string) (string, error) {
	if err := validBlobName(name); err != nil {
		return "", err
	}
	return filepath.Join(b.dir, name+b.ext), nil
}

// Put durably writes data under name, replacing any previous blob.
func (b *BlobDir) Put(name string, data []byte) error {
	p, err := b.path(name)
	if err != nil {
		return err
	}
	return writeFileAtomic(b.fsys, p, data)
}

// Get reads the blob under name; a missing blob answers ErrNoBlob.
func (b *BlobDir) Get(name string) ([]byte, error) {
	p, err := b.path(name)
	if err != nil {
		return nil, err
	}
	data, err := b.fsys.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNoBlob, name)
	}
	return data, err
}

// Has reports whether a blob named name exists.
func (b *BlobDir) Has(name string) bool {
	p, err := b.path(name)
	if err != nil {
		return false
	}
	_, err = b.fsys.Stat(p)
	return err == nil
}

// Delete removes the blob under name. Deleting a missing blob is a no-op:
// the postcondition already holds.
func (b *BlobDir) Delete(name string) error {
	p, err := b.path(name)
	if err != nil {
		return err
	}
	if err := b.fsys.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// blobFile is one committed blob as scan sees it.
type blobFile struct {
	name  string
	size  int64
	mtime int64
}

// scan lists the committed blobs oldest-first by modification time, ties
// broken by name. Temp-file debris (".tmp-*"), subdirectories and files
// with another extension — a sibling store sharing the directory — are
// skipped, as are entries that vanish mid-walk. Every listing, stat and
// oldest-first drop over a blob directory is built on this one walk.
func (b *BlobDir) scan() ([]blobFile, error) {
	entries, err := b.fsys.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var files []blobFile
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), b.ext)
		if e.IsDir() || !ok || name == "" || strings.HasPrefix(name, ".tmp-") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, blobFile{name, info.Size(), info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].name < files[j].name
	})
	return files, nil
}

// Names lists the resident blob names, sorted.
func (b *BlobDir) Names() ([]string, error) {
	files, err := b.scan()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.name
	}
	sort.Strings(out)
	return out, nil
}

// Stats sums blob count and bytes. An unreadable directory answers zero —
// stats are advisory, not transactional.
func (b *BlobDir) Stats() BlobStats {
	files, _ := b.scan()
	s := BlobStats{Count: len(files)}
	for _, f := range files {
		s.Bytes += f.size
	}
	return s
}

// Trim deletes the oldest blobs (by modification time) until the
// directory fits maxEntries entries and maxBytes total size; a cap <= 0
// is unbounded. It reports how many blobs were removed.
func (b *BlobDir) Trim(maxEntries int, maxBytes int64) (removed int, err error) {
	if maxEntries <= 0 && maxBytes <= 0 {
		return 0, nil
	}
	return b.dropOldest(func(kept int, left, _ int64) bool {
		return (maxEntries > 0 && kept > maxEntries) || (maxBytes > 0 && left > maxBytes)
	})
}

// Free deletes the oldest blobs (by modification time) until at least
// need bytes are gone, or the directory is empty. It reports how many
// blobs were removed.
func (b *BlobDir) Free(need int64) (removed int, err error) {
	if need <= 0 {
		return 0, nil
	}
	return b.dropOldest(func(_ int, _, freed int64) bool { return freed < need })
}

// dropOldest deletes blobs oldest-first while over(kept, left, freed)
// holds, where kept and left are the blobs and bytes still resident and
// freed the bytes deleted so far. It is best-effort — concurrent writers
// may briefly overshoot the budget, and a blob that fails to delete is
// counted (trim_errors on /stats), logged at WARN, and skipped rather than
// aborting the pass: one undeletable file must not shield every younger
// entry from the budget.
func (b *BlobDir) dropOldest(over func(kept int, left, freed int64) bool) (removed int, err error) {
	files, err := b.scan()
	if err != nil {
		b.diag.trimError(b.dir, err)
		return 0, err
	}
	kept, left, freed := len(files), int64(0), int64(0)
	for _, f := range files {
		left += f.size
	}
	for _, f := range files {
		if !over(kept, left, freed) {
			break
		}
		if err := b.fsys.Remove(filepath.Join(b.dir, f.name+b.ext)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			b.diag.trimError(b.dir, err)
			continue
		}
		removed++
		kept--
		left -= f.size
		freed += f.size
	}
	return removed, nil
}
