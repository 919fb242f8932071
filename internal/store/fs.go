package store

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"secreta/internal/faultfs"
)

// writeFileAtomic durably writes data to path: an fsync'd temp file in
// the same directory, renamed over the target, then the directory entry
// fsync'd. A crash at any point leaves either the old file or the new
// one, never a torn mix. Every byte flows through fsys, so tests can
// inject a fault at any step.
func writeFileAtomic(fsys faultfs.FS, path string, data []byte) error {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		discardTemp(fsys, tmp)
		return err
	}
	return commitTemp(fsys, tmp, path)
}

// commitTemp publishes a fully written temp file at dest, which must be
// in the same directory: fsync the file, close it, rename it over dest,
// then fsync the directory entry. If any step up to the rename fails, the
// temp file is removed and dest keeps its previous content.
func commitTemp(fsys faultfs.FS, tmp faultfs.File, dest string) error {
	if err := tmp.Sync(); err != nil {
		discardTemp(fsys, tmp)
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	if err := fsys.Rename(tmp.Name(), dest); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	return fsys.SyncDir(filepath.Dir(dest))
}

// discardTemp closes and removes an unpublished temp file.
func discardTemp(fsys faultfs.FS, tmp faultfs.File) {
	tmp.Close()
	fsys.Remove(tmp.Name())
}

// sweepTempFiles removes orphaned ".tmp-*" files from dir — the debris a
// crash between CreateTemp and Rename leaves behind. It reports how many
// were removed; listing or removal failures are logged and skipped, never
// fatal (an orphan costs disk space, not correctness).
func sweepTempFiles(fsys faultfs.FS, logger *slog.Logger, dir string) int {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		// A directory that does not exist yet (first boot) has no orphans.
		if !errors.Is(err, fs.ErrNotExist) {
			logger.Warn("store: orphan sweep: listing", "dir", dir, "error", err)
		}
		return 0
	}
	swept := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		p := filepath.Join(dir, e.Name())
		if err := fsys.Remove(p); err != nil {
			logger.Warn("store: orphan sweep: removing", "path", p, "error", err)
			continue
		}
		swept++
	}
	return swept
}

// validBlobName guards against path traversal and reserved names: blob
// names become file names verbatim (plus the store's extension), so they
// must be plain single-segment identifiers. Dataset fingerprints, job IDs
// and hashed cache keys all satisfy this.
func validBlobName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("store: invalid blob name %q", name)
	}
	if strings.ContainsAny(name, "/\\") || strings.ContainsRune(name, os.PathSeparator) {
		return fmt.Errorf("store: invalid blob name %q", name)
	}
	return nil
}
