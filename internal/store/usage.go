package store

import "path/filepath"

// Disk-usage accounting and eviction-ordering helpers for the retention
// sweeper (the server's GC): the sweeper needs a fresh byte total for the
// whole data directory (the cached Stats walk is deliberately stale) and
// an oldest-first ordering over the evictable blob populations.

// layoutDirs lists every directory of the data-dir layout rooted at dir:
// the root (probe and temp debris) plus each sub-store. Open sweeps temp
// debris from each; DiskUsage sums them.
func layoutDirs(dir string) []string {
	return []string{
		dir,
		filepath.Join(dir, "datasets"),
		filepath.Join(dir, "results"),
		filepath.Join(dir, "traces"),
		filepath.Join(dir, "cache"),
		filepath.Join(dir, "journal"),
	}
}

// DiskUsage walks the data directory and returns the total bytes of
// every regular file in it — blobs, sidecars, chunk files, the WAL and
// snapshot, and any atomic-write temp files still in flight. This is the
// figure -data-max-bytes caps. The walk is uncached (unlike Stats) so
// the GC sweeper always acts on current occupancy; unreadable entries
// are skipped, matching the advisory Stats convention.
func (s *Store) DiskUsage() int64 {
	var total int64
	for _, dir := range layoutDirs(s.Dir) {
		entries, err := s.fsys.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			info, err := e.Info()
			if err != nil {
				continue
			}
			total += info.Size()
		}
	}
	return total
}

// IDsByAge lists the stored dataset IDs oldest-first by blob modification
// time, ties broken by ID — the eviction order the GC sweeper walks when
// unreferenced dataset blobs must go. Listing failures are counted as
// trim errors and answer an empty slice rather than wedging the sweep.
func (d *DatasetStore) IDsByAge() []string {
	files, err := d.blobs.scan()
	if err != nil {
		d.blobs.diag.trimError(d.blobs.dir, err)
		return nil
	}
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.name
	}
	return out
}
