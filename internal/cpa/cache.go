package cpa

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"syscall"
)

// This file persists the Analyzer's memo table (task-set digest -> WCRT
// results) across process restarts. A fleet session that warm-starts from
// the previous session's cache answers the timing acceptance test of
// every already-seen task set with a map lookup instead of re-running the
// busy-window fixed point. The cache is a pure performance artifact:
// losing it (missing file, version bump, eviction) only costs re-analysis,
// never correctness, because entries are keyed by the full task-set
// digest.

// cacheFileVersion guards the on-disk format. Bump it whenever the digest
// scheme or the Result layout changes; LoadCache rejects mismatched files
// so a stale cache can never alias fresh digests.
const cacheFileVersion = 1

// cacheFile is the serialized memo table.
type cacheFile struct {
	Version int
	Entries map[uint64][]Result
}

// SaveCache writes the analyzer's memo table to w (gob-encoded, with a
// format version header). Safe for concurrent use with ongoing analyses.
func SaveCache(a *Analyzer, w io.Writer) error {
	a.mu.Lock()
	entries := make(map[uint64][]Result, len(a.cache))
	for k, v := range a.cache {
		entries[k] = v // result slices are immutable once cached
	}
	a.mu.Unlock()
	if err := gob.NewEncoder(w).Encode(cacheFile{Version: cacheFileVersion, Entries: entries}); err != nil {
		return fmt.Errorf("cpa: encode cache: %w", err)
	}
	return nil
}

// LoadCache merges a memo table previously written by SaveCache into the
// analyzer. Existing entries win over loaded ones, and the in-memory
// bound (maxCacheEntries) is respected. A version mismatch or a corrupt
// stream is an error; the analyzer is left usable either way.
func LoadCache(a *Analyzer, r io.Reader) error {
	var cf cacheFile
	if err := gob.NewDecoder(r).Decode(&cf); err != nil {
		return fmt.Errorf("cpa: decode cache: %w", err)
	}
	if cf.Version != cacheFileVersion {
		return fmt.Errorf("cpa: cache format version %d, want %d", cf.Version, cacheFileVersion)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, k := range sortedKeys(cf.Entries) {
		if len(a.cache) >= maxCacheEntries {
			break
		}
		if _, ok := a.cache[k]; !ok {
			a.store(k, cf.Entries[k])
		}
	}
	return nil
}

// MergeCache copies src's memo entries into dst in memory — the same
// merge semantics as LoadCache (existing dst entries win, the in-memory
// bound is respected) without the serialization round-trip. The source
// is snapshotted first, so the two analyzers' locks are never held
// together.
func MergeCache(dst, src *Analyzer) {
	src.mu.Lock()
	entries := make(map[uint64][]Result, len(src.cache))
	for k, v := range src.cache {
		entries[k] = v // result slices are immutable once cached
	}
	src.mu.Unlock()
	dst.mu.Lock()
	defer dst.mu.Unlock()
	for _, k := range sortedKeys(entries) {
		if len(dst.cache) >= maxCacheEntries {
			break
		}
		if _, ok := dst.cache[k]; !ok {
			dst.store(k, entries[k])
		}
	}
}

// sortedKeys returns a memo table's digests in ascending order, so a merge
// fills the eviction order deterministically.
func sortedKeys(entries map[uint64][]Result) []uint64 {
	keys := make([]uint64, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// SaveCacheFile persists the memo table to path (written atomically via a
// sibling temp file, so a crash mid-write never corrupts a good cache).
// The temp file is fsynced before the rename and the parent directory
// after it, so a power cut can never persist a truncated cache or lose
// the rename: after a crash the path holds either the old complete cache
// or the new complete cache.
func SaveCacheFile(a *Analyzer, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := SaveCache(a, f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// platforms/filesystems refuse to sync directories; that is not a
// durability regression over not syncing, so those errors are ignored.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.EBADF) {
		return err
	}
	return nil
}

// LoadCacheFile merges the memo table stored at path. A missing file is
// returned as-is (os.IsNotExist) so first sessions can ignore it.
func LoadCacheFile(a *Analyzer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadCache(a, f)
}
