package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Cache is the content-addressed result store: one JSON file per run,
// named by the FNV-1a digest of the canonical run configuration.
// Because the digest covers every field of the config (and the digest
// of the canonical form changes when any knob is added to any config
// struct), a hit is always a result for the exact simulation being
// requested — re-invoking a sweep skips already-computed points, and a
// config change silently misses instead of serving stale results.
type Cache struct {
	dir string
}

// OpenCache creates (if needed) and opens a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

func (c *Cache) path(digest string) string {
	return filepath.Join(c.dir, digest+".json")
}

// Get returns the cached record for a digest, if present and intact.
// Corrupt entries (torn writes are prevented by Put's rename, but a
// damaged disk is not) read as misses.
func (c *Cache) Get(digest string) (Record, bool) {
	data, err := os.ReadFile(c.path(digest))
	if err != nil {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, false
	}
	if rec.Digest != digest || rec.Failed() {
		return Record{}, false
	}
	return rec, true
}

// Put stores a successful record under its digest, atomically
// (WriteFileAtomic) so concurrent workers and killed campaigns can
// never leave a half-written entry under a valid key. Failed
// records are rejected: the cache only ever holds results.
func (c *Cache) Put(rec Record) error {
	if rec.Failed() {
		return fmt.Errorf("sweep cache: refusing to cache failed run %s", rec.Digest)
	}
	// A cache file's bytes depend only on the run, never on how fast
	// this machine executed it: the wall-clock cost is stripped before
	// the bytes exist. Zeroing here (rather than trusting callers) is
	// what lets the digestpure analyzer prove the whole cache path
	// clean; Get zeroes WallMS too, for caches written before this
	// rule existed.
	rec.WallMS = 0
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("sweep cache: %w", err)
	}
	if err := WriteFileAtomic(c.path(rec.Digest), append(data, '\n')); err != nil {
		return fmt.Errorf("sweep cache: %w", err)
	}
	return nil
}

// WriteFileAtomic writes data to path (mode 0644) by writing a
// temporary file in the same directory and renaming it over path. A
// process killed mid-write leaves the old content at path (plus, at
// worst, a stray temporary), never a torn mix; on an error return the
// temporary is removed. It does not fsync: like the journal, it guards
// against the process dying, not the machine losing power.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Len counts the stored results.
func (c *Cache) Len() int {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}
