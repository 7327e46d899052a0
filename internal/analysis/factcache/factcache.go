// Package factcache is the per-package result cache behind
// cmd/clrlint's warm runs. One entry stores everything a later run
// needs from analyzing one package: the post-suppression diagnostics
// (as file/line/column records, so they can be re-printed without
// re-parsing) and the gob-encoded cross-package facts the package's
// analyzers exported (so dependents can still import them when the
// producer's analysis is skipped).
//
// The cache key is a content hash over the toolchain version, the
// enabled analyzer list, the package's import path, its compiler
// export data, its source file contents, and the keys of its
// in-module dependencies. Export data hashes cover the API surface a
// dependent type-checks against; the transitive dep-key chain covers
// fact producers, so editing a package invalidates every dependent's
// entry but leaves unrelated packages warm.
package factcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"clrdse/internal/analysis"
)

// Diag is one cached diagnostic, resolved to a concrete position.
type Diag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Entry is one package's cached analysis result.
type Entry struct {
	// ImportPath records which package produced the entry (for
	// debugging; the key alone identifies it).
	ImportPath string `json:"import_path"`
	// Diags are the post-suppression diagnostics.
	Diags []Diag `json:"diags,omitempty"`
	// Facts are the package's exported facts, ready for
	// Session.DecodeFacts against an export-data-loaded instance.
	Facts []analysis.EncodedFact `json:"facts,omitempty"`
}

// Cache is a directory of JSON entries, one file per key. Reads and
// writes are best-effort from the caller's point of view: a corrupt
// or missing entry is a miss, and Put overwrites atomically via
// rename so a crashed run never leaves a torn entry.
type Cache struct {
	dir string
}

// DefaultDir returns the conventional cache location
// (os.UserCacheDir()/clrlint, falling back to the system temp dir).
func DefaultDir() string {
	if base, err := os.UserCacheDir(); err == nil {
		return filepath.Join(base, "clrlint")
	}
	return filepath.Join(os.TempDir(), "clrlint-cache")
}

// Open creates (if needed) and returns the cache at dir; an empty dir
// selects DefaultDir.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		dir = DefaultDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("factcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".json") }

// Get loads the entry for key; ok is false on miss or corruption.
func (c *Cache) Get(key string) (e Entry, ok bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return Entry{}, false
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, false
	}
	return e, true
}

// Put stores the entry under key.
func (c *Cache) Put(key string, e Entry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("factcache: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "entry-*")
	if err != nil {
		return fmt.Errorf("factcache: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("factcache: writing entry: %w", errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("factcache: %w", err)
	}
	return nil
}

// Key hashes the inputs that determine one package's analysis result:
// literal elements (toolchain version, analyzer names, import path,
// dependency keys) and the contents of files (export data, sources).
// A file that cannot be read makes the key an error rather than a
// silently-wrong hash.
func Key(elems []string, files []string) (string, error) {
	h := sha256.New()
	for _, e := range elems {
		fmt.Fprintf(h, "%d:%s\n", len(e), e)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			// A vanished file (e.g. export data evicted from the go
			// build cache mid-run) must not alias the key of a run
			// that hashed real content.
			var perr *fs.PathError
			if errors.As(err, &perr) {
				return "", fmt.Errorf("factcache: keying %s: %w", path, err)
			}
			return "", err
		}
		fmt.Fprintf(h, "file:%s\n", filepath.Base(path))
		_, cerr := io.Copy(h, f)
		f.Close()
		if cerr != nil {
			return "", fmt.Errorf("factcache: keying %s: %w", path, cerr)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
