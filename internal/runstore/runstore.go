// Package runstore is the blob layer under the content-addressed run
// store: artifacts (simulation results, warmup checkpoints) addressed by
// a (kind, key) pair, where the key is the sha256 content hash computed
// by the tinydir layer and the kind is one of the artifact families.
//
// A Backend stores opaque bytes; it knows nothing about JSON results or
// snapshot framing. What it does guarantee, uniformly across every
// implementation, is the store's write discipline:
//
//   - Writes are atomic: a reader never observes a partially-written
//     entry, only the old bytes, the new bytes, or a miss.
//   - Same-key writes of identical bytes are idempotent successes.
//   - Same-key writes of different bytes are refused with ErrDiffers
//     unless the writer explicitly asks to replace — the caller decides
//     whether the existing entry is protected (a valid result: collision
//     or nondeterminism, fail loudly) or debris (corrupt JSON: replace).
//   - Concurrent same-key writers settle on one winner: the entry
//     afterwards holds one writer's bytes intact.
//
// Three implementations exist: Dir (the original local directory
// layout), LRU (an in-memory tier wrapping any backend), and Client (an
// HTTP blob client speaking the small GET/PUT/HEAD protocol served by
// NewServer). The conformance suite in conformance_test.go runs every
// one of them against the same contract.
package runstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The artifact kinds the tinydir store uses. Backends accept any
// path-safe kind name; these two are the ones with a fixed on-disk
// extension (compatibility with pre-Backend store directories).
const (
	KindResults     = "results"
	KindCheckpoints = "checkpoints"
)

// ErrDiffers reports a refused Put: the key already holds different
// bytes and the writer did not ask to replace them. Callers match it
// with errors.Is.
var ErrDiffers = errors.New("runstore: existing entry differs")

// Info describes one stored entry (listing, GC, HEAD).
type Info struct {
	Key     string
	Size    int64
	ModTime time.Time
}

// Backend is a content-addressed blob store. Implementations must be
// safe for concurrent use.
type Backend interface {
	// Get returns the entry's bytes. A missing entry is (nil, false,
	// nil); an error means the entry's presence could not be determined
	// (callers typically degrade to a miss with a warning). Returned
	// bytes must not be modified by the caller.
	Get(kind, key string) ([]byte, bool, error)
	// Put atomically stores data under (kind, key). Identical existing
	// bytes are an idempotent success; different existing bytes are
	// refused with an error matching ErrDiffers unless replace is set.
	Put(kind, key string, data []byte, replace bool) error
	// Stat reports an entry's size and modification time without
	// fetching it. A missing entry is (Info{}, false, nil).
	Stat(kind, key string) (Info, bool, error)
	// Keys lists the stored entries of one kind, sorted by key. A kind
	// never written is an empty list, not an error.
	Keys(kind string) ([]Info, error)
	// Delete removes an entry; deleting a missing entry is a no-op.
	Delete(kind, key string) error
}

// ValidName reports whether s is usable as a kind or key: non-empty,
// ASCII letters/digits/dash/underscore only. This is deliberately
// stricter than "no path separators" — names travel through URLs and
// file systems, and the store's keys are hex digests anyway.
func ValidName(s string) bool {
	if s == "" || len(s) > 256 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

func checkNames(kind, key string) error {
	if !ValidName(kind) {
		return fmt.Errorf("runstore: invalid kind %q", kind)
	}
	if !ValidName(key) {
		return fmt.Errorf("runstore: invalid key %q", key)
	}
	return nil
}

// ext preserves the original store's on-disk layout: results/<key>.json
// and checkpoints/<key>.snap. Other kinds use a neutral extension.
func ext(kind string) string {
	switch kind {
	case KindResults:
		return ".json"
	case KindCheckpoints:
		return ".snap"
	}
	return ".dat"
}

// Dir is the local directory backend: root/<kind>/<key><ext>. Writes go
// through a temp file + rename, so a killed process never leaves a
// truncated entry behind (the pre-Backend store's discipline, verbatim).
type Dir struct {
	root string
}

// NewDir opens (creating if needed) a directory backend rooted at root.
func NewDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &Dir{root: root}, nil
}

// Root returns the backing directory.
func (d *Dir) Root() string { return d.root }

func (d *Dir) path(kind, key string) string {
	return filepath.Join(d.root, kind, key+ext(kind))
}

// Get implements Backend.
func (d *Dir) Get(kind, key string) ([]byte, bool, error) {
	if err := checkNames(kind, key); err != nil {
		return nil, false, err
	}
	b, err := os.ReadFile(d.path(kind, key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("runstore: %w", err)
	}
	return b, true, nil
}

// Put implements Backend.
func (d *Dir) Put(kind, key string, data []byte, replace bool) error {
	if err := checkNames(kind, key); err != nil {
		return err
	}
	path := d.path(kind, key)
	if !replace {
		if old, err := os.ReadFile(path); err == nil {
			return settle(old, data, key)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	err := writeFileAtomic(path, data, replace)
	if errors.Is(err, os.ErrExist) {
		// A concurrent no-replace writer published first: settle against
		// its bytes, exactly as if it had been there all along.
		old, rerr := os.ReadFile(path)
		if rerr != nil {
			return fmt.Errorf("runstore: %w", rerr)
		}
		return settle(old, data, key)
	}
	return err
}

// settle is a no-replace Put's verdict against the bytes already stored:
// identical is success, anything else is refused.
func settle(old, data []byte, key string) error {
	if bytes.Equal(old, data) {
		return nil
	}
	return fmt.Errorf("%w: key %s", ErrDiffers, key)
}

// Stat implements Backend.
func (d *Dir) Stat(kind, key string) (Info, bool, error) {
	if err := checkNames(kind, key); err != nil {
		return Info{}, false, err
	}
	fi, err := os.Stat(d.path(kind, key))
	if errors.Is(err, os.ErrNotExist) {
		return Info{}, false, nil
	}
	if err != nil {
		return Info{}, false, fmt.Errorf("runstore: %w", err)
	}
	return Info{Key: key, Size: fi.Size(), ModTime: fi.ModTime()}, true, nil
}

// Keys implements Backend.
func (d *Dir) Keys(kind string) ([]Info, error) {
	if !ValidName(kind) {
		return nil, fmt.Errorf("runstore: invalid kind %q", kind)
	}
	entries, err := os.ReadDir(filepath.Join(d.root, kind))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	suffix := ext(kind)
	var infos []Info
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) <= len(suffix) || name[len(name)-len(suffix):] != suffix {
			continue // temp files, foreign debris
		}
		key := name[:len(name)-len(suffix)]
		if !ValidName(key) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // raced with a concurrent delete
		}
		infos = append(infos, Info{Key: key, Size: fi.Size(), ModTime: fi.ModTime()})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	return infos, nil
}

// Delete implements Backend.
func (d *Dir) Delete(kind, key string) error {
	if err := checkNames(kind, key); err != nil {
		return err
	}
	err := os.Remove(d.path(kind, key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}

// writeFileAtomic publishes data at path through a temp file, so a
// reader never sees a torn entry. With replace the temp file is renamed
// over any existing entry; without it the temp file is hard-linked into
// place, which fails with os.ErrExist when another writer got there
// first — so of several concurrent no-replace writers exactly one wins.
func writeFileAtomic(path string, data []byte, replace bool) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("runstore: %w", werr)
	}
	publish := os.Rename
	if !replace {
		publish = os.Link
	}
	err = publish(tmp.Name(), path)
	if err != nil || !replace {
		os.Remove(tmp.Name())
	}
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}
