// Package descache is the content-addressed on-disk cache of compiled
// machine descriptions in the flat arena format (lowlevel MDAR v5). It is
// what lets a cold worker skip the HMDES parse → compile → optimize
// pipeline entirely: entries are keyed by the hash of the HMDES *source
// text* crossed with every compilation input that changes the output
// (form, optimization level, checker-relevant flags), so a hit is provably
// the same description the pipeline would have produced.
//
// Durability discipline:
//
//   - writes are atomic: a temp file in the cache directory, fsync'd, then
//     renamed over the final name — a crashed writer can never leave a
//     half-written entry under a valid key;
//   - reads are checksum-verified: Get maps (or reads) the file and runs
//     lowlevel.OpenArena, whose CRC pair (CRC-32C ‖ CRC-32) + structural
//     validation rejects torn, corrupted or stale-format entries — the
//     caller treats any error as a miss and recompiles;
//   - eviction is LRU by file modification time, which Get bumps on every
//     hit; GC removes oldest-first until the store fits its byte budget.
//     Entries under an older format's names (a4-, MDAR v4) are never read,
//     so they age out first. GC also removes the temp file of a writer
//     killed inside Put once it is older than staleTemp.
//
// Tuned layouts (mdreport -tune output) occupy a second slot per key:
// "<key>.tuned-<fingerprint>-<profileaddr>.mdar", addressed by the base
// description's fingerprint × the driving profile's content address, so a
// caller can opt into the profile-reordered layout while the untuned entry
// stays available.
package descache

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mdes/internal/lowlevel"
)

// ErrMiss reports that no entry exists under the requested key.
var ErrMiss = errors.New("descache: miss")

// Key addresses one compiled description. Every field participates in the
// entry name, so two descriptions differing in any compilation input can
// never collide.
type Key struct {
	// SourceHash is the 16-hex-digit FNV-64a hash of the HMDES source
	// text (HashSource).
	SourceHash string
	// Form is the canonical lowercase form name: "or" or "andor".
	Form string
	// Level is the optimization level name (opt.Level.String()).
	Level string
	// Flags carries checker-relevant compilation flags (e.g. a non-default
	// optimization direction); empty for the common case.
	Flags string
}

// HashSource returns the 16-hex-digit FNV-64a hash of an HMDES source
// text — the content-address component of a Key.
func HashSource(source string) string {
	h := fnv.New64a()
	h.Write([]byte(source))
	return fmt.Sprintf("%016x", h.Sum64())
}

// ID renders the key as its on-disk entry name (without extension). The
// arena format version is baked in ("a5-" for MDAR v5) so a format bump
// turns old entries into misses instead of reading stale bytes.
func (k Key) ID() string {
	id := fmt.Sprintf("a5-%s-%s-%s", k.SourceHash, sanitize(k.Form), sanitize(k.Level))
	if k.Flags != "" {
		id += "-" + sanitize(k.Flags)
	}
	return id
}

// sanitize keeps entry names filesystem-safe: anything outside
// [a-zA-Z0-9.-] becomes '_'.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			return r
		default:
			return '_'
		}
	}, s)
}

// Store is one cache directory.
type Store struct {
	dir      string
	maxBytes int64 // LRU budget; <= 0 means unbounded
}

// Open opens (creating if needed) a cache directory with the given LRU
// byte budget (<= 0 for unbounded).
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("descache: %w", err)
	}
	return &Store{dir: dir, maxBytes: maxBytes}, nil
}

// Dir returns the cache directory path.
func (s *Store) Dir() string { return s.dir }

// MaxBytes returns the configured LRU budget (<= 0 when unbounded).
func (s *Store) MaxBytes() int64 { return s.maxBytes }

// tempPrefix begins the name of every temp file Put writes before its
// rename. List and GC's budget never see these names (they glob *.mdar).
const tempPrefix = ".descache-"

// staleTemp is the age past which GC takes a temp file for the leftover
// of a writer killed inside Put. A live Put holds its temp file for one
// write, fsync and rename, far less than this, so GC never touches an
// in-flight Put of another process.
const staleTemp = time.Hour

func (s *Store) entryPath(k Key) string {
	return filepath.Join(s.dir, k.ID()+".mdar")
}

// Entry is one opened cache entry: a validated arena plus the mapping (or
// heap buffer) backing it. Close releases the mapping; every MDES
// materialized from Arena in zero-copy mode must not outlive it.
type Entry struct {
	Path  string
	Arena *lowlevel.Arena
	// Mapped reports whether the entry is memory-mapped rather than
	// heap-loaded.
	Mapped bool
}

// Close releases the entry's backing mapping (a no-op for heap-loaded
// entries).
func (e *Entry) Close() error { return e.Arena.Close() }

// Put atomically writes an arena under its key and returns the entry path.
// The buffer is verified (OpenArena) before it is published, so the store
// never contains an entry Open would reject; a configured byte budget
// triggers GC after the write.
func (s *Store) Put(k Key, arena []byte) (string, error) {
	return s.put(s.entryPath(k), arena)
}

// PutTuned writes a tuned layout under the key's tuned slot, addressed by
// the base description's fingerprint and the driving profile's content
// address.
func (s *Store) PutTuned(k Key, fingerprint, profileAddr string, arena []byte) (string, error) {
	name := fmt.Sprintf("%s.tuned-%s-%s.mdar", k.ID(), sanitize(fingerprint), sanitize(profileAddr))
	return s.put(filepath.Join(s.dir, name), arena)
}

func (s *Store) put(path string, arena []byte) (string, error) {
	if _, err := lowlevel.OpenArena(arena); err != nil {
		return "", fmt.Errorf("descache: refusing to store invalid arena: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, tempPrefix+"*")
	if err != nil {
		return "", fmt.Errorf("descache: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(arena); err != nil {
		tmp.Close()
		return "", fmt.Errorf("descache: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("descache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("descache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", fmt.Errorf("descache: %w", err)
	}
	if s.maxBytes > 0 {
		if _, _, err := s.GC(); err != nil {
			return "", err
		}
	}
	return path, nil
}

// Get opens the entry under the key. A missing file returns ErrMiss; a
// present but corrupt entry returns the validation error (callers treat
// both as a miss and recompile). A hit bumps the entry's modification
// time, which is the LRU recency signal GC evicts by.
func (s *Store) Get(k Key) (*Entry, error) {
	return s.open(s.entryPath(k))
}

// GetTuned opens the most recently stored tuned layout for the key,
// returning the entry plus the fingerprint and profile address parsed from
// its slot name. ErrMiss when the key has no tuned slot.
func (s *Store) GetTuned(k Key) (*Entry, string, string, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, k.ID()+".tuned-*.mdar"))
	if err != nil {
		return nil, "", "", fmt.Errorf("descache: %w", err)
	}
	if len(matches) == 0 {
		return nil, "", "", ErrMiss
	}
	sort.Slice(matches, func(i, j int) bool {
		return mtimeOf(matches[i]).After(mtimeOf(matches[j]))
	})
	e, err := s.open(matches[0])
	if err != nil {
		return nil, "", "", err
	}
	fp, addr := parseTunedName(filepath.Base(matches[0]))
	return e, fp, addr, nil
}

func mtimeOf(path string) time.Time {
	fi, err := os.Stat(path)
	if err != nil {
		return time.Time{}
	}
	return fi.ModTime()
}

func parseTunedName(name string) (fingerprint, profileAddr string) {
	name = strings.TrimSuffix(name, ".mdar")
	i := strings.LastIndex(name, ".tuned-")
	if i < 0 {
		return "", ""
	}
	rest := name[i+len(".tuned-"):]
	if j := strings.LastIndex(rest, "-"); j >= 0 {
		return rest[:j], rest[j+1:]
	}
	return rest, ""
}

func (s *Store) open(path string) (*Entry, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrMiss
	}
	if err != nil {
		return nil, fmt.Errorf("descache: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("descache: %w", err)
	}
	data, mapped := mapFile(f, fi.Size())
	if data == nil {
		if data, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("descache: %w", err)
		}
	}
	a, err := lowlevel.OpenArena(data)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, fmt.Errorf("descache: entry %s: %w", filepath.Base(path), err)
	}
	if mapped {
		buf := data
		a.SetCloser(func() error { return unmapFile(buf) })
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // LRU recency bump; best-effort
	return &Entry{Path: path, Arena: a, Mapped: mapped}, nil
}

// Info describes one cache entry for listings.
type Info struct {
	Name    string
	Path    string
	Size    int64
	ModTime time.Time
	Tuned   bool
	// Fingerprint and ProfileAddr are set for tuned slots.
	Fingerprint string
	ProfileAddr string
	// Machine, Form, and Packed come from the arena header when Verify
	// was requested; Err records a failed verification.
	Machine string
	Form    string
	Packed  bool
	Err     error
}

// List enumerates the store's entries, newest first. With verify set, each
// entry is opened (checksum + structural validation) and its header fields
// are reported; corrupt entries carry Err rather than failing the listing.
func (s *Store) List(verify bool) ([]Info, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.mdar"))
	if err != nil {
		return nil, fmt.Errorf("descache: %w", err)
	}
	infos := make([]Info, 0, len(matches))
	for _, path := range matches {
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		name := filepath.Base(path)
		info := Info{
			Name:    name,
			Path:    path,
			Size:    fi.Size(),
			ModTime: fi.ModTime(),
			Tuned:   strings.Contains(name, ".tuned-"),
		}
		if info.Tuned {
			info.Fingerprint, info.ProfileAddr = parseTunedName(name)
		}
		if verify {
			data, err := os.ReadFile(path)
			if err != nil {
				info.Err = err
			} else if a, err := lowlevel.OpenArena(data); err != nil {
				info.Err = err
			} else {
				info.Machine = a.MachineName()
				info.Form = a.Form().String()
				info.Packed = a.Packed()
			}
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ModTime.After(infos[j].ModTime) })
	return infos, nil
}

// GC removes the temp files writers killed inside Put left behind (those
// older than staleTemp), then enforces the LRU byte budget: when the
// store exceeds MaxBytes it removes least-recently-used entries (oldest
// modification time first, tuned slots included) until the remainder
// fits. Unbounded stores evict no entry. evicted names every file
// removed and freed sums their sizes.
func (s *Store) GC() (evicted []string, freed int64, err error) {
	evicted, freed, err = s.reclaimTemps(time.Now().Add(-staleTemp))
	if err != nil || s.maxBytes <= 0 {
		return evicted, freed, err
	}
	infos, err := s.List(false)
	if err != nil {
		return evicted, freed, err
	}
	var total int64
	for _, in := range infos {
		total += in.Size
	}
	// infos is newest-first; evict from the tail. A concurrent GC (or
	// writer re-publishing an entry) may remove a file first; losing that
	// race still frees the bytes, so it is not an error.
	for i := len(infos) - 1; i >= 0 && total > s.maxBytes; i-- {
		if err := os.Remove(infos[i].Path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return evicted, freed, fmt.Errorf("descache: gc: %w", err)
		}
		evicted = append(evicted, infos[i].Name)
		freed += infos[i].Size
		total -= infos[i].Size
	}
	return evicted, freed, nil
}

// reclaimTemps removes the Put temp files last modified before cutoff.
// A file another GC removes first is not an error.
func (s *Store) reclaimTemps(cutoff time.Time) (removed []string, freed int64, err error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, tempPrefix+"*"))
	if err != nil {
		return nil, 0, fmt.Errorf("descache: %w", err)
	}
	for _, path := range matches {
		fi, err := os.Stat(path)
		if err != nil || !fi.ModTime().Before(cutoff) {
			continue
		}
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return removed, freed, fmt.Errorf("descache: gc: %w", err)
		}
		removed = append(removed, fi.Name())
		freed += fi.Size()
	}
	return removed, freed, nil
}
