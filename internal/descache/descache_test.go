package descache

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdes/internal/lowlevel"
	"mdes/internal/machines"
)

func testArena(t *testing.T, n machines.Name, form lowlevel.Form) []byte {
	t.Helper()
	m := lowlevel.Compile(machines.MustLoad(n), form)
	arena, err := m.EncodeArena()
	if err != nil {
		t.Fatal(err)
	}
	return arena
}

func testKey(n machines.Name) Key {
	return Key{SourceHash: HashSource(string(n)), Form: "andor", Level: "full"}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	arena := testArena(t, machines.K5, lowlevel.FormAndOr)
	key := testKey(machines.K5)

	if _, err := s.Get(key); !errors.Is(err, ErrMiss) {
		t.Fatalf("expected miss, got %v", err)
	}
	if _, err := s.Put(key, arena); err != nil {
		t.Fatal(err)
	}
	e, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Arena.MachineName() != "K5" {
		t.Fatalf("machine name %q", e.Arena.MachineName())
	}
	if got := e.Arena.Bytes(); len(got) != len(arena) {
		t.Fatalf("entry size %d, want %d", len(got), len(arena))
	}
	// Distinct keys must not collide.
	other := Key{SourceHash: key.SourceHash, Form: "or", Level: "full"}
	if _, err := s.Get(other); !errors.Is(err, ErrMiss) {
		t.Fatalf("form variant hit the andor entry: %v", err)
	}
}

// asV4 rewrites an arena in the previous format: the same layout under
// version 4, checked by FNV-64a.
func asV4(arena []byte) []byte {
	v4 := append([]byte(nil), arena...)
	binary.LittleEndian.PutUint32(v4[4:], 4)
	h := fnv.New64a()
	h.Write(v4[24:])
	binary.LittleEndian.PutUint64(v4[16:], h.Sum64())
	return v4
}

// damagedEntries are the ways an entry file can go bad: torn writes cut
// inside the header, the section table and the payload, flipped bits in
// the payload and in the check field, and a v4 arena stored under the v5
// name.
func damagedEntries(arena []byte) []struct {
	name string
	data []byte
} {
	flip := func(i int) []byte {
		b := append([]byte(nil), arena...)
		b[i] ^= 0x40
		return b
	}
	return []struct {
		name string
		data []byte
	}{
		{"flip-payload", flip(len(arena) - 1)},
		{"flip-check", flip(18)},
		{"torn-header", arena[:40]},
		{"torn-section-table", arena[:150]},
		{"torn-payload", arena[:len(arena)/2]},
		{"v4-arena", asV4(arena)},
	}
}

func TestCorruptEntryRejected(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	arena := testArena(t, machines.PA7100, lowlevel.FormOR)
	key := testKey(machines.PA7100)
	path, err := s.Put(key, arena)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range damagedEntries(arena) {
		// Damage the entry on disk: Get must reject, not serve garbage.
		if err := os.WriteFile(path, d.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(key); err == nil || errors.Is(err, ErrMiss) {
			t.Fatalf("%s: damaged entry not rejected with a validation error: %v", d.name, err)
		}
		// Put refuses garbage up front.
		if _, err := s.Put(key, d.data); err == nil {
			t.Fatalf("%s: Put accepted a damaged arena", d.name)
		}
	}
}

func TestTunedSlot(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(machines.SuperSPARC)
	base := testArena(t, machines.SuperSPARC, lowlevel.FormAndOr)
	if _, _, _, err := s.GetTuned(key); !errors.Is(err, ErrMiss) {
		t.Fatalf("expected tuned miss, got %v", err)
	}
	if _, err := s.PutTuned(key, "deadbeef01234567", "cafe000011112222", base); err != nil {
		t.Fatal(err)
	}
	e, fp, addr, err := s.GetTuned(key)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if fp != "deadbeef01234567" || addr != "cafe000011112222" {
		t.Fatalf("parsed fingerprint/addr %q/%q", fp, addr)
	}
	// The untuned slot stays independent.
	if _, err := s.Get(key); !errors.Is(err, ErrMiss) {
		t.Fatalf("tuned slot leaked into base slot: %v", err)
	}
}

func TestLRUGC(t *testing.T) {
	dir := t.TempDir()
	arena := testArena(t, machines.Pentium, lowlevel.FormOR)
	// Budget for two entries only.
	s, err := Open(dir, int64(len(arena)*2+len(arena)/2))
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{
		{SourceHash: "0000000000000001", Form: "or", Level: "none"},
		{SourceHash: "0000000000000002", Form: "or", Level: "none"},
		{SourceHash: "0000000000000003", Form: "or", Level: "none"},
	}
	base := time.Now().Add(-time.Hour)
	for i, k := range keys[:2] {
		p, err := s.Put(k, arena)
		if err != nil {
			t.Fatal(err)
		}
		// Spread modification times so LRU order is unambiguous.
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(p, ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0 (a Get bumps recency), making key 1 the LRU victim.
	if e, err := s.Get(keys[0]); err != nil {
		t.Fatal(err)
	} else {
		e.Close()
	}
	if _, err := s.Put(keys[2], arena); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(keys[0]); err != nil {
		t.Fatalf("recently used entry evicted: %v", err)
	}
	if _, err := s.Get(keys[1]); !errors.Is(err, ErrMiss) {
		t.Fatalf("LRU entry survived GC: %v", err)
	}
	if _, err := s.Get(keys[2]); err != nil {
		t.Fatalf("fresh entry evicted: %v", err)
	}
	infos, err := s.List(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("%d entries after GC, want 2", len(infos))
	}
}

// TestGCEvictsStaleFormatOrphans: entries under the previous format's
// "a4-" names are never read again, so they never gain recency, and a byte
// budget evicts them before any live entry.
func TestGCEvictsStaleFormatOrphans(t *testing.T) {
	dir := t.TempDir()
	arena := testArena(t, machines.Pentium, lowlevel.FormOR)
	s, err := Open(dir, int64(len(arena)*2+len(arena)/2))
	if err != nil {
		t.Fatal(err)
	}
	old := testKey(machines.Pentium)
	orphan := filepath.Join(dir, "a4"+strings.TrimPrefix(old.ID(), "a5")+".mdar")
	if err := os.WriteFile(orphan, asV4(arena), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := time.Now().Add(-time.Hour)
	if err := os.Chtimes(orphan, ts, ts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(old, arena); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("orphan evicted while the store fit its budget: %v", err)
	}
	if _, err := s.Put(testKey(machines.K5), arena); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a4- orphan survived GC over budget: %v", err)
	}
	for _, k := range []Key{old, testKey(machines.K5)} {
		e, err := s.Get(k)
		if err != nil {
			t.Fatalf("live entry %s evicted: %v", k.ID(), err)
		}
		e.Close()
	}
}

func TestListVerify(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testKey(machines.K5), testArena(t, machines.K5, lowlevel.FormAndOr)); err != nil {
		t.Fatal(err)
	}
	// One corrupt file alongside.
	bad := filepath.Join(s.Dir(), "a5-ffffffffffffffff-or-none.mdar")
	if err := os.WriteFile(bad, []byte("MDARjunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	infos, err := s.List(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("%d entries listed, want 2", len(infos))
	}
	var okSeen, badSeen bool
	for _, in := range infos {
		if in.Err != nil {
			badSeen = true
			continue
		}
		okSeen = true
		if in.Machine != "K5" {
			t.Fatalf("listed machine %q", in.Machine)
		}
	}
	if !okSeen || !badSeen {
		t.Fatalf("listing missed an entry: ok=%v bad=%v", okSeen, badSeen)
	}
}

// TestAtomicPutLeavesNoTemp ensures a completed Put leaves only the entry.
func TestAtomicPutLeavesNoTemp(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(testKey(machines.K5), testArena(t, machines.K5, lowlevel.FormAndOr)); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("cache dir holds %v, want exactly one entry", names)
	}
}

// TestGCReclaimsStaleTemps: a writer killed inside Put leaves its temp
// file behind, which List never sees. GC removes such a file once it is
// older than staleTemp, and leaves a fresh one (an in-flight Put of
// another process) and every entry alone.
func TestGCReclaimsStaleTemps(t *testing.T) {
	arena := testArena(t, machines.K5, lowlevel.FormAndOr)
	s, err := Open(t.TempDir(), int64(4*len(arena)))
	if err != nil {
		t.Fatal(err)
	}
	entry, err := s.Put(testKey(machines.K5), arena)
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(s.Dir(), tempPrefix+"stale")
	fresh := filepath.Join(s.Dir(), tempPrefix+"fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, arena[:len(arena)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-staleTemp - time.Minute)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	evicted, freed, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != filepath.Base(stale) || freed != int64(len(arena)/2) {
		t.Fatalf("GC evicted %v (%d bytes), want only %s", evicted, freed, filepath.Base(stale))
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp survived GC: %v", err)
	}
	for _, p := range []string{fresh, entry} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("GC removed %s: %v", filepath.Base(p), err)
		}
	}
}
