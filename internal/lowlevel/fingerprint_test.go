package lowlevel_test

import (
	"sync"
	"testing"

	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/opt"
)

// Concurrent first calls to Fingerprint on one frozen description — with
// EncodeArena racing them, since it memoizes too — agree with the
// unfrozen value, on a compiled description and on an arena view.
func TestFingerprintConcurrent(t *testing.T) {
	m := lowlevel.Compile(machines.MustLoad(machines.K5), lowlevel.FormAndOr)
	opt.Apply(m, opt.LevelFull, opt.Forward)
	want, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	arena := arenaBytes(t, m)
	a, err := lowlevel.OpenArena(arena)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Freeze(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*lowlevel.MDES{m, a.FrozenMDES()} {
		var wg sync.WaitGroup
		got := make([]string, 8)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i%2 == 1 {
					if _, err := d.EncodeArena(); err != nil {
						t.Error(err)
					}
				}
				got[i], _ = d.Fingerprint()
			}(i)
		}
		wg.Wait()
		for i, fp := range got {
			if fp != want {
				t.Fatalf("caller %d saw fingerprint %q, want %s", i, fp, want)
			}
		}
	}
}
