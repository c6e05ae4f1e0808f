package probeplan

import (
	"slices"
	"testing"

	"mdes/internal/lowlevel"
	"mdes/internal/stats"
)

func TestModuloConfigurePanicsOnBadII(t *testing.T) {
	m := NewModulo(mustPlan(t, compile(t, tinySrc, lowlevel.FormAndOr)), 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("Configure(0) did not panic")
		}
	}()
	m.Configure(0)
}

// A later tree's usage that folds onto an earlier tree's choice collides
// with it, so the later tree falls back to its next option, or the
// constraint is refused until the II separates the two usages.
func TestModuloCrossTreeFolding(t *testing.T) {
	const src = `
machine Fold {
    resource A;
    resource B;

    class fallback {
        tree { option { A @ 0; } }
        tree { option { A @ 1; } option { B @ 1; } }
    }
    class apart {
        tree { option { A @ 0; } }
        tree { option { A @ 2; } }
    }
    operation F class fallback latency 1;
    operation P class apart latency 1;
}
`
	ll := compile(t, src, lowlevel.FormAndOr)
	m := NewModulo(mustPlan(t, ll), 1)
	fallback := ll.Constraints[ll.ClassIndex["fallback"]]
	apart := ll.Constraints[ll.ClassIndex["apart"]]
	var c stats.Counters
	for _, tc := range []struct {
		ii     int
		chosen []int
	}{{1, []int{0, 1}}, {2, []int{0, 0}}} {
		m.Configure(tc.ii)
		sel, ok := m.Check(fallback, 0, &c)
		if !ok || !slices.Equal(sel.Chosen, tc.chosen) {
			t.Fatalf("II %d: fallback chose %v (ok %v), want %v", tc.ii, sel.Chosen, ok, tc.chosen)
		}
	}
	for ii := 1; ii <= 3; ii++ {
		m.Configure(ii)
		if _, ok := m.Check(apart, 0, &c); ok != (ii == 3) {
			t.Fatalf("II %d: apart accepted = %v", ii, ok)
		}
	}
}
