package resctx

// Arena is a stack-style scratch allocator for per-block scheduler state.
// Ints and Bools carve zeroed slices off growing backing arrays; Release
// (or Context.Reset) rewinds the whole arena at once. Slices carved
// before a growth keep their old backing array alive and stay valid, so
// a caller may hold several live slices across further carves; nothing
// carved survives a Reset.
//
// The block schedulers carve all of a block's scratch (opcode indices,
// priorities, ready order, wait counts, earliest-start times) from their
// context's arena, so steady-state scheduling performs no per-block
// scratch allocation — the arena-backed lifetime the prober's
// valid-until-Reset selections share.
type Arena struct {
	ints  []int
	bools []bool
	iOff  int
	bOff  int
}

// Reset rewinds the arena, invalidating every carved slice and retaining
// storage.
func (a *Arena) Reset() {
	a.iOff, a.bOff = 0, 0
}

// Ints carves a zeroed []int of length n. The full slice expression pins
// the slice's capacity so appends by the caller can never overlap a later
// carve.
func (a *Arena) Ints(n int) []int {
	if a.iOff+n > len(a.ints) {
		grow := len(a.ints)
		if grow < a.iOff+n {
			grow = a.iOff + n
		}
		fresh := make([]int, grow*2)
		// Old carves keep the old backing; only unconsumed capacity moves.
		a.ints = fresh
		a.iOff = 0
	}
	s := a.ints[a.iOff : a.iOff+n : a.iOff+n]
	for i := range s {
		s[i] = 0
	}
	a.iOff += n
	return s
}

// Bools carves a zeroed []bool of length n.
func (a *Arena) Bools(n int) []bool {
	if a.bOff+n > len(a.bools) {
		grow := len(a.bools)
		if grow < a.bOff+n {
			grow = a.bOff + n
		}
		fresh := make([]bool, grow*2)
		a.bools = fresh
		a.bOff = 0
	}
	s := a.bools[a.bOff : a.bOff+n : a.bOff+n]
	for i := range s {
		s[i] = false
	}
	a.bOff += n
	return s
}
