package ir_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"mdes/internal/ir"
	"mdes/internal/lowlevel"
	"mdes/internal/machines"
	"mdes/internal/mdgen"
	"mdes/internal/workload"
)

// allControl returns g's edges plus a control edge from every earlier
// operation to each branch: the graph Build would give if it left no
// implied control edge out.
func allControl(g *ir.Graph) *ir.Graph {
	n := len(g.Block.Ops)
	full := &ir.Graph{Block: g.Block, Succs: make([][]ir.Edge, n), Preds: make([][]ir.Edge, n)}
	for i := range g.Succs {
		full.Succs[i] = append(full.Succs[i], g.Succs[i]...)
		full.Preds[i] = append(full.Preds[i], g.Preds[i]...)
	}
	for i, op := range g.Block.Ops {
		if !op.Branch {
			continue
		}
		for j := 0; j < i; j++ {
			e := ir.Edge{From: j, To: i, Kind: ir.DepControl}
			full.Succs[j] = append(full.Succs[j], e)
			full.Preds[i] = append(full.Preds[i], e)
		}
	}
	return full
}

// verdicts counts the issue vectors both graphs accepted and rejected.
type verdicts struct{ accepted, rejected int }

// sameSchedules checks that g accepts exactly the schedules allControl(g)
// accepts, on issue vectors near the earliest schedule: that schedule
// itself, and copies with a few operations moved by up to 3 cycles
// either way, which break some dependence about as often as not.
func sameSchedules(t *testing.T, where string, g *ir.Graph, r *rand.Rand, v *verdicts) {
	t.Helper()
	full := allControl(g)
	n := len(g.Block.Ops)
	asap := make([]int, n)
	for i := range asap {
		for _, e := range full.Preds[i] {
			asap[i] = max(asap[i], asap[e.From]+e.MinDist)
		}
	}
	issue := make([]int, n)
	for k := 0; k < 24; k++ {
		copy(issue, asap)
		if k > 0 {
			for m := 1 + r.Intn(3); m > 0; m-- {
				issue[r.Intn(n)] += r.Intn(7) - 3
			}
		}
		errG, errFull := g.CheckSchedule(issue), full.CheckSchedule(issue)
		if (errG == nil) != (errFull == nil) {
			t.Fatalf("%s: issue %v: built graph says %v, with every control edge %v", where, issue, errG, errFull)
		}
		if errG == nil {
			v.accepted++
		} else {
			v.rejected++
		}
	}
}

// blockTiming is the schedulers' timing for b on m.
func blockTiming(t testing.TB, m *lowlevel.MDES, b *ir.Block) *lowlevel.BlockTiming {
	idx := make([]int, len(b.Ops))
	for i, op := range b.Ops {
		k, ok := m.OpIndex[op.Opcode]
		if !ok {
			t.Fatalf("opcode %q not in %s", op.Opcode, m.MachineName)
		}
		idx[i] = k
	}
	return &lowlevel.BlockTiming{M: m, OpIdxs: idx}
}

// genBlock is a random block of n operations of m: registers drawn from
// a small pool so flow, anti and output edges are common, loads and
// stores, cascades where the operation has a cascaded class, and
// branches both inside the block and at its end.
func genBlock(r *rand.Rand, m *lowlevel.MDES, n int) *ir.Block {
	b := &ir.Block{}
	for i := 0; i < n; i++ {
		k := r.Intn(len(m.Operations))
		o := &ir.Operation{Opcode: m.Operations[k].Name, Srcs: []int{r.Intn(12)}}
		if r.Intn(3) > 0 {
			o.Dests = []int{r.Intn(12)}
		}
		o.Mem = ir.MemKind(r.Intn(4) % 3)
		o.Branch = i == n-1 || r.Intn(10) == 0
		o.Cascaded = m.Operations[k].Cascaded >= 0 && r.Intn(2) == 0
		b.Ops = append(b.Ops, o)
	}
	return b
}

// Property: leaving out the control edges that other edges imply changes
// no verdict of CheckSchedule. Every flow distance the schedulers' timing
// gives is non-negative (FlowDistance clamps at 0), so an operation with
// a successor reaches each later branch through it. Blocks come from the
// workload generator on the paper's machines and from random blocks on
// the first 40 generated machines of the differential sweep.
func TestImpliedControlEdgesChangeNoSchedule(t *testing.T) {
	var v verdicts
	var bl ir.Builder
	r := rand.New(rand.NewSource(1996))
	for _, name := range machines.All {
		m := lowlevel.Compile(machines.MustLoad(name), lowlevel.FormAndOr)
		prog, err := workload.Generate(workload.Config{Machine: name, NumOps: 2000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range prog.Blocks {
			g, err := bl.Build(b, blockTiming(t, m, b))
			if err != nil {
				t.Fatal(err)
			}
			sameSchedules(t, fmt.Sprintf("%s block %d", name, bi), g, r, &v)
		}
	}
	for seed := int64(1996); seed < 1996+40; seed++ {
		mach, err := mdgen.Generate(seed).Machine()
		if err != nil {
			t.Fatal(err)
		}
		m := lowlevel.Compile(mach, lowlevel.FormOR)
		for k := 0; k < 10; k++ {
			b := genBlock(r, m, 1+r.Intn(24))
			g, err := bl.Build(b, blockTiming(t, m, b))
			if err != nil {
				t.Fatal(err)
			}
			sameSchedules(t, fmt.Sprintf("machine seed %d block %d", seed, k), g, r, &v)
		}
	}
	if v.accepted == 0 || v.rejected == 0 {
		t.Fatalf("issue vectors did not exercise both verdicts: %+v", v)
	}
}

// fuzzTiming is a non-negative flow distance read from the fuzz input.
type fuzzTiming []byte

func (d fuzzTiming) FlowDist(producer, consumer int) int {
	if len(d) == 0 {
		return 1
	}
	return int(d[(producer*7+consumer)%len(d)] % 6)
}

// FuzzBuildGraph builds a block decoded from the input, three bytes per
// operation (registers, memory kind, branch and cascade flags), with flow
// distances read from the input, and checks that the graph is valid and
// accepts exactly the schedules it would accept with every control edge.
func FuzzBuildGraph(f *testing.F) {
	f.Add([]byte{0x12, 0x00, 0x00, 0x23, 0x01, 0x00, 0x31, 0x02, 0x01})
	f.Add([]byte{0x01, 0x10, 0x00, 0x12, 0x21, 0x02, 0x20, 0x00, 0x01, 0x33, 0x01, 0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 0x00, 0x01, 0x45, 0x12, 0x03, 0x54, 0x02, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*256 {
			data = data[:3*256]
		}
		b := &ir.Block{}
		for i := 0; i+2 < len(data); i += 3 {
			regs, mem, flags := data[i], data[i+1], data[i+2]
			o := &ir.Operation{Opcode: "OP", Srcs: []int{int(regs & 7)}, Mem: ir.MemKind(mem % 3)}
			if regs&0x80 == 0 {
				o.Dests = []int{int(regs >> 4 & 7)}
			}
			if mem&0x10 != 0 {
				o.Srcs = append(o.Srcs, int(mem>>5))
			}
			o.Branch = flags&1 != 0
			o.Cascaded = flags&2 != 0
			b.Ops = append(b.Ops, o)
		}
		if len(b.Ops) == 0 {
			return
		}
		g, err := new(ir.Builder).Build(b, fuzzTiming(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		var v verdicts
		sameSchedules(t, "fuzz block", g, rand.New(rand.NewSource(int64(h.Sum64()))), &v)
	})
}
