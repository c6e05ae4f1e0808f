package workload

import (
	"testing"

	"mdes/internal/hmdes"
	"mdes/internal/ir"
	"mdes/internal/machines"
)

func TestSpecsExistForAllMachines(t *testing.T) {
	for _, n := range machines.AllExtended {
		spec, err := Specs(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(spec.Ops) == 0 || len(spec.Terms) == 0 || spec.MeanBlockSize < 2 {
			t.Fatalf("%s: malformed spec %+v", n, spec)
		}
	}
	if _, err := Specs("vax"); err == nil {
		t.Fatalf("unknown machine spec returned")
	}
}

func TestSpecOpcodesExistInMDES(t *testing.T) {
	for _, n := range machines.AllExtended {
		m := machines.MustLoad(n)
		spec, _ := Specs(n)
		for _, s := range append(append([]OpSpec{}, spec.Ops...), spec.Terms...) {
			if _, ok := m.Operations[s.Opcode]; !ok {
				t.Errorf("%s: workload opcode %q not in MDES", n, s.Opcode)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Machine: machines.SuperSPARC, NumOps: 500, Seed: 1}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumOps != b.NumOps || len(a.Blocks) != len(b.Blocks) {
		t.Fatalf("nondeterministic shape: %d/%d vs %d/%d", a.NumOps, len(a.Blocks), b.NumOps, len(b.Blocks))
	}
	for i := range a.Blocks {
		for j := range a.Blocks[i].Ops {
			x, y := a.Blocks[i].Ops[j], b.Blocks[i].Ops[j]
			if x.Opcode != y.Opcode || x.Cascaded != y.Cascaded {
				t.Fatalf("nondeterministic op %d/%d: %v vs %v", i, j, x, y)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(Config{Machine: machines.SuperSPARC, NumOps: 500, Seed: 1})
	b, _ := Generate(Config{Machine: machines.SuperSPARC, NumOps: 500, Seed: 2})
	same := true
	for i := 0; i < len(a.Blocks) && i < len(b.Blocks) && same; i++ {
		if len(a.Blocks[i].Ops) != len(b.Blocks[i].Ops) {
			same = false
			break
		}
		for j := range a.Blocks[i].Ops {
			if a.Blocks[i].Ops[j].Opcode != b.Blocks[i].Ops[j].Opcode {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced identical streams")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{Machine: machines.SuperSPARC, NumOps: 0}); err == nil {
		t.Fatalf("NumOps 0 accepted")
	}
	if _, err := Generate(Config{Machine: "vax", NumOps: 10}); err == nil {
		t.Fatalf("unknown machine accepted")
	}
}

func TestBlocksEndWithTerminator(t *testing.T) {
	for _, n := range machines.AllExtended {
		p, err := Generate(Config{Machine: n, NumOps: 1000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for bi, b := range p.Blocks {
			if len(b.Ops) == 0 {
				t.Fatalf("%s block %d empty", n, bi)
			}
			last := b.Ops[len(b.Ops)-1]
			if !last.Branch {
				t.Fatalf("%s block %d does not end in a branch: %v", n, bi, last)
			}
			for _, op := range b.Ops[:len(b.Ops)-1] {
				if op.Branch {
					t.Fatalf("%s block %d has interior branch", n, bi)
				}
			}
		}
	}
}

func TestPostpassRegistersBounded(t *testing.T) {
	p, err := Generate(Config{Machine: machines.Pentium, NumOps: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range p.Blocks {
		for _, op := range b.Ops {
			for _, r := range append(append([]int{}, op.Srcs...), op.Dests...) {
				if r < 0 || r >= postpassRegs {
					t.Fatalf("postpass register %d out of range", r)
				}
			}
		}
	}
}

func TestPrepassUsesVirtualRegisters(t *testing.T) {
	p, err := Generate(Config{Machine: machines.SuperSPARC, NumOps: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	maxReg := 0
	for _, b := range p.Blocks {
		for _, op := range b.Ops {
			for _, r := range op.Dests {
				if r > maxReg {
					maxReg = r
				}
			}
		}
	}
	// Virtual registers are numbered per block from 4; any long block
	// exceeds the 8-register architectural file of the postpass model.
	if maxReg <= 2*postpassRegs {
		t.Fatalf("prepass register space suspiciously small: %d", maxReg)
	}
}

func TestCascadedOpsHaveRealFlowEdges(t *testing.T) {
	p, err := Generate(Config{Machine: machines.SuperSPARC, NumOps: 5000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cascades := 0
	for _, b := range p.Blocks {
		for i, op := range b.Ops {
			if !op.Cascaded {
				continue
			}
			cascades++
			if i == 0 {
				t.Fatalf("cascaded op first in block")
			}
			prev := b.Ops[i-1]
			found := false
			for _, s := range op.Srcs {
				for _, d := range prev.Dests {
					if s == d {
						found = true
					}
				}
			}
			if !found {
				t.Fatalf("cascaded op does not consume predecessor result: %v after %v", op, prev)
			}
		}
	}
	if cascades == 0 {
		t.Fatalf("no cascaded ops generated")
	}
}

func TestOpcodeMixRoughlyMatchesWeights(t *testing.T) {
	p, err := Generate(Config{Machine: machines.SuperSPARC, NumOps: 50000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, b := range p.Blocks {
		for _, op := range b.Ops {
			counts[op.Opcode]++
		}
	}
	// ADD1 dominates the mix (~44% of non-branch weight).
	if counts["ADD1"] < counts["LD"] || counts["ADD1"] < counts["ADD2"]*4 {
		t.Fatalf("mix off: %v", counts)
	}
	// Every op in the spec should appear in a 50k-op stream.
	spec, _ := Specs(machines.SuperSPARC)
	for _, s := range spec.Ops {
		if counts[s.Opcode] == 0 {
			t.Errorf("opcode %s never generated", s.Opcode)
		}
	}
}

// latencies is an ir.Timing whose flow distance is the producer's latency.
type latencies struct {
	m *hmdes.Machine
	b *ir.Block
}

func (t latencies) FlowDist(producer, _ int) int {
	return t.m.Operations[t.b.Ops[producer].Opcode].Latency
}

func TestGraphsBuildOnGeneratedCode(t *testing.T) {
	for _, n := range machines.AllExtended {
		m := machines.MustLoad(n)
		p, err := Generate(Config{Machine: n, NumOps: 1000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var bl ir.Builder
		for _, b := range p.Blocks {
			g, err := bl.Build(b, latencies{m, b})
			if err != nil {
				t.Fatalf("%s: %v", n, err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s: %v", n, err)
			}
		}
	}
}

// GenerateParallel must be deterministic in (cfg, shards) — independent of
// goroutine interleaving — and must equal the serial concatenation of its
// shards.
func TestGenerateParallelDeterministic(t *testing.T) {
	cfg := Config{Machine: machines.K5, NumOps: 4000, Seed: 1996}
	a, err := GenerateParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumOps != b.NumOps || len(a.Blocks) != len(b.Blocks) {
		t.Fatalf("non-deterministic shape: %d/%d ops, %d/%d blocks",
			a.NumOps, b.NumOps, len(a.Blocks), len(b.Blocks))
	}
	for i := range a.Blocks {
		if len(a.Blocks[i].Ops) != len(b.Blocks[i].Ops) {
			t.Fatalf("block %d sizes differ", i)
		}
		for j := range a.Blocks[i].Ops {
			if a.Blocks[i].Ops[j].Opcode != b.Blocks[i].Ops[j].Opcode {
				t.Fatalf("block %d op %d differs: %s vs %s",
					i, j, a.Blocks[i].Ops[j].Opcode, b.Blocks[i].Ops[j].Opcode)
			}
		}
	}

	// Shards equal the serial generation of each shard's sub-config.
	per := cfg.NumOps / 4
	serial, err := Generate(Config{Machine: cfg.Machine, NumOps: per, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range serial.Blocks {
		if got := a.Blocks[i]; len(got.Ops) != len(blk.Ops) || got.Ops[0].Opcode != blk.Ops[0].Opcode {
			t.Fatalf("shard 0 block %d does not match serial generation", i)
		}
	}
}

func TestGenerateParallelDegenerate(t *testing.T) {
	cfg := Config{Machine: machines.SuperSPARC, NumOps: 500, Seed: 3}
	a, err := GenerateParallel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumOps != b.NumOps || len(a.Blocks) != len(b.Blocks) {
		t.Fatalf("shards=1 differs from Generate: %d/%d ops", a.NumOps, b.NumOps)
	}
	if _, err := GenerateParallel(Config{Machine: "nope", NumOps: 10}, 4); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if _, err := GenerateParallel(Config{Machine: machines.K5, NumOps: 0}, 4); err == nil {
		t.Fatal("zero NumOps accepted")
	}
}
