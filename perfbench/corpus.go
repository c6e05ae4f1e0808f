package main

import (
	"context"
	"fmt"
	"strings"

	"mdes"
	"mdes/internal/descache"
	"mdes/internal/ir"
	"mdes/internal/workload"
)

// servedMachines are the daemon's tenants in serve-open: the two paper
// machines with the most resource checks per scheduling attempt. The
// per-machine layer metrics cover these two on every workload.
var servedMachines = []mdes.BuiltinName{mdes.K5, mdes.SuperSPARC}

// desc is one description the benchmark builds: a built-in machine's HMDES
// source in one form.
type desc struct {
	machine mdes.BuiltinName
	form    mdes.Form
	source  string
}

func formName(f mdes.Form) string {
	if f == mdes.FormOR {
		return "or"
	}
	return "andor"
}

func (d desc) String() string { return string(d.machine) + "/" + formName(d.form) }

// key is the description's content address in a description cache, the
// same one the daemon derives for an upload of the source.
func (d desc) key(level mdes.Level) descache.Key {
	return descache.Key{SourceHash: descache.HashSource(d.source), Form: formName(d.form), Level: level.String()}
}

func loadDescs(machines []mdes.BuiltinName, forms ...mdes.Form) ([]desc, error) {
	var out []desc
	for _, m := range machines {
		src, err := mdes.BuiltinSource(m)
		if err != nil {
			return nil, err
		}
		for _, f := range forms {
			out = append(out, desc{machine: m, form: f, source: src})
		}
	}
	return out, nil
}

// compile runs one description through the translator: Load, Compile and
// Optimize at level, each call inside its own span under parent. Traced
// runs optimize through the pass ledger and record each pass as a child
// span of the optimize span, plus its size effect in deltas.
func (r *run) compile(op int64, parent int32, d desc, level mdes.Level, deltas map[string]float64) (*mdes.Compiled, error) {
	sp := r.tr.begin("hmdes.load", op, parent)
	m, err := mdes.Load(string(d.machine)+".mdes", d.source)
	r.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", d, err)
	}
	sp = r.tr.begin("lowlevel.compile", op, parent)
	c := mdes.Compile(m, d.form)
	r.tr.end(sp)
	sp = r.tr.begin("opt.optimize", op, parent)
	if r.tr == nil {
		mdes.Optimize(c, level)
		return c, nil
	}
	led, _ := mdes.OptimizeWithLedger(c, level, mdes.Forward)
	r.tr.end(sp)
	var off int64
	for _, p := range led.Passes {
		_, name, _ := strings.Cut(p.Pass, "/")
		r.tr.child("opt.pass."+name, sp, off, p.WallNs)
		off += p.WallNs
		if deltas != nil {
			deltas[name] += float64(p.After.TotalBytes - p.Before.TotalBytes)
		}
	}
	return c, nil
}

func (r *run) newEngine(op int64, parent int32, c *mdes.Compiled) (*mdes.Engine, error) {
	sp := r.tr.begin("engine.new", op, parent)
	e, err := mdes.NewEngine(c)
	r.tr.end(sp)
	return e, err
}

func (r *run) encodeArena(op int64, parent int32, c *mdes.Compiled) ([]byte, error) {
	sp := r.tr.begin("lowlevel.encode_arena", op, parent)
	a, err := mdes.EncodeArena(c)
	r.tr.end(sp)
	return a, err
}

func (r *run) put(op int64, parent int32, s *descache.Store, k descache.Key, arena []byte) error {
	sp := r.tr.begin("descache.put", op, parent)
	_, err := s.Put(k, arena)
	r.tr.end(sp)
	return err
}

// openCached is the cache-hit path: descache Get, the arena's zero-copy
// frozen view, and an engine over it. The caller closes the entry once
// the engine is dropped.
func (r *run) openCached(op int64, parent int32, s *descache.Store, k descache.Key) (*descache.Entry, *mdes.Engine, error) {
	sp := r.tr.begin("descache.get", op, parent)
	ent, err := s.Get(k)
	if err != nil {
		r.tr.end(sp)
		return nil, nil, fmt.Errorf("cache get %s: %w", k.ID(), err)
	}
	c := ent.Arena.FrozenMDES()
	r.tr.end(sp)
	e, err := r.newEngine(op, parent, c)
	if err != nil {
		ent.Close()
		return nil, nil, err
	}
	return ent, e, nil
}

// reportOptDeltas fills the per-pass size effects summed over the
// workload's descriptions.
func (r *run) reportOptDeltas(deltas map[string]float64) {
	for _, p := range optPasses {
		r.layers["opt.pass."+p+".delta_bytes"] = deltas[p]
	}
}

// reportSelf fills name's per-layer metric with the median self time of
// the spans named span.
func (r *run) reportSelf(name, span string) {
	r.layers[name] = median(r.tr.selfMs(span))
}

// reportColdLayers fills the translator, cache and engine-build layers
// from their spans.
func (r *run) reportColdLayers() {
	r.reportSelf("hmdes.load_ms", "hmdes.load")
	r.reportSelf("lowlevel.compile_ms", "lowlevel.compile")
	r.reportSelf("lowlevel.encode_arena_ms", "lowlevel.encode_arena")
	r.reportSelf("opt.optimize_ms", "opt.optimize")
	for _, p := range optPasses {
		r.reportSelf("opt.pass."+p+"_ms", "opt.pass."+p)
	}
	r.reportSelf("descache.put_ms", "descache.put")
	r.reportSelf("descache.get_ms", "descache.get")
	r.reportSelf("engine.new_ms", "engine.new")
}

// reference is the independent expected schedule of a set of blocks: the
// same blocks scheduled on the unoptimized OR-form description, the
// paper's §4 "same schedule" contract.
type reference struct {
	issue  [][]int
	length []int
}

// refTiming gives the dependence checker the description's latencies.
type refTiming struct{ c *mdes.Compiled }

func (t refTiming) FlowDist(producer, consumer *ir.Operation) int {
	pi, pok := t.c.OpIndex[producer.Opcode]
	ci, cok := t.c.OpIndex[consumer.Opcode]
	if !pok || !cok {
		return 1
	}
	return t.c.FlowDistance(pi, ci)
}

func (t refTiming) Latency(opcode string) int {
	if i, ok := t.c.OpIndex[opcode]; ok {
		return t.c.Operations[i].Latency
	}
	return 1
}

// referenceFor schedules blocks on machine's unoptimized OR-form
// description and checks every reference schedule against its dependence
// graph. It runs outside every timed interval.
func referenceFor(ctx context.Context, machine mdes.BuiltinName, blocks []*mdes.Block) (*reference, error) {
	src, err := mdes.BuiltinSource(machine)
	if err != nil {
		return nil, err
	}
	m, err := mdes.Load(string(machine)+".mdes", src)
	if err != nil {
		return nil, err
	}
	c := mdes.Compile(m, mdes.FormOR)
	e, err := mdes.NewEngine(c)
	if err != nil {
		return nil, err
	}
	res, _, err := e.ScheduleBlocks(ctx, blocks, 1)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", machine, err)
	}
	ref := &reference{}
	for i, rs := range res {
		if err := dependenceCheck(c, blocks[i], rs.Issue); err != nil {
			return nil, fmt.Errorf("reference %s block %d: %w", machine, i, err)
		}
		ref.issue = append(ref.issue, rs.Issue)
		ref.length = append(ref.length, rs.Length)
	}
	return ref, nil
}

// dependenceCheck verifies that issue cycles respect every dependence
// edge of the block on description c.
func dependenceCheck(c *mdes.Compiled, b *mdes.Block, issue []int) error {
	return ir.BuildGraphTiming(b, refTiming{c}).CheckSchedule(issue)
}

// falsify corrupts one reference schedule; the self-test uses it to show
// the correctness check can fail.
func (ref *reference) falsify() { ref.length[0]++ }

// matches reports whether block i was scheduled as the reference says.
func (ref *reference) matches(i int, issue []int, length int) bool {
	if length != ref.length[i] || len(issue) != len(ref.issue[i]) {
		return false
	}
	for j, c := range issue {
		if c != ref.issue[i][j] {
			return false
		}
	}
	return true
}

// units cuts a generated program for machine into compilation units of at
// least unitOps static operations each.
func units(machine mdes.BuiltinName, seed int64, totalOps, unitOps int) ([][]*mdes.Block, error) {
	p, err := workload.Generate(workload.Config{Machine: machine, NumOps: totalOps, Seed: seed})
	if err != nil {
		return nil, err
	}
	var out [][]*mdes.Block
	var cur []*mdes.Block
	n := 0
	for _, b := range p.Blocks {
		cur = append(cur, b)
		n += len(b.Ops)
		if n >= unitOps {
			out = append(out, cur)
			cur, n = nil, 0
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out, nil
}

// machineSeed derives a per-machine generator seed from the workload seed.
func machineSeed(seed int64, i int) int64 { return seed*1000003 + int64(i)*7919 }

// reportCounters fills the scheduler and checker layer counts from the
// counters of every block scheduled on each machine.
func (r *run) reportCounters(byMachine map[mdes.BuiltinName]*mdes.Counters, blocks int64) {
	var all mdes.Counters
	for _, m := range servedMachines {
		c := byMachine[m]
		if c == nil {
			c = &mdes.Counters{}
		}
		r.layers["check.checks_per_attempt."+string(m)] = c.ChecksPerAttempt()
	}
	for _, c := range byMachine {
		all.Add(*c)
	}
	if blocks > 0 {
		r.layers["sched.attempts_per_block"] = float64(all.Attempts) / float64(blocks)
	}
	r.layers["check.options_per_attempt"] = all.OptionsPerAttempt()
	r.layers["sched.conflict_share"] = all.ConflictRate()
}
