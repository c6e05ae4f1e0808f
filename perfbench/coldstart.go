package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mdes"
	"mdes/internal/descache"
)

// coldstart sizes. Every engine the loop builds schedules one unit of
// coldCheckOps static operations per machine against the reference; the
// warm-up engines also schedule coldCountOps per machine, over which the
// checks per attempt are counted.
const (
	coldSetups   = 7
	coldCheckOps = 120
	coldCountOps = 20000
	probeBodies  = 8
	coldWindow   = 2 * time.Second
)

// coldstart is the cold-path workload: a closed loop of one goroutine that
// brings up serving engines for all four paper machines in both forms, 8
// descriptions, first from HMDES source (Load, Compile, Optimize,
// EncodeArena, store, NewEngine) and then from the description cache (Get,
// frozen arena view, NewEngine).
func (r *run) coldstart(ctx context.Context) error {
	// One goroutine drives the loop. With one P the garbage collector's
	// work is serial too, so the loop is exposed to host steal on one vCPU
	// rather than on both.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	machines := mdes.Builtins()
	descs, err := loadDescs(machines, mdes.FormOR, mdes.FormAndOr)
	if err != nil {
		return err
	}
	// Check blocks and their references, outside every timed interval.
	// The first coldCheckOps of each machine's corpus are its check blocks.
	corpus := make([][]*mdes.Block, len(machines))
	checkBlocks := make([][]*mdes.Block, len(machines))
	refs := make([]*reference, len(machines))
	for mi, m := range machines {
		us, err := units(m, machineSeed(r.seed, 20+mi), coldCountOps, coldCheckOps)
		if err != nil {
			return err
		}
		checkBlocks[mi] = us[0]
		for _, u := range us {
			corpus[mi] = append(corpus[mi], u...)
		}
		if refs[mi], err = referenceFor(ctx, m, corpus[mi]); err != nil {
			return err
		}
	}
	if r.corrupt {
		refs[0].falsify()
	}
	machineOf := func(i int) int { return i / 2 } // descs are machine-major, two forms each

	var (
		counters = map[mdes.BuiltinName]*mdes.Counters{}
		checkNs  int64
		attempts int64
	)
	for _, m := range machines {
		counters[m] = &mdes.Counters{}
	}
	// schedule schedules blocks, the first of a machine's corpus, on
	// engine i and compares them with the reference.
	schedule := func(i int, e *mdes.Engine, blocks []*mdes.Block) (mdes.Counters, time.Duration) {
		mi := machineOf(i)
		m := machines[mi]
		sp := r.tr.begin("engine.schedule."+string(m), r.nextOp(), -1)
		t0 := time.Now()
		res, tot, err := e.ScheduleBlocks(ctx, blocks, 1)
		d := time.Since(t0)
		r.tr.end(sp)
		r.attempted++
		if err != nil {
			r.fail("%s: %v", descs[i], err)
			return tot, d
		}
		for j, rs := range res {
			if !refs[mi].matches(j, rs.Issue, rs.Length) {
				r.fail("%s block %d: schedule differs from the reference", descs[i], j)
				break
			}
		}
		return tot, d
	}
	// check schedules the machine's check blocks on a freshly built
	// engine, outside the timed rounds.
	check := func(i int, e *mdes.Engine) {
		tot, d := schedule(i, e, checkBlocks[machineOf(i)])
		checkNs += d.Nanoseconds()
		attempts += tot.Attempts
	}

	// Set-up: the first population of an empty cache, 8 full builds
	// stored; several times into fresh directories, setup_s is the median.
	deltas := map[string]float64{}
	var setups []float64
	var compiled []*mdes.Compiled
	for k := 0; k < coldSetups; k++ {
		store, err := descache.Open(filepath.Join(r.dir, fmt.Sprintf("setup-%d", k)), 0)
		if err != nil {
			return err
		}
		op := r.nextOp()
		root := r.tr.begin("setup", op, -1)
		t0 := time.Now()
		compiled = compiled[:0]
		for _, d := range descs {
			var dl map[string]float64
			if k == 0 {
				dl = deltas
			}
			c, err := r.compile(op, root, d, mdes.LevelFull, dl)
			if err != nil {
				return err
			}
			arena, err := r.encodeArena(op, root, c)
			if err != nil {
				return err
			}
			if k == 0 {
				r.layers["lowlevel.arena_bytes"] += float64(len(arena))
			}
			if err := r.put(op, root, store, d.key(mdes.LevelFull), arena); err != nil {
				return err
			}
			compiled = append(compiled, c)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.tr.end(root)
	}
	r.e2e["setup_s"] = median(setups)
	size := 0
	for _, c := range compiled {
		size += c.Size().Total()
	}
	r.e2e["mdes_bytes"] = float64(size)

	store, err := descache.Open(filepath.Join(r.dir, "cache"), 0)
	if err != nil {
		return err
	}
	// buildRound brings every description up from source and returns the
	// round's duration; the engines are checked after the clock stops.
	buildRound := func(op int64, traced bool) (time.Duration, error) {
		tr := r.tr
		if !traced {
			r.tr = nil
		}
		defer func() { r.tr = tr }()
		engines := make([]*mdes.Engine, len(descs))
		root := r.tr.begin("op.coldstart", op, -1)
		t0 := time.Now()
		for i, d := range descs {
			c, err := r.compile(op, root, d, mdes.LevelFull, nil)
			if err != nil {
				return 0, err
			}
			arena, err := r.encodeArena(op, root, c)
			if err != nil {
				return 0, err
			}
			if err := r.put(op, root, store, d.key(mdes.LevelFull), arena); err != nil {
				return 0, err
			}
			if engines[i], err = r.newEngine(op, root, c); err != nil {
				return 0, err
			}
		}
		d := time.Since(t0)
		r.tr.end(root)
		r.tr = tr
		for i, e := range engines {
			check(i, e)
		}
		return d, nil
	}

	// Untimed warm-up iteration. Its engines also schedule the whole
	// corpus, which gives the exact checks per attempt of all 8.
	if _, err := buildRound(r.nextOp(), false); err != nil {
		return err
	}
	var warm mdes.Counters
	for i, c := range compiled {
		e, err := mdes.NewEngine(c)
		if err != nil {
			return err
		}
		tot, _ := schedule(i, e, corpus[machineOf(i)])
		warm.Add(tot)
		counters[machines[machineOf(i)]].Add(tot)
	}
	r.e2e["checks_per_attempt"] = warm.ChecksPerAttempt()
	if _, err := r.hitRound(r.nextOp(), store, descs, mdes.LevelFull, check); err != nil {
		return err
	}
	checkNs, attempts = 0, 0

	// Timed interval. Traced runs trace every other build round; the
	// untraced rounds between them give the tracing overhead.
	var lat, latTraced, hit, one, iterMs []float64
	var latAt []time.Duration
	iv := beginInterval()
	deadline := iv.start.Add(time.Duration(r.seconds * float64(time.Second)))
	iters := 0
	for ; time.Now().Before(deadline); iters++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		traced := r.tr != nil && iters%2 == 0
		it0 := time.Now()
		d, err := buildRound(r.nextOp(), traced)
		if err != nil {
			return err
		}
		if traced {
			latTraced = append(latTraced, ms(d))
		} else {
			lat, latAt = append(lat, ms(d)), append(latAt, it0.Sub(iv.start))
		}
		per, err := r.hitRound(r.nextOp(), store, descs, mdes.LevelFull, check)
		if err != nil {
			return err
		}
		hit = append(hit, sum(per))
		one = append(one, per...)
		iterMs = append(iterMs, ms(time.Since(it0)))
	}
	iv.end()
	// Engines brought up per second at the median iteration: robust to the
	// few iterations a host stall hits, as a median is.
	r.e2e["throughput_per_s"] = float64(2*len(descs)) / (median(iterMs) / 1e3)
	r.e2e["hit_p50_ms"] = median(hit)
	r.e2e["swap_p50_ms"] = median(one)
	r.reportLatency(lat, latAt, coldWindow, 0, 0.9)
	r.reportInterval(iv.u0, iv.u1, iv.h0, iv.h1, int64(iters))

	if r.tr != nil {
		r.reportColdLayers()
		r.reportOptDeltas(deltas)
		for _, m := range servedMachines {
			r.reportSelf("engine.schedule_ms."+string(m), "engine.schedule."+string(m))
		}
		var blocks int64
		for _, c := range corpus {
			blocks += 2 * int64(len(c))
		}
		r.reportCounters(counters, blocks)
		if attempts > 0 {
			r.layers["sched.ns_per_attempt"] = float64(checkNs) / float64(attempts)
		}
		r.layers["trace.overhead_ms"] = median(latTraced) - median(lat)
		r.reportReconcile("op.coldstart")
		loads, err := r.serveInputs(ctx, serveRequestOps, probeBodies)
		if err != nil {
			return err
		}
		runtime.GOMAXPROCS(procs)
		if err := r.servingProbe(ctx, loads); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: coldstart %d iterations in %.2fs\n", iters, iv.wall.Seconds())
	return nil
}
