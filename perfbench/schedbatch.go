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

// sched-batch sizes. Each machine's corpus holds schedBatchOps static
// operations cut into units of schedBatchUnitOps; every unit is scheduled
// by one Engine.ScheduleBlocks call.
const (
	schedBatchOps     = 20000
	schedBatchUnitOps = 300
	schedBatchSetups  = 101
	hitRounds         = 301
)

// schedBatch is the library workload: a closed loop of one goroutine
// calling Engine.ScheduleBlocks on engines from plain NewEngine (library
// defaults, AND/OR form, level full) for all four paper machines.
func (r *run) schedBatch(ctx context.Context) error {
	// One goroutine drives the loop. With one P the garbage collector's
	// work is serial too, so the loop is exposed to host steal on one vCPU
	// rather than on both.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	machines := mdes.Builtins()
	descs, err := loadDescs(machines, mdes.FormAndOr)
	if err != nil {
		return err
	}

	// Inputs and references, outside every timed interval.
	type unitRef struct {
		m      int
		blocks []*mdes.Block
		first  int // index of the unit's first block in the machine's reference
	}
	var order []unitRef
	perMachine := make([][]unitRef, len(machines))
	refs := make([]*reference, len(machines))
	for mi, m := range machines {
		us, err := units(m, machineSeed(r.seed, mi), schedBatchOps, schedBatchUnitOps)
		if err != nil {
			return err
		}
		var all []*mdes.Block
		for _, u := range us {
			perMachine[mi] = append(perMachine[mi], unitRef{m: mi, blocks: u, first: len(all)})
			all = append(all, u...)
		}
		if refs[mi], err = referenceFor(ctx, m, all); err != nil {
			return err
		}
	}
	if r.corrupt {
		refs[0].falsify()
	}
	for j := 0; ; j++ {
		added := false
		for mi := range machines {
			if j < len(perMachine[mi]) {
				order = append(order, perMachine[mi][j])
				added = true
			}
		}
		if !added {
			break
		}
	}

	// Set-up: load, compile and optimize the four descriptions and build
	// their engines, several times; setup_s is the median.
	var (
		engines  []*mdes.Engine
		compiled []*mdes.Compiled
		setups   []float64
		deltas   = map[string]float64{}
	)
	for k := 0; k < schedBatchSetups; k++ {
		root := r.tr.begin("setup", int64(-1-k), -1)
		t0 := time.Now()
		engines, compiled = engines[:0], compiled[:0]
		for _, d := range descs {
			var dl map[string]float64
			if k == 0 {
				dl = deltas
			}
			c, err := r.compile(int64(-1-k), root, d, mdes.LevelFull, dl)
			if err != nil {
				return err
			}
			e, err := r.newEngine(int64(-1-k), root, c)
			if err != nil {
				return err
			}
			engines, compiled = append(engines, e), append(compiled, c)
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

	check := func(u unitRef, res []*mdes.Result, deps bool) {
		r.attempted++
		ref := refs[u.m]
		for i, rs := range res {
			if !ref.matches(u.first+i, rs.Issue, rs.Length) {
				r.fail("%s block %d: schedule differs from the reference", machines[u.m], u.first+i)
				return
			}
			if deps {
				if err := dependenceCheck(compiled[u.m], u.blocks[i], rs.Issue); err != nil {
					r.fail("%s block %d: %v", machines[u.m], u.first+i, err)
					return
				}
			}
		}
	}

	// Untimed warm-up: one pass over the corpus, which also checks every
	// distinct block's dependences and gives the exact checks per attempt.
	var corpus mdes.Counters
	for _, u := range order {
		res, tot, err := engines[u.m].ScheduleBlocks(ctx, u.blocks, 1)
		if err != nil {
			return err
		}
		check(u, res, true)
		corpus.Add(tot)
	}
	r.e2e["checks_per_attempt"] = corpus.ChecksPerAttempt()

	// Timed interval: closed loop over the corpus until the deadline.
	// Traced runs trace every other call; the untraced calls between them
	// give the tracing overhead within the same run.
	var (
		lat, latTraced []float64
		latAt          []time.Duration
		blocks         int64
		counters       = map[mdes.BuiltinName]*mdes.Counters{}
		schedNs        int64
		schedAttempts  int64
		doneAt         []time.Duration
		doneBlocks     []float64
	)
	for _, m := range machines {
		counters[m] = &mdes.Counters{}
	}
	iv := beginInterval()
	deadline := iv.start.Add(time.Duration(r.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline); i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		u := order[i%len(order)]
		traced := r.tr != nil && i%2 == 0
		var root, sp int32 = -1, -1
		if traced {
			root = r.tr.begin("op.sched-batch", int64(i), -1)
			sp = r.tr.begin("engine.schedule."+string(machines[u.m]), int64(i), root)
		}
		t0 := time.Now()
		res, tot, err := engines[u.m].ScheduleBlocks(ctx, u.blocks, 1)
		d := time.Since(t0)
		if traced {
			r.tr.end(sp)
			r.tr.end(root)
			latTraced = append(latTraced, ms(d))
			schedNs += d.Nanoseconds()
			schedAttempts += tot.Attempts
		} else {
			lat, latAt = append(lat, ms(d)), append(latAt, t0.Sub(iv.start))
		}
		if err != nil {
			r.attempted++
			r.fail("%s unit: %v", machines[u.m], err)
			continue
		}
		check(u, res, false)
		blocks += int64(len(u.blocks))
		doneAt, doneBlocks = append(doneAt, time.Since(iv.start)), append(doneBlocks, float64(len(u.blocks)))
		counters[machines[u.m]].Add(tot)
	}
	iv.end()
	// Blocks per second in the median whole 1-s window: unlike the total
	// over the interval, the median ignores the few windows a host stall hits.
	r.e2e["throughput_per_s"] = windowed(doneBlocks, doneAt, time.Second, sum)
	r.reportLatency(lat, latAt, time.Second, time.Second, 0.9)
	r.reportInterval(iv.u0, iv.u1, iv.h0, iv.h1, int64(len(lat)+len(latTraced)))

	// Warm start: the same four descriptions brought up from a
	// description cache, after the timed interval.
	store, err := descache.Open(filepath.Join(r.dir, "cache"), 0)
	if err != nil {
		return err
	}
	for i, d := range descs {
		arena, err := r.encodeArena(-1, -1, compiled[i])
		if err != nil {
			return err
		}
		r.layers["lowlevel.arena_bytes"] += float64(len(arena))
		if err := r.put(-1, -1, store, d.key(mdes.LevelFull), arena); err != nil {
			return err
		}
	}
	if err := r.hitPhase(ctx, store, descs, mdes.LevelFull, hitRounds); err != nil {
		return err
	}

	if r.tr != nil {
		r.reportColdLayers()
		r.reportOptDeltas(deltas)
		for _, m := range servedMachines {
			r.reportSelf("engine.schedule_ms."+string(m), "engine.schedule."+string(m))
		}
		r.reportCounters(counters, blocks)
		if schedAttempts > 0 {
			r.layers["sched.ns_per_attempt"] = float64(schedNs) / float64(schedAttempts)
		}
		r.layers["trace.overhead_ms"] = median(latTraced) - median(lat)
		r.reportReconcile("op.sched-batch")
		var probe []*tenantLoad
		for mi, m := range machines {
			for _, sm := range servedMachines {
				if m != sm {
					continue
				}
				var us [][]*mdes.Block
				var first []int
				for _, u := range perMachine[mi] {
					us, first = append(us, u.blocks), append(first, u.first)
				}
				t, err := newTenantLoad(m, us, first, refs[mi])
				if err != nil {
					return err
				}
				probe = append(probe, t)
			}
		}
		runtime.GOMAXPROCS(procs)
		if err := r.servingProbe(ctx, probe); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: sched-batch %d calls, %d blocks in %.2fs\n", len(lat)+len(latTraced), blocks, iv.wall.Seconds())
	return nil
}

// hitPhase rebuilds the descriptions' engines from the cache for the
// given number of rounds. hit_p50_ms is the median round, swap_p50_ms the
// median single description: one engine replaced from the cache.
func (r *run) hitPhase(ctx context.Context, store *descache.Store, descs []desc, level mdes.Level, rounds int) error {
	var round, one []float64
	for k := 0; k < rounds; k++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		per, err := r.hitRound(int64(-100-k), store, descs, level, nil)
		if err != nil {
			return err
		}
		round = append(round, sum(per))
		one = append(one, per...)
	}
	r.e2e["hit_p50_ms"] = median(round)
	r.e2e["swap_p50_ms"] = median(one)
	return nil
}

// hitRound opens every description from the cache and builds its engine,
// returning each one's time in milliseconds. Entries are closed after the
// engines are dropped, so the loop never accumulates mappings.
func (r *run) hitRound(op int64, store *descache.Store, descs []desc, level mdes.Level, check func(i int, e *mdes.Engine)) ([]float64, error) {
	per := make([]float64, len(descs))
	root := r.tr.begin("op.hit", op, -1)
	ents := make([]*descache.Entry, len(descs))
	engs := make([]*mdes.Engine, len(descs))
	for i, d := range descs {
		t0 := time.Now()
		ent, e, err := r.openCached(op, root, store, d.key(level))
		per[i] = ms(time.Since(t0))
		if err != nil {
			for _, prev := range ents[:i] {
				prev.Close()
			}
			r.tr.end(root)
			return nil, err
		}
		ents[i], engs[i] = ent, e
	}
	r.tr.end(root)
	for i, e := range engs {
		if check != nil {
			check(i, e)
		}
		engs[i] = nil
		if err := ents[i].Close(); err != nil {
			return nil, fmt.Errorf("closing cache entry: %w", err)
		}
	}
	return per, nil
}
