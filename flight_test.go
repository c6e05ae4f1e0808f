package mdes_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"mdes"
	"mdes/internal/obs"
)

// TestEngineFlightRecorder wires a flight recorder through the public
// API and checks the full loop: schedule, merge-on-release, snapshot
// meta, quantiles, and the HTTP surface.
func TestEngineFlightRecorder(t *testing.T) {
	machine, err := mdes.Builtin(mdes.K5)
	if err != nil {
		t.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	mdes.Optimize(compiled, mdes.LevelFull)
	rec := mdes.NewFlightRecorder(mdes.FlightConfig{})
	eng, err := mdes.NewEngine(compiled,
		mdes.WithChecker(mdes.CheckerProbePlan),
		mdes.WithFlight(rec))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Flight() != rec {
		t.Fatal("Engine.Flight() did not return the attached recorder")
	}
	blocks := testBlocks(t, mdes.K5, 2000)
	if _, _, err := eng.ScheduleBlocks(context.Background(), blocks, 4); err != nil {
		t.Fatal(err)
	}

	snap := rec.Snapshot()
	if snap.Blocks != int64(len(blocks)) {
		t.Fatalf("recorder merged %d blocks, scheduled %d", snap.Blocks, len(blocks))
	}
	if snap.Machine != "K5" || len(snap.MachineHash) != 16 {
		t.Errorf("snapshot meta = %q / %q", snap.Machine, snap.MachineHash)
	}
	if snap.Checker == "" {
		t.Error("snapshot has no checker name")
	}
	foundList := false
	for _, q := range snap.Quantiles {
		if q.Count == 0 {
			continue
		}
		foundList = true
		if q.P50 <= 0 || q.P999 < q.P50 {
			t.Errorf("phase %s quantiles: p50 %d, p999 %d", q.Phase, q.P50, q.P999)
		}
	}
	if !foundList {
		t.Error("no phase recorded any latency samples")
	}

	srv, err := mdes.ServeMetrics("127.0.0.1:0", mdes.NewMetrics(compiled), mdes.WithFlightExporter(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	var health struct {
		Status string `json:"status"`
		Blocks int64  `json:"blocks"`
	}
	if err := json.Unmarshal([]byte(get("/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Blocks != int64(len(blocks)) {
		t.Errorf("/healthz = %+v", health)
	}
	var dump struct {
		MachineHash string `json:"machine_hash"`
	}
	if err := json.Unmarshal([]byte(get("/debug/flight")), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.MachineHash != snap.MachineHash {
		t.Errorf("/debug/flight hash %q, snapshot %q", dump.MachineHash, snap.MachineHash)
	}
	if out := get("/metrics"); !strings.Contains(out, "mdes_flight_blocks_total") {
		t.Errorf("/metrics missing flight series:\n%s", out)
	}
}

// Every block of a long borrow must reach the flight recorder: a full
// per-context ring spills into the recorder instead of overwriting its
// oldest entries. 20,000 K5 ops are 1,225 blocks on one context at
// parallelism 1, far more than the 256-entry ring; the block count, the
// latency histogram and the per-block counters must all cover every
// block and agree with the metrics registry.
func TestFlightCountsEveryBlock(t *testing.T) {
	machine, err := mdes.Builtin(mdes.K5)
	if err != nil {
		t.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	mdes.Optimize(compiled, mdes.LevelFull)
	rec := mdes.NewFlightRecorder(mdes.FlightConfig{})
	metrics := mdes.NewMetrics(compiled)
	eng, err := mdes.NewEngine(compiled, mdes.WithMetrics(metrics), mdes.WithFlight(rec))
	if err != nil {
		t.Fatal(err)
	}
	blocks := testBlocks(t, mdes.K5, 20000)
	if _, _, err := eng.ScheduleBlocks(context.Background(), blocks, 1); err != nil {
		t.Fatal(err)
	}

	snap := rec.Snapshot()
	if snap.Blocks != int64(len(blocks)) {
		t.Fatalf("flight recorder counted %d blocks, scheduled %d", snap.Blocks, len(blocks))
	}
	var samples int64
	for _, q := range snap.Quantiles {
		samples += q.Count
	}
	if samples != int64(len(blocks)) {
		t.Fatalf("latency histograms hold %d samples, want %d", samples, len(blocks))
	}
	var attempts int64
	seen := make(map[int64]bool)
	for _, e := range snap.Recent {
		attempts += e.Attempts
		seen[e.Block] = true
	}
	if len(seen) != len(blocks) {
		t.Fatalf("recent entries name %d distinct blocks, want %d", len(seen), len(blocks))
	}
	if want := metrics.Snapshot().Phases[obs.PhaseList].Attempts; attempts != want {
		t.Fatalf("flight entries sum to %d attempts, metrics counted %d", attempts, want)
	}
}

// TestFlightRecorderOverheadGate is the CI cost gate for the tentpole's
// "always-on" claim: with the flight recorder attached, block scheduling
// must cost < 2% wall-clock over a bare engine. Same methodology as
// TestEnabledMetricsOverheadGate: noise is one-sided, so compare minima
// over alternating rounds.
func TestFlightRecorderOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock gate; skipped in -short")
	}
	machine, err := mdes.Builtin(mdes.K5)
	if err != nil {
		t.Fatal(err)
	}
	compiled := mdes.Compile(machine, mdes.FormAndOr)
	mdes.Optimize(compiled, mdes.LevelFull)
	blocks := testBlocks(t, mdes.K5, 20000)

	off, err := mdes.NewEngine(compiled, mdes.WithChecker(mdes.CheckerProbePlan))
	if err != nil {
		t.Fatal(err)
	}
	on, err := mdes.NewEngine(compiled,
		mdes.WithChecker(mdes.CheckerProbePlan),
		mdes.WithFlight(mdes.NewFlightRecorder(mdes.FlightConfig{})))
	if err != nil {
		t.Fatal(err)
	}

	run := func(eng *mdes.Engine) time.Duration {
		t0 := time.Now()
		if _, _, err := eng.ScheduleBlocks(context.Background(), blocks, 1); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	run(off)
	run(on)

	// Noise is one-sided — preemption and cache pollution only ever
	// inflate a reading — so a measurement attempt that lands under the
	// bound proves the true cost is under it, while a noisy attempt can
	// only overstate. Take the min over alternating rounds and allow a
	// few attempts before declaring the budget blown.
	const (
		rounds   = 15
		attempts = 3
		bound    = 0.02
	)
	var overhead float64
	var minOff, minOn time.Duration
	for a := 0; a < attempts; a++ {
		minOff, minOn = time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < rounds; i++ {
			if d := run(off); d < minOff {
				minOff = d
			}
			if d := run(on); d < minOn {
				minOn = d
			}
		}
		overhead = float64(minOn)/float64(minOff) - 1
		t.Logf("attempt %d: flight off %v, on %v, overhead %.2f%%", a, minOff, minOn, overhead*100)
		if overhead < bound {
			return
		}
	}
	t.Fatalf("always-on flight recording cost %.2f%% (off %v, on %v, %d rounds x %d attempts); the bound is <2%%",
		overhead*100, minOff, minOn, rounds, attempts)
}
