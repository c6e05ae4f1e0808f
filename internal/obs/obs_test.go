package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"mdes/internal/stats"
)

func TestLatencyBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 38, NumLatencyBuckets - 1}, {1 << 62, NumLatencyBuckets - 1},
	}
	for _, c := range cases {
		if got := latencyBucket(c.ns); got != c.want {
			t.Errorf("latencyBucket(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every bucket's contents must be below its upper bound (except the
	// overflow bucket) and at or above the previous bound.
	for ns := int64(1); ns < 1<<20; ns *= 3 {
		b := latencyBucket(ns)
		if b < NumLatencyBuckets-1 && ns >= BucketUpperBound(b) {
			t.Errorf("ns %d landed in bucket %d with bound %d", ns, b, BucketUpperBound(b))
		}
		if b > 0 && ns < BucketUpperBound(b-1) {
			t.Errorf("ns %d in bucket %d but below previous bound %d", ns, b, BucketUpperBound(b-1))
		}
	}
}

func TestLocalMergeSnapshot(t *testing.T) {
	r := NewRegistry([]string{"alu", "mem"}, []string{"r0", "r1", "r2"})
	l := newTestLocal(r)
	l.attempt(PhaseList, 0, 3, 7, 100, true)
	l.attempt(PhaseList, 0, 5, 9, 200, false)
	l.Conflict(0, 2, 0)
	l.attempt(PhaseQuery, 1, 1, 1, 50, true)
	l.BlockDone(PhaseModulo, 0, 1, -1, stats.Counters{Backtracks: 4})
	l.Merge()

	s := r.Snapshot()
	list := s.Phases[PhaseList]
	if list.Attempts != 2 || list.OptionsChecked != 8 || list.ResourceChecks != 16 {
		t.Fatalf("list phase = %+v", list)
	}
	if list.Conflicts != 1 {
		t.Fatalf("list conflicts = %d", list.Conflicts)
	}
	// Timed samples extrapolate: each carries TimestampPeriod weight.
	if list.CheckNsSum != 300*TimestampPeriod {
		t.Fatalf("list ns sum = %d", list.CheckNsSum)
	}
	if got := s.Phases[PhaseModulo].Backtracks; got != 4 {
		t.Fatalf("modulo backtracks = %d", got)
	}
	if s.Classes[0].Attempts != 2 || s.Classes[0].Conflicts != 1 {
		t.Fatalf("class 0 = %+v", s.Classes[0])
	}
	if s.Classes[1].Attempts != 1 {
		t.Fatalf("class 1 = %+v", s.Classes[1])
	}
	if s.Resources[2].Conflicts != 1 || s.Resources[0].Conflicts != 0 {
		t.Fatalf("resources = %+v", s.Resources)
	}
	if s.Merges != 1 {
		t.Fatalf("merges = %d", s.Merges)
	}

	// A histogram sample must land somewhere, weighted by the period.
	var histTotal int64
	for _, n := range list.CheckNs {
		histTotal += n
	}
	if histTotal != 2*TimestampPeriod {
		t.Fatalf("histogram total = %d, want %d", histTotal, 2*TimestampPeriod)
	}

	// Untimed attempts (ns < 0, the non-sampled majority) count attempts
	// but leave the latency histogram alone.
	l2 := newTestLocal(r)
	l2.attempt(PhaseList, 0, 1, 1, -1, true)
	l2.Merge()
	after := r.Snapshot().Phases[PhaseList]
	if after.Attempts != list.Attempts+1 {
		t.Fatalf("untimed attempt not counted: %d", after.Attempts)
	}
	if after.CheckNsSum != list.CheckNsSum {
		t.Fatalf("untimed attempt changed ns sum: %d -> %d", list.CheckNsSum, after.CheckNsSum)
	}

	// Merge resets the buffer; a re-borrowed clean buffer merges as a
	// no-op.
	l.Begin()
	l.Merge()
	if got := r.Snapshot(); got.Merges != 2 || got.InFlight != 0 {
		t.Fatalf("clean buffer bumped merges (%d) or left in-flight %d", got.Merges, got.InFlight)
	}
}

func TestMergeConcurrent(t *testing.T) {
	r := NewRegistry([]string{"c"}, []string{"r"})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := newTestLocal(r)
			for i := 0; i < per; i++ {
				l.attempt(PhaseList, 0, 2, 4, 10, i%10 == 0)
			}
			l.Merge()
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Phases[PhaseList].Attempts != workers*per {
		t.Fatalf("attempts = %d, want %d", s.Phases[PhaseList].Attempts, workers*per)
	}
	if s.Merges != workers {
		t.Fatalf("merges = %d", s.Merges)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry([]string{"alu"}, []string{"r0"})
	l := newTestLocal(r)
	l.attempt(PhaseList, 0, 2, 4, 128, false)
	l.Conflict(0, 0, 0)
	l.Merge()
	var b strings.Builder
	WritePrometheus(&b, r.Snapshot())
	out := b.String()
	for _, want := range []string{
		`mdes_attempts_total{phase="list"} 1`,
		`mdes_conflicts_total{phase="list"} 1`,
		`mdes_class_attempts_total{class="alu"} 1`,
		`mdes_resource_conflicts_total{resource="r0"} 1`,
		fmt.Sprintf(`mdes_check_duration_ns_sum{phase="list"} %d`, 128*TimestampPeriod),
		fmt.Sprintf(`mdes_check_duration_ns_bucket{phase="list",le="+Inf"} %d`, TimestampPeriod),
		"mdes_contexts_in_flight 0",
		"mdes_context_merges_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

func TestServeMetrics(t *testing.T) {
	r := NewRegistry([]string{"alu"}, []string{"r0"})
	l := newTestLocal(r)
	l.attempt(PhaseList, 0, 1, 1, 10, true)
	l.Merge()
	srv, err := ServeMetrics("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, `mdes_attempts_total{phase="list"} 1`) {
		t.Errorf("/metrics missing attempts:\n%s", out)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	if snap.Phases[PhaseList].Attempts != 1 {
		t.Errorf("snapshot attempts = %d", snap.Phases[PhaseList].Attempts)
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestTopClasses(t *testing.T) {
	s := Snapshot{Classes: []ClassSnapshot{
		{Class: "a", Attempts: 1},
		{Class: "b", Attempts: 9},
		{Class: "c"},
		{Class: "d", Attempts: 9},
	}}
	top := TopClasses(s, 2)
	if len(top) != 2 || top[0].Class != "b" || top[1].Class != "d" {
		t.Fatalf("top = %+v", top)
	}
}

func TestFormatRegistry(t *testing.T) {
	r := NewRegistry([]string{"alu"}, []string{"r0", "r1"})
	l := newTestLocal(r)
	l.attempt(PhaseList, 0, 2, 4, 100, false)
	l.Conflict(0, 1, 0)
	l.BlockDone(PhaseModulo, 0, 1, -1, stats.Counters{Backtracks: 2})
	l.Merge()
	out := FormatRegistry(r)
	for _, want := range []string{"list", "alu", "r1", "Attempts"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatRegistry missing %q:\n%s", want, out)
		}
	}
}

// testLedger builds a small two-pass ledger for exporter tests.
func testLedger() *Ledger {
	return &Ledger{
		Machine: "mini", Form: "AND/OR", Level: "full", Direction: "forward",
		WallNs: 3000,
		Before: SizeMetrics{Options: 10, Trees: 4, TotalBytes: 1000},
		After:  SizeMetrics{Options: 6, Trees: 4, TotalBytes: 700},
		Passes: []PassMetrics{
			{
				Pass: "redundancy/eliminate-redundant", WallNs: 2000,
				Before:  SizeMetrics{Options: 10, Trees: 4, TotalBytes: 1000},
				After:   SizeMetrics{Options: 6, Trees: 4, TotalBytes: 800},
				Changes: map[string]int{"optionsRemoved": 4},
			},
			{
				Pass: "bit-vector/pack", WallNs: 1000,
				Before: SizeMetrics{Options: 6, Trees: 4, TotalBytes: 800},
				After:  SizeMetrics{Options: 6, Trees: 4, TotalBytes: 700},
			},
		},
	}
}

func TestTranslatorLedgerInRegistry(t *testing.T) {
	r := NewRegistry([]string{"alu"}, []string{"r0"})
	if s := r.Snapshot(); s.Translator != nil {
		t.Fatal("fresh registry has a translator ledger")
	}
	led := testLedger()
	r.SetTranslator(led)
	if r.Translator() != led {
		t.Fatal("Translator() did not return the set ledger")
	}
	s := r.Snapshot()
	if s.Translator == nil || s.Translator.Machine != "mini" {
		t.Fatalf("snapshot translator: %+v", s.Translator)
	}

	// JSON round trip (the /metrics.json exporter path).
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"translator"`) ||
		!strings.Contains(string(data), `"redundancy/eliminate-redundant"`) {
		t.Fatalf("snapshot JSON lacks ledger:\n%s", data)
	}

	// Prometheus exposition.
	var b strings.Builder
	WritePrometheus(&b, s)
	out := b.String()
	for _, want := range []string{
		`mdes_translator_pass_duration_ns{pass="redundancy/eliminate-redundant"} 2000`,
		`mdes_translator_pass_delta_bytes{pass="bit-vector/pack"} -100`,
		`mdes_translator_duration_ns{level="full"} 3000`,
		`mdes_translator_size{when="before",metric="total_bytes"} 1000`,
		`mdes_translator_size{when="after",metric="total_bytes"} 700`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}

	// Human-readable report leads with the ledger.
	text := FormatSnapshot(s)
	if !strings.Contains(text, "Translator ledger: mini") ||
		!strings.Contains(text, "optionsRemoved=4") {
		t.Fatalf("FormatSnapshot lacks ledger section:\n%s", text)
	}
}

func TestLedgerDeltaAccounting(t *testing.T) {
	led := testLedger()
	if led.DeltaBytes() != -300 {
		t.Fatalf("ledger delta %d", led.DeltaBytes())
	}
	sum := 0
	for _, p := range led.Passes {
		sum += p.DeltaBytes()
	}
	if sum != led.DeltaBytes() {
		t.Fatalf("pass deltas sum to %d, total %d", sum, led.DeltaBytes())
	}
	out := FormatLedger(led)
	for _, want := range []string{"(input)", "redundancy/eliminate-redundant", "1000 -> 700 bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatLedger missing %q:\n%s", want, out)
		}
	}
}
