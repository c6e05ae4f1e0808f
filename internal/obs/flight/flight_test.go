package flight

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"

	"mdes/internal/stats"
)

// The histogram mapping must be monotonic and every bucket's bound an
// upper bound of the values it holds — otherwise quantiles could
// under-report tail latency.
func TestBucketBounds(t *testing.T) {
	prev := 0
	for _, ns := range []int64{0, 1, 3, 7, 8, 9, 100, 1000, 4095, 4096, 1 << 20, 1 << 40, 1<<62 + 1} {
		b := bucketOf(ns)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d, below previous bucket %d: not monotonic", ns, b, prev)
		}
		prev = b
		if bound := boundOf(b); bound < ns {
			t.Fatalf("boundOf(bucketOf(%d)) = %d, not an upper bound", ns, bound)
		}
		if b > 0 && boundOf(b-1) >= ns {
			t.Fatalf("value %d also fits bucket %d (bound %d): buckets overlap", ns, b-1, boundOf(b-1))
		}
	}
	if b := bucketOf(-5); b != 0 {
		t.Fatalf("negative reading in bucket %d, want 0", b)
	}
	if b := bucketOf(1 << 62); b >= numBuckets {
		t.Fatalf("bucket %d out of range", b)
	}
}

// Quantiles are upper-bound estimates with ~12.5% bucket resolution:
// never below the exact order statistic, never far above it.
func TestHistQuantile(t *testing.T) {
	var h hist
	if h.quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	const n = 1000
	for i := int64(1); i <= n; i++ {
		h.observe(i)
	}
	if h.count != n || h.max != n {
		t.Fatalf("count %d max %d after %d observations", h.count, h.max, n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := int64(q * n)
		got := h.quantile(q)
		if got < exact {
			t.Fatalf("q%.3f = %d, below exact %d: not an upper bound", q, got, exact)
		}
		if float64(got) > float64(exact)*1.2+2 {
			t.Fatalf("q%.3f = %d, more than ~12.5%% above exact %d", q, got, exact)
		}
	}
	if h.quantile(1.0) != n {
		t.Fatalf("q1.0 = %d, want capped at max %d", h.quantile(1.0), n)
	}
}

func TestTriggerString(t *testing.T) {
	for _, tc := range []struct {
		t    Trigger
		want string
	}{
		{0, "none"},
		{TrigLatency, "latency"},
		{TrigBacktrack, "backtrack"},
		{TrigLatency | TrigConflict, "latency+conflict"},
		{TrigLatency | TrigBacktrack | TrigConflict, "latency+backtrack+conflict"},
	} {
		if got := tc.t.String(); got != tc.want {
			t.Errorf("Trigger(%b).String() = %q, want %q", tc.t, got, tc.want)
		}
	}
}

// mergeEntries records entries as a context's buffer does — classified
// one by one as they complete, then merged as one batch — so the
// recorder's history (and so its armed thresholds) reflects them.
func mergeEntries(r *Recorder, entries ...Entry) {
	for i := range entries {
		r.Classify(&entries[i])
	}
	r.Merge(entries)
}

func TestAnomalyTriggers(t *testing.T) {
	r := NewRecorder(Config{
		MinBlocks:       4,
		LatencyFactor:   2,
		LatencyQuantile: 0.5,
		BacktrackDepth:  5,
		ConflictFactor:  2,
		MinAttempts:     10,
	})
	// Before any history merges, latency and conflict triggers are
	// disarmed; only the backtrack-depth constant can fire.
	r.Classify(&Entry{Phase: stats.PhaseList, WallNs: 1 << 40, Attempts: 100, Conflicts: 100})
	if n := r.AnomalyCount(); n != 0 {
		t.Fatalf("unarmed recorder flagged %d anomalies", n)
	}
	r.Classify(&Entry{Phase: stats.PhaseList, Backtracks: 5})
	if n := r.AnomalyCount(); n != 1 {
		t.Fatalf("backtrack depth flagged %d anomalies, want 1", n)
	}

	// Arm from history: 8 normal blocks (1µs, conflict rate 0.1).
	normals := make([]Entry, 8)
	for i := range normals {
		normals[i] = Entry{Block: int64(i), Phase: stats.PhaseList, WallNs: 1000, Attempts: 100, Conflicts: 10}
	}
	mergeEntries(r, normals...)

	if r.Classify(&Entry{Block: 100, Phase: stats.PhaseList, WallNs: 1000, Attempts: 100, Conflicts: 10}) {
		t.Fatalf("normal block flagged as anomaly (count %d)", r.AnomalyCount())
	}
	mergeEntries(r,
		Entry{Block: 101, Phase: stats.PhaseList, WallNs: 1 << 30},
		Entry{Block: 102, Phase: stats.PhaseList, WallNs: 1000, Attempts: 100, Conflicts: 50},
		Entry{Block: 103, Phase: stats.PhaseList, WallNs: 1000, Attempts: 5, Conflicts: 5})

	s := r.Snapshot()
	if s.Anomalies["latency"] != 1 {
		t.Fatalf("latency anomalies = %d, want 1 (snapshot %+v)", s.Anomalies["latency"], s.Anomalies)
	}
	if s.Anomalies["conflict"] != 1 {
		t.Fatalf("conflict anomalies = %d, want 1 (the %d-attempt block is under MinAttempts)", s.Anomalies["conflict"], 5)
	}
	if s.Anomalies["backtrack"] != 1 {
		t.Fatalf("backtrack anomalies = %d, want 1", s.Anomalies["backtrack"])
	}
	if len(s.Anomalous) != 3 {
		t.Fatalf("anomaly ring holds %d entries, want 3", len(s.Anomalous))
	}
}

func TestAutoDumpRateLimited(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(Config{BacktrackDepth: 1, AutoDump: &buf})
	for i := 0; i < 5; i++ {
		r.Classify(&Entry{Phase: stats.PhaseList, Backtracks: 1})
	}
	if d := r.Snapshot().Dumps; d != 1 {
		t.Fatalf("%d auto-dumps for one anomaly burst, want 1 (rate limit)", d)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("auto-dump is not valid JSON: %v", err)
	}
}

func TestSnapshotRecentOrderAndMeta(t *testing.T) {
	r := NewRecorder(Config{Capacity: 4})
	r.SetMeta("K5", func() string { return "deadbeef00000000" }, "probeplan")
	entries := make([]Entry, 6)
	for i := range entries {
		entries[i] = Entry{Block: int64(i), Phase: stats.PhaseList, WallNs: int64(100 * (i + 1))}
	}
	mergeEntries(r, entries...)

	s := r.Snapshot()
	if s.Machine != "K5" || s.MachineHash != "deadbeef00000000" || s.Checker != "probeplan" {
		t.Fatalf("meta %q/%q/%q not preserved", s.Machine, s.MachineHash, s.Checker)
	}
	if s.Blocks != 6 || s.Merges != 1 {
		t.Fatalf("blocks %d merges %d, want 6 and 1", s.Blocks, s.Merges)
	}
	if len(s.Recent) != 4 {
		t.Fatalf("recent ring holds %d, want capacity 4", len(s.Recent))
	}
	for i, e := range s.Recent {
		want := int64(2 + i)
		if e.Block != want {
			t.Fatalf("recent[%d].Block = %d, want %d (oldest-first)", i, e.Block, want)
		}
		if e.Seq != want+1 {
			t.Fatalf("recent[%d].Seq = %d, want %d (merge order)", i, e.Seq, want+1)
		}
	}
	if len(s.Quantiles) != 1 || s.Quantiles[0].Phase != stats.PhaseList.String() {
		t.Fatalf("quantiles %+v, want one entry for the list phase", s.Quantiles)
	}
	if q := s.Quantiles[0]; q.Count != 6 || q.MaxNs != 600 || len(q.Exemplars) == 0 {
		t.Fatalf("phase summary %+v: want count 6, max 600, exemplars", q)
	}
	if s.Quantiles[0].Exemplars[0].WallNs != 600 {
		t.Fatalf("worst exemplar %+v, want the 600ns block", s.Quantiles[0].Exemplars[0])
	}
}

func TestWriteDumpAndPrometheus(t *testing.T) {
	r := NewRecorder(Config{})
	r.SetMeta("K5", func() string { return "deadbeef00000000" }, "automaton")
	mergeEntries(r,
		Entry{Block: 1, Phase: stats.PhaseList, WallNs: 1000, Attempts: 10},
		Entry{Block: 2, Phase: stats.PhaseOpDriven, WallNs: 2000, Attempts: 20})

	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if s.Blocks != 2 || len(s.Recent) != 2 {
		t.Fatalf("dump snapshot %+v, want 2 blocks", s)
	}
	if s.Recent[0].PhaseName != stats.PhaseList.String() {
		t.Fatalf("dump entry phase %q, want %q", s.Recent[0].PhaseName, stats.PhaseList)
	}

	var b strings.Builder
	r.WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		`mdes_block_schedule_ns{phase="list",quantile="0.999"}`,
		`mdes_block_schedule_ns_count{phase="list"} 1`,
		`mdes_flight_blocks_total 2`,
		`mdes_flight_anomalies_total{trigger="latency"} 0`,
		`mdes_flight_worst_block_ns{phase="list",block="1"} 1000`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

// Eight recording goroutines merging against concurrent dumpers: run
// under -race by CI. Every entry must be counted exactly once.
func TestMergeUnderConcurrentDump(t *testing.T) {
	r := NewRecorder(Config{Capacity: 64, PerContext: 16, BacktrackDepth: 8, AutoDump: io.Discard})
	const (
		writers         = 8
		mergesPerWriter = 25
		entriesPerMerge = 16
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.WriteDump(io.Discard)
				var b strings.Builder
				r.WritePrometheus(&b)
				r.Status()
			}
		}()
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for m := 0; m < mergesPerWriter; m++ {
				entries := make([]Entry, entriesPerMerge)
				for i := range entries {
					entries[i] = Entry{
						Block:      int64(w*1000 + m*100 + i),
						Phase:      stats.Phase(i % int(stats.NumPhases)),
						WallNs:     int64(i + 1),
						Attempts:   int64(i),
						Backtracks: int64(i), // some trip the backtrack trigger
					}
				}
				mergeEntries(r, entries...)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	if got, want := r.Blocks(), int64(writers*mergesPerWriter*entriesPerMerge); got != want {
		t.Fatalf("recorder merged %d blocks, want %d: entries lost or double-counted", got, want)
	}
	s := r.Snapshot()
	if len(s.Recent) != 64 {
		t.Fatalf("recent ring holds %d, want full capacity 64", len(s.Recent))
	}
	for i := 1; i < len(s.Recent); i++ {
		if s.Recent[i].Seq <= s.Recent[i-1].Seq {
			t.Fatalf("recent ring out of merge order at %d: seq %d then %d", i, s.Recent[i-1].Seq, s.Recent[i].Seq)
		}
	}
}
