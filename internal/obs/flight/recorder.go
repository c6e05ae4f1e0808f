package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdes/internal/stats"
)

// Config parameterizes a Recorder. The zero value is a sensible always-on
// configuration; every field has a default.
type Config struct {
	// PerContext is each context ring's capacity (default 256 entries);
	// a full ring spills into the Recorder before it is overwritten.
	PerContext int
	// Capacity is the merged global ring's capacity (default 4096).
	Capacity int
	// AnomalyCapacity bounds the dedicated anomaly ring (default 128).
	AnomalyCapacity int

	// LatencyQuantile (default 0.999) and LatencyFactor (default 8): a
	// block whose wall time exceeds LatencyFactor times the running
	// LatencyQuantile estimate for its phase trips TrigLatency. The
	// trigger arms only once the phase has MinBlocks merged entries.
	// LatencyFactor <= 0 disables the trigger.
	LatencyQuantile float64
	LatencyFactor   float64

	// BacktrackDepth trips TrigBacktrack when a block's backtrack count
	// reaches it (default 64; <= 0 disables).
	BacktrackDepth int64

	// ConflictFactor trips TrigConflict when a block's conflict rate
	// exceeds ConflictFactor times the running mean conflict rate
	// (default 4; <= 0 disables). Blocks with fewer than MinAttempts
	// attempts are exempt (default 32).
	ConflictFactor float64
	MinAttempts    int64

	// MinBlocks is the merged-history size required before the
	// latency and conflict triggers arm (default 512).
	MinBlocks int64

	// AutoDump, when non-nil, receives one JSON dump of the full
	// recorder state per anomaly burst. Dumps are rate-limited to one
	// per DumpInterval (default 10s). The writer must be safe for
	// concurrent use if schedulers run concurrently.
	AutoDump     io.Writer
	DumpInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.PerContext <= 0 {
		c.PerContext = 256
	}
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.AnomalyCapacity <= 0 {
		c.AnomalyCapacity = 128
	}
	if c.LatencyQuantile <= 0 || c.LatencyQuantile > 1 {
		c.LatencyQuantile = 0.999
	}
	if c.LatencyFactor == 0 {
		c.LatencyFactor = 8
	}
	if c.BacktrackDepth == 0 {
		c.BacktrackDepth = 64
	}
	if c.ConflictFactor == 0 {
		c.ConflictFactor = 4
	}
	if c.MinAttempts <= 0 {
		c.MinAttempts = 32
	}
	if c.MinBlocks <= 0 {
		c.MinBlocks = 512
	}
	if c.DumpInterval <= 0 {
		c.DumpInterval = 10 * time.Second
	}
	return c
}

// exemplarsPerPhase is how many worst-block exemplars each phase retains.
const exemplarsPerPhase = 4

// Exemplar names one of a phase's worst blocks: the trace ID to replay.
type Exemplar struct {
	Block  int64 `json:"block"`
	Seq    int64 `json:"seq"`
	WallNs int64 `json:"wall_ns"`
}

// Recorder is the shared flight recorder one engine's contexts merge
// into: a bounded global ring of recent entries, a dedicated anomaly
// ring, and per-phase streaming latency histograms serving tail
// quantiles. All methods are safe for concurrent use.
type Recorder struct {
	cfg Config

	// Identity labels (SetMeta): constant after engine construction.
	machine     atomic.Pointer[string]
	machineHash atomic.Pointer[func() string]
	checker     atomic.Pointer[string]

	// Armed thresholds, read lock-free by Classify once per block.
	// latThreshold[p] is the ns bound for phase p (0 = disarmed);
	// conflictMilli is the per-mille conflict-rate bound (0 = disarmed).
	latThreshold  [stats.NumPhases]atomic.Int64
	conflictMilli atomic.Int64

	anomalies  [numTriggers]atomic.Int64
	dumps      atomic.Int64
	lastDumpNs atomic.Int64

	mu        sync.Mutex
	ring      []Entry
	next      int
	n         int
	seq       int64
	merges    int64
	blocks    int64
	attempts  int64
	conflicts int64
	lat       [stats.NumPhases]hist
	worst     [stats.NumPhases][]Exemplar
	anomRing  []Entry
	anomNext  int
	anomN     int
}

// NewRecorder returns a flight recorder with the given configuration
// (zero value for defaults).
func NewRecorder(cfg Config) *Recorder {
	c := cfg.withDefaults()
	return &Recorder{
		cfg:      c,
		ring:     make([]Entry, c.Capacity),
		anomRing: make([]Entry, c.AnomalyCapacity),
	}
}

// SetMeta records the identity of what is being observed: the machine
// name, the compiled description's content fingerprint, and the checker
// backend (mdes.NewEngine sets them). Dumps and exporters report them so
// a flight dump is attributable to an exact description. machineHash is
// called when a snapshot is taken, never here, so stamping an engine
// costs no fingerprint.
func (r *Recorder) SetMeta(machine string, machineHash func() string, checker string) {
	r.machine.Store(&machine)
	r.machineHash.Store(&machineHash)
	r.checker.Store(&checker)
}

func loadStr(p *atomic.Pointer[string]) string {
	if s := p.Load(); s != nil {
		return *s
	}
	return ""
}

func callStr(p *atomic.Pointer[func() string]) string {
	if f := p.Load(); f != nil {
		return (*f)()
	}
	return ""
}

// PerContext returns the capacity of each context's ring.
func (r *Recorder) PerContext() int { return r.cfg.PerContext }

// Classify evaluates the armed anomaly triggers against a block's entry
// as it is recorded, sets e.Trigger and retains an anomalous entry. The common path is at most
// three atomic loads; it reports whether it took the slow path (the
// recorder's lock, possibly an auto-dump), so the caller can keep that
// work off the next block's clock.
func (r *Recorder) Classify(e *Entry) bool {
	if e.Trigger = r.classify(e); e.Trigger == 0 {
		return false
	}
	r.noteAnomaly(*e)
	return true
}

// classify evaluates the armed anomaly triggers against an entry with at
// most three atomic loads.
func (r *Recorder) classify(e *Entry) Trigger {
	var t Trigger
	if th := r.latThreshold[e.Phase].Load(); th > 0 && e.WallNs > th {
		t |= TrigLatency
	}
	if d := r.cfg.BacktrackDepth; d > 0 && e.Backtracks >= d {
		t |= TrigBacktrack
	}
	if m := r.conflictMilli.Load(); m > 0 && e.Attempts >= r.cfg.MinAttempts &&
		e.Conflicts*1000 > m*e.Attempts {
		t |= TrigConflict
	}
	return t
}

// noteAnomaly retains an anomalous entry in the anomaly ring, counts it,
// and fires the rate-limited auto-dump when one is configured.
func (r *Recorder) noteAnomaly(e Entry) {
	for i := 0; i < numTriggers; i++ {
		if e.Trigger&(1<<i) != 0 {
			r.anomalies[i].Add(1)
		}
	}
	r.mu.Lock()
	if r.anomN < len(r.anomRing) {
		r.anomRing[r.anomN] = e
		r.anomN++
	} else {
		r.anomRing[r.anomNext] = e
		r.anomNext = (r.anomNext + 1) % len(r.anomRing)
	}
	r.mu.Unlock()

	if r.cfg.AutoDump == nil {
		return
	}
	now := time.Now().UnixNano()
	last := r.lastDumpNs.Load()
	if now-last < int64(r.cfg.DumpInterval) || !r.lastDumpNs.CompareAndSwap(last, now) {
		return
	}
	r.dumps.Add(1)
	// Best effort: an auto-dump failure must never affect scheduling.
	_ = r.WriteDump(r.cfg.AutoDump)
}

// Merge folds one context's recorded entries, oldest first, into the
// recorder: they enter the global ring with merge sequence numbers, the
// per-phase latency histograms and worst-block exemplars absorb them, and
// the anomaly thresholds re-arm from the enlarged history. A context
// calls it when its ring fills and when it is released, never per
// block; merging nothing is free.
func (r *Recorder) Merge(entries []Entry) {
	if len(entries) == 0 {
		return
	}
	r.mu.Lock()
	// The running totals stay in locals through the loop, so an entry
	// does not wait on the previous one's stores.
	seq, blocks, attempts, conflicts := r.seq, r.blocks, r.attempts, r.conflicts
	for i := range entries {
		slot := r.n
		if r.n < len(r.ring) {
			r.n++
		} else {
			slot = r.next
			if r.next++; r.next == len(r.ring) {
				r.next = 0
			}
		}
		e := &r.ring[slot]
		*e = entries[i]
		seq++
		e.Seq = seq
		if p := e.Phase; int(p) < int(stats.NumPhases) {
			r.lat[p].observe(e.WallNs)
			if w := r.worst[p]; len(w) < exemplarsPerPhase || e.WallNs > w[len(w)-1].WallNs {
				r.noteWorst(e)
			}
		}
		blocks++
		attempts += e.Attempts
		conflicts += e.Conflicts
	}
	r.seq, r.blocks, r.attempts, r.conflicts = seq, blocks, attempts, conflicts
	r.merges++
	r.rearmLocked()
	r.mu.Unlock()
}

// noteWorst adds an entry slower than the phase's slowest kept blocks, or
// any while fewer are kept, to the per-phase worst-block exemplars, sorted
// by wall time descending. Called with mu held.
func (r *Recorder) noteWorst(e *Entry) {
	w := append(r.worst[e.Phase], Exemplar{Block: e.Block, Seq: e.Seq, WallNs: e.WallNs})
	sort.Slice(w, func(a, b int) bool { return w[a].WallNs > w[b].WallNs })
	if len(w) > exemplarsPerPhase {
		w = w[:exemplarsPerPhase]
	}
	r.worst[e.Phase] = w
}

// rearmLocked recomputes the lock-free trigger thresholds from the merged
// history. Called with mu held.
func (r *Recorder) rearmLocked() {
	if r.cfg.LatencyFactor > 0 {
		for p := 0; p < int(stats.NumPhases); p++ {
			if r.lat[p].count >= r.cfg.MinBlocks {
				q := r.lat[p].quantile(r.cfg.LatencyQuantile)
				r.latThreshold[p].Store(int64(r.cfg.LatencyFactor * float64(q)))
			}
		}
	}
	if r.cfg.ConflictFactor > 0 && r.blocks >= r.cfg.MinBlocks && r.attempts > 0 {
		mean := float64(r.conflicts) / float64(r.attempts)
		milli := int64(r.cfg.ConflictFactor * mean * 1000)
		if milli >= 1000 {
			milli = 0 // a rate can't exceed 1: disarm instead of never firing
		}
		if milli > 0 {
			r.conflictMilli.Store(milli)
		}
	}
}

// PhaseQuantiles is one phase's streaming tail-latency summary.
type PhaseQuantiles struct {
	Phase     string     `json:"phase"`
	Count     int64      `json:"count"`
	SumNs     int64      `json:"sum_ns"`
	MaxNs     int64      `json:"max_ns"`
	P50       int64      `json:"p50_ns"`
	P95       int64      `json:"p95_ns"`
	P99       int64      `json:"p99_ns"`
	P999      int64      `json:"p999_ns"`
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time copy of the recorder, the document
// /debug/flight serves and AutoDump writes.
type Snapshot struct {
	Machine     string           `json:"machine,omitempty"`
	MachineHash string           `json:"machine_hash,omitempty"`
	Checker     string           `json:"checker,omitempty"`
	Blocks      int64            `json:"blocks"`
	Merges      int64            `json:"merges"`
	Anomalies   map[string]int64 `json:"anomalies,omitempty"`
	Dumps       int64            `json:"dumps"`
	Quantiles   []PhaseQuantiles `json:"quantiles,omitempty"`
	Recent      []entryJSON      `json:"recent"`
	Anomalous   []entryJSON      `json:"anomalous,omitempty"`
}

// Snapshot copies the recorder's state: identity, totals, per-phase
// quantiles with exemplars, the recent-entry ring (oldest first), and the
// anomaly ring. Entries still in a borrowed context's ring are not
// included until it fills or the context is released, mirroring the
// metrics registry's contract.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Machine:     loadStr(&r.machine),
		MachineHash: callStr(&r.machineHash),
		Checker:     loadStr(&r.checker),
		Dumps:       r.dumps.Load(),
	}
	for i := 0; i < numTriggers; i++ {
		if n := r.anomalies[i].Load(); n > 0 {
			if s.Anomalies == nil {
				s.Anomalies = map[string]int64{}
			}
			s.Anomalies[triggerNames[i]] = n
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Blocks, s.Merges = r.blocks, r.merges
	for p := 0; p < int(stats.NumPhases); p++ {
		h := &r.lat[p]
		if h.count == 0 {
			continue
		}
		s.Quantiles = append(s.Quantiles, PhaseQuantiles{
			Phase:     stats.Phase(p).String(),
			Count:     h.count,
			SumNs:     h.sum,
			MaxNs:     h.max,
			P50:       h.quantile(0.50),
			P95:       h.quantile(0.95),
			P99:       h.quantile(0.99),
			P999:      h.quantile(0.999),
			Exemplars: append([]Exemplar(nil), r.worst[p]...),
		})
	}
	s.Recent = make([]entryJSON, 0, r.n)
	if r.n == len(r.ring) {
		for _, e := range r.ring[r.next:] {
			s.Recent = append(s.Recent, e.toJSON())
		}
		for _, e := range r.ring[:r.next] {
			s.Recent = append(s.Recent, e.toJSON())
		}
	} else {
		for _, e := range r.ring[:r.n] {
			s.Recent = append(s.Recent, e.toJSON())
		}
	}
	if r.anomN > 0 {
		s.Anomalous = make([]entryJSON, 0, r.anomN)
		if r.anomN == len(r.anomRing) {
			for _, e := range r.anomRing[r.anomNext:] {
				s.Anomalous = append(s.Anomalous, e.toJSON())
			}
			for _, e := range r.anomRing[:r.anomNext] {
				s.Anomalous = append(s.Anomalous, e.toJSON())
			}
		} else {
			for _, e := range r.anomRing[:r.anomN] {
				s.Anomalous = append(s.Anomalous, e.toJSON())
			}
		}
	}
	return s
}

// Blocks returns the number of merged entries so far.
func (r *Recorder) Blocks() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.blocks
}

// AnomalyCount returns the total anomalies flagged so far.
func (r *Recorder) AnomalyCount() int64 {
	var n int64
	for i := 0; i < numTriggers; i++ {
		n += r.anomalies[i].Load()
	}
	return n
}

// Status reports the totals /healthz includes.
func (r *Recorder) Status() (blocks, anomalies int64) {
	return r.Blocks(), r.AnomalyCount()
}

// WriteDump writes the full snapshot as indented JSON — the on-demand
// dump (/debug/flight, schedbench -flightdump) and the anomaly auto-dump.
func (r *Recorder) WriteDump(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WritePrometheus renders the recorder's quantiles and anomaly counters
// in the Prometheus text exposition format; obs.Handler appends it to
// /metrics when a flight recorder is attached to the server.
func (r *Recorder) WritePrometheus(b *strings.Builder) {
	s := r.Snapshot()
	b.WriteString("# TYPE mdes_block_schedule_ns summary\n")
	for _, q := range s.Quantiles {
		for _, v := range []struct {
			q  string
			ns int64
		}{{"0.5", q.P50}, {"0.95", q.P95}, {"0.99", q.P99}, {"0.999", q.P999}} {
			fmt.Fprintf(b, "mdes_block_schedule_ns{phase=%q,quantile=%q} %d\n", q.Phase, v.q, v.ns)
		}
		fmt.Fprintf(b, "mdes_block_schedule_ns_sum{phase=%q} %d\n", q.Phase, q.SumNs)
		fmt.Fprintf(b, "mdes_block_schedule_ns_count{phase=%q} %d\n", q.Phase, q.Count)
	}
	b.WriteString("# TYPE mdes_block_schedule_max_ns gauge\n")
	for _, q := range s.Quantiles {
		fmt.Fprintf(b, "mdes_block_schedule_max_ns{phase=%q} %d\n", q.Phase, q.MaxNs)
	}
	b.WriteString("# TYPE mdes_flight_worst_block_ns gauge\n")
	for _, q := range s.Quantiles {
		for _, ex := range q.Exemplars {
			fmt.Fprintf(b, "mdes_flight_worst_block_ns{phase=%q,block=\"%d\"} %d\n", q.Phase, ex.Block, ex.WallNs)
		}
	}
	b.WriteString("# TYPE mdes_flight_blocks_total counter\n")
	fmt.Fprintf(b, "mdes_flight_blocks_total %d\n", s.Blocks)
	b.WriteString("# TYPE mdes_flight_anomalies_total counter\n")
	for i := 0; i < numTriggers; i++ {
		fmt.Fprintf(b, "mdes_flight_anomalies_total{trigger=%q} %d\n", triggerNames[i], r.anomalies[i].Load())
	}
	b.WriteString("# TYPE mdes_flight_dumps_total counter\n")
	fmt.Fprintf(b, "mdes_flight_dumps_total %d\n", s.Dumps)
}
