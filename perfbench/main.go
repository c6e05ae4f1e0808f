// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload per process against the mdes library (sched-batch), the
// mdesd daemon running in a child process (serve-open), or the cold path
// from HMDES source to serving engine (coldstart), checks every schedule
// against an independent reference, and prints one JSON result object as
// its last line of standard output.
//
//	perfbench --workload sched-batch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, computed from spans the
// benchmark records around its own calls into each layer and written to
// .bench_build/traces/ when the run ends. "perfbench daemon DIR" is the
// serve-open child: an mdesd daemon on a loopback port with DIR as its
// description cache, controlled over its standard input.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its result.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// corrupt falsifies one reference schedule, so the self-test can
	// show that a wrong schedule fails its operation.
	corrupt bool
	// dir is this run's private scratch directory under .bench_build.
	dir string
	tr  *tracer

	attempted, failed int64
	ops               int64 // last operation id handed out by nextOp
	e2e               map[string]float64
	layers            map[string]float64
}

// nextOp returns a fresh operation id for spans. Ids start far above
// the loop indices the closed loops use as their own operation ids.
func (r *run) nextOp() int64 {
	r.ops++
	return 1<<40 + r.ops
}

// fail records one failed operation with its reason on stderr.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "daemon" {
		if err := runDaemon(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench daemon:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "sched-batch, serve-open or coldstart")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed interval")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	corrupt := flag.Bool("corrupt-reference", false, "falsify one reference schedule (self-test)")
	flag.Parse()
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, corrupt: *corrupt,
		e2e: map[string]float64{}, layers: map[string]float64{},
	}
	if err := r.execute(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func (r *run) execute() error {
	var body func(context.Context) error
	switch r.workload {
	case "sched-batch":
		body = r.schedBatch
	case "serve-open":
		body = r.serveOpen
	case "coldstart":
		body = r.coldstart
	default:
		return fmt.Errorf("unknown --workload %q (want sched-batch, serve-open or coldstart)", r.workload)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	r.dir = filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", r.workload, r.seed, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.dir)
	if r.traced {
		r.tr = newTracer()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := body(ctx); err != nil {
		return err
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	want := endToEndUnits
	got := r.e2e
	if r.traced {
		want, got = layerUnits, r.layers
		if err := r.tr.write(filepath.Join(root, ".bench_build", "traces",
			fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	for name, unit := range want {
		v, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = metric{Value: v, Unit: unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEndUnits and layerUnits name every reported metric with its unit;
// BENCHMARK.json declares the same names and units.
var endToEndUnits = map[string]string{
	"setup_s":            "s",
	"throughput_per_s":   "1/s",
	"cpu_ms_per_op":      "ms",
	"p50_ms":             "ms",
	"tail_ms":            "ms",
	"peak_rss_mb":        "MiB",
	"checks_per_attempt": "count",
	"mdes_bytes":         "bytes",
	"hit_p50_ms":         "ms",
	"swap_p50_ms":        "ms",
}

// optPasses are the translator passes at level full, by the ledger pass
// name after its "/".
var optPasses = []string{
	"eliminate-redundant", "prune-dominated-options", "pack", "shift-usage-times",
	"sort-zero-first", "sort-or-trees", "hoist-common-usages",
}

var layerUnits = func() map[string]string {
	u := map[string]string{
		"hmdes.load_ms":              "ms",
		"lowlevel.compile_ms":        "ms",
		"lowlevel.encode_arena_ms":   "ms",
		"lowlevel.arena_bytes":       "bytes",
		"opt.optimize_ms":            "ms",
		"descache.put_ms":            "ms",
		"descache.get_ms":            "ms",
		"descache.mapped_entries":    "count",
		"engine.new_ms":              "ms",
		"sched.attempts_per_block":   "count",
		"sched.conflict_share":       "ratio",
		"sched.ns_per_attempt":       "ns",
		"check.options_per_attempt":  "count",
		"server.handler_ms":          "ms",
		"server.decode_ms":           "ms",
		"server.encode_ms":           "ms",
		"server.rest_ms":             "ms",
		"server.shed_share":          "ratio",
		"server.blocks_per_req":      "count",
		"client.request_ms":          "ms",
		"net.overhead_ms":            "ms",
		"loadgen.late_p99_ms":        "ms",
		"loadgen.late_max_ms":        "ms",
		"runtime.alloc_bytes_per_op": "bytes",
		"runtime.allocs_per_op":      "count",
		"runtime.gc_cpu_share":       "ratio",
		"host.steal_share":           "ratio",
		"trace.overhead_ms":          "ms",
		"reconcile.p50_ms":           "ms",
		"reconcile.layer_sum_ms":     "ms",
		"reconcile.unattributed_ms":  "ms",
	}
	for _, m := range servedMachines {
		u["engine.schedule_ms."+string(m)] = "ms"
		u["check.checks_per_attempt."+string(m)] = "count"
	}
	for _, p := range optPasses {
		u["opt.pass."+p+"_ms"] = "ms"
		u["opt.pass."+p+".delta_bytes"] = "bytes"
	}
	return u
}()

// percentile returns the nearest-rank q-quantile (0 <= q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// reportLatency fills p50_ms and tail_ms, the q-quantile, from
// per-operation latencies, where at[i] is when operation i started, from
// the start of the timed interval. Each figure is the median over the
// interval's whole windows of that window's own percentile, which ignores
// the few windows a host stall hits. With tailWindow 0 the tail is taken
// over the whole interval instead, for workloads whose windows are too
// short to leave ten samples beyond it.
func (r *run) reportLatency(lat []float64, at []time.Duration, window, tailWindow time.Duration, q float64) {
	p50 := func(xs []float64) float64 { return percentile(xs, 0.5) }
	tail := func(xs []float64) float64 { return percentile(xs, q) }
	r.e2e["p50_ms"] = windowed(lat, at, window, p50)
	r.e2e["tail_ms"] = tail(lat)
	n := len(lat)
	if tailWindow > 0 {
		r.e2e["tail_ms"] = windowed(lat, at, tailWindow, tail)
		n = int(float64(len(lat)) * float64(tailWindow) / float64(at[len(at)-1]))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d latency samples; tail_ms is p%.0f over about %d samples\n",
		len(lat), q*100, n)
}

// windowed applies stat to the samples of each whole window and returns
// the median over windows.
func windowed(xs []float64, at []time.Duration, window time.Duration, stat func([]float64) float64) float64 {
	var groups [][]float64
	for i, x := range xs {
		w := int(at[i] / window)
		for len(groups) <= w {
			groups = append(groups, nil)
		}
		groups[w] = append(groups[w], x)
	}
	if len(groups) > 1 {
		groups = groups[:len(groups)-1] // the last window is partial
	}
	vals := make([]float64, 0, len(groups))
	for _, g := range groups {
		if len(g) > 0 {
			vals = append(vals, stat(g))
		}
	}
	return median(vals)
}
