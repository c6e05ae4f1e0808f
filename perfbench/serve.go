package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mdes"
	"mdes/internal/descache"
	"mdes/internal/server"
	"mdes/sdk/mdesclient"
)

// serve-open settings. Requests go out one at a time over one connection,
// which serves about 370 of these requests a second on a 2-vCPU host; the
// arrival rate keeps that connection about a quarter busy, so latency
// measures service rather than queueing behind a host stall. Swaps are
// triggered by request count, so swap and mapping counts repeat exactly
// run to run.
const (
	serveRate        = 100.0 // schedule requests per second
	serveRequestOps  = 400   // static operations per request
	serveBodies      = 32    // distinct request bodies per tenant
	serveSetups      = 5
	serveSetupReqs   = 200 // schedule requests per tenant in each set-up
	serveSwapEvery   = 10  // requests between hot swaps of the K5 tenant
	serveWarmup      = time.Second
	spinMargin       = 1500 * time.Microsecond
	serveWindow      = 2 * time.Second // latency window: 200 requests, 20 beyond p90
	serveHitRounds   = 25
	replayReps       = 3
	probeSeconds     = 2 * time.Second
	childStopTimeout = 10 * time.Second
)

// runDaemon is the serve-open child: an mdesd daemon on a loopback port
// with dir as its description cache. It prints "addr HOST:PORT", then
// answers each "mark" line on stdin with a JSON usage snapshot of itself,
// and shuts down when stdin closes.
func runDaemon(dir string) error {
	d, err := server.Start("127.0.0.1:0", server.Config{CacheDir: dir})
	if err != nil {
		return err
	}
	fmt.Printf("addr %s\n", d.Addr)
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if sc.Text() != "mark" {
			continue
		}
		line, err := json.Marshal(selfUsage())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return d.Close()
}

// child is a running daemon process.
type child struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Scanner
	base string
	done chan error
}

func startChild(cacheDir string) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "daemon", cacheDir)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewScanner(outPipe), done: make(chan error, 1)}
	if !c.out.Scan() {
		c.stop()
		return nil, fmt.Errorf("daemon child exited before listening")
	}
	addr, ok := strings.CutPrefix(c.out.Text(), "addr ")
	if !ok {
		c.stop()
		return nil, fmt.Errorf("daemon child: unexpected line %q", c.out.Text())
	}
	c.base = "http://" + addr
	return c, nil
}

// mark returns the child's usage snapshot.
func (c *child) mark() (usage, error) {
	var u usage
	if _, err := io.WriteString(c.in, "mark\n"); err != nil {
		return u, err
	}
	if !c.out.Scan() {
		return u, fmt.Errorf("daemon child stopped answering")
	}
	return u, json.Unmarshal(c.out.Bytes(), &u)
}

// stop closes the child's stdin, which drains and stops the daemon, and
// waits for the process; a child that does not exit in time is killed.
func (c *child) stop() error {
	c.in.Close()
	go func() { c.done <- c.cmd.Wait() }()
	select {
	case err := <-c.done:
		return err
	case <-time.After(childStopTimeout):
		_ = c.cmd.Process.Kill()
		<-c.done
		return fmt.Errorf("daemon child did not stop within %s", childStopTimeout)
	}
}

// tenantLoad is one tenant's request corpus with its reference schedules
// and the fingerprints its responses may carry.
type tenantLoad struct {
	name    string
	machine mdes.BuiltinName
	bodies  [][]byte
	units   [][]*mdes.Block
	first   []int // each unit's first block in ref
	ref     *reference

	// mu guards the swap state the sender checks fingerprints against:
	// gen is odd while a swap is in flight, active is the fingerprint of
	// the version the last completed swap (or upload) activated, and
	// versions holds every fingerprint the tenant may serve.
	mu       sync.Mutex
	gen      int
	active   string
	versions map[string]bool
}

func newTenantLoad(machine mdes.BuiltinName, units [][]*mdes.Block, first []int, ref *reference) (*tenantLoad, error) {
	t := &tenantLoad{name: string(machine), machine: machine, units: units, first: first, ref: ref, versions: map[string]bool{}}
	for _, u := range units {
		body, err := json.Marshal(mdesclient.ScheduleRequest{Blocks: server.FromIR(u)})
		if err != nil {
			return nil, err
		}
		t.bodies = append(t.bodies, body)
	}
	return t, nil
}

func (t *tenantLoad) activate(fp string) {
	t.mu.Lock()
	t.active = fp
	t.versions[fp] = true
	t.mu.Unlock()
}

func (t *tenantLoad) snapshot() (int, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen, t.active
}

// verify checks one schedule response for body bi: it must be a 200, carry
// the fingerprint of the version active while the request ran (either
// version when a swap overlapped it), and schedule every block as the
// reference does. It returns the response's block count.
func (r *run) verify(t *tenantLoad, bi int, status int, data []byte, gen0 int, active0 string) (int, mdesclient.Counters) {
	r.attempted++
	if status != http.StatusOK {
		r.fail("%s: HTTP %d: %s", t.name, status, bytes.TrimSpace(data))
		return 0, mdesclient.Counters{}
	}
	var resp mdesclient.ScheduleResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		r.fail("%s: undecodable response: %v", t.name, err)
		return 0, mdesclient.Counters{}
	}
	gen1, _ := t.snapshot()
	t.mu.Lock()
	known := t.versions[resp.Fingerprint]
	t.mu.Unlock()
	if !known || (gen0 == gen1 && gen0%2 == 0 && resp.Fingerprint != active0) {
		r.fail("%s: response fingerprint %s, active version %s", t.name, resp.Fingerprint, active0)
		return 0, resp.Counters
	}
	if len(resp.Results) != len(t.units[bi]) {
		r.fail("%s body %d: %d results for %d blocks", t.name, bi, len(resp.Results), len(t.units[bi]))
		return 0, resp.Counters
	}
	for i, res := range resp.Results {
		if !t.ref.matches(t.first[bi]+i, res.Issue, res.Length) {
			r.fail("%s block %d: schedule differs from the reference", t.name, t.first[bi]+i)
			return 0, resp.Counters
		}
	}
	return len(resp.Results), resp.Counters
}

// post sends one schedule request and reads the whole response.
func post(ctx context.Context, hc *http.Client, base string, t *tenantLoad, bi int) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/tenants/"+t.name+"/schedule", bytes.NewReader(t.bodies[bi]))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// loadStats accumulates one open-loop interval.
type loadStats struct {
	lat, latTraced []float64 // from each request's due time to its response
	latAt          []time.Duration
	late           []float64 // send time minus due time
	requests       int64
	blocks         int64
}

// openLoop sends schedule requests at a fixed arrival rate for dur, over
// the one connection hc keeps, alternating tenants. A request is timed from
// when it was due, so a stall also counts against the requests it delays.
// After every swapEvery-th request it signals swaps (when set). Traced runs
// trace every other request.
func (r *run) openLoop(ctx context.Context, hc *http.Client, base string, loads []*tenantLoad, dur time.Duration,
	st *loadStats, swaps chan<- struct{}, swapEvery int) error {
	start := time.Now()
	n := int(dur.Seconds() * serveRate)
	for i := 0; i < n; i++ {
		t := loads[i%len(loads)]
		bi := (i / len(loads)) % len(t.bodies)
		due := start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
		if err := waitUntil(ctx, due); err != nil {
			return err
		}
		gen0, active0 := t.snapshot()
		sent := time.Now()
		status, data, err := post(ctx, hc, base, t, bi)
		done := time.Now()
		if swaps != nil && (i+1)%swapEvery == 0 {
			swaps <- struct{}{}
		}
		if err != nil {
			r.attempted++
			r.fail("%s: %v", t.name, err)
			continue
		}
		blocks, _ := r.verify(t, bi, status, data, gen0, active0)
		if st == nil {
			continue
		}
		if r.tr != nil && i%2 == 0 {
			op := r.nextOp()
			root := r.tr.record("op.serve", op, -1, due, done)
			r.tr.record("loadgen.wait", op, root, due, sent)
			r.tr.record("client.request", op, root, sent, done)
			st.latTraced = append(st.latTraced, ms(done.Sub(due)))
		} else {
			st.lat, st.latAt = append(st.lat, ms(done.Sub(due))), append(st.latAt, due.Sub(start))
		}
		st.late = append(st.late, ms(sent.Sub(due)))
		st.requests++
		st.blocks += int64(blocks)
	}
	return nil
}

// waitUntil returns at t. It sleeps until shortly before t and spins the
// rest of the way, because a sleeping goroutine wakes up to a millisecond
// late, which would add up to a third of a request's latency.
func waitUntil(ctx context.Context, t time.Time) error {
	if wait := time.Until(t) - spinMargin; wait > 0 {
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for time.Now().Before(t) {
	}
	return nil
}

func loopbackClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// version is one description version a tenant can serve.
type version struct {
	d     desc
	level mdes.Level
	c     *mdes.Compiled
	fp    string
}

func (r *run) localVersion(d desc, level mdes.Level, deltas map[string]float64) (*version, error) {
	c, err := r.compile(r.nextOp(), -1, d, level, deltas)
	if err != nil {
		return nil, err
	}
	fp, err := c.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &version{d: d, level: level, c: c, fp: fp}, nil
}

// upload registers v with the tenant over HTTP by source (or by the
// content address of its cached arena) and checks the daemon reports the
// locally computed fingerprint.
func upload(ctx context.Context, cl *mdesclient.Client, tenant string, v *version, byHash, activate bool) error {
	req := mdesclient.UploadRequest{Form: formName(v.d.form), Level: v.level.String(), Activate: activate}
	if byHash {
		req.SourceHash = descache.HashSource(v.d.source)
	} else {
		req.Source = v.d.source
	}
	up, err := cl.Upload(ctx, tenant, req)
	if err != nil {
		return fmt.Errorf("upload %s to %s: %w", v.d, tenant, err)
	}
	if up.Fingerprint != v.fp {
		return fmt.Errorf("upload %s to %s: daemon fingerprint %s, local %s", v.d, tenant, up.Fingerprint, v.fp)
	}
	return nil
}

// serveInputs generates the K5 and SuperSPARC request corpora with their
// references.
func (r *run) serveInputs(ctx context.Context, opsPerBody, bodies int) ([]*tenantLoad, error) {
	var loads []*tenantLoad
	for mi, m := range servedMachines {
		us, err := units(m, machineSeed(r.seed, 10+mi), opsPerBody*bodies, opsPerBody)
		if err != nil {
			return nil, err
		}
		var all []*mdes.Block
		var first []int
		for _, u := range us {
			first = append(first, len(all))
			all = append(all, u...)
		}
		ref, err := referenceFor(ctx, m, all)
		if err != nil {
			return nil, err
		}
		if r.corrupt && mi == 0 {
			ref.falsify()
		}
		t, err := newTenantLoad(m, us, first, ref)
		if err != nil {
			return nil, err
		}
		loads = append(loads, t)
	}
	return loads, nil
}

// serveOpen is the daemon workload: an mdesd child process with K5 and
// SuperSPARC tenants, driven by an open loop at a fixed rate while the K5
// tenant is hot-swapped between two cached versions by request count.
// Its wall-clock figures move with host steal far more than those of the
// closed loops, whose every step runs in one process on one P, so
// BENCHMARK.json lists only sched-batch and coldstart; serve-open runs by
// name and in the self-test.
func (r *run) serveOpen(ctx context.Context) error {
	loads, err := r.serveInputs(ctx, serveRequestOps, serveBodies)
	if err != nil {
		return err
	}
	descs, err := loadDescs(servedMachines, mdes.FormAndOr)
	if err != nil {
		return err
	}
	// The versions the daemon serves, compiled locally for their
	// fingerprints. Each tenant's second version is level time-shift: a
	// different description with the same schedules.
	deltas := map[string]float64{}
	var active []*version
	size := 0
	for _, d := range descs {
		v, err := r.localVersion(d, mdes.LevelFull, deltas)
		if err != nil {
			return err
		}
		active = append(active, v)
		size += v.c.Size().Total()
	}
	r.e2e["mdes_bytes"] = float64(size)
	var alts []*version
	for i, d := range descs {
		v, err := r.localVersion(d, mdes.LevelTimeShift, nil)
		if err != nil {
			return err
		}
		alts = append(alts, v)
		loads[i].activate(active[i].fp)
		loads[i].versions[v.fp] = true
	}

	// Set-up: daemon on an empty cache, both tenants uploaded, the first
	// requests per tenant served; several times, setup_s is the median.
	hc := loopbackClient()
	defer hc.CloseIdleConnections()
	ctl := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer ctl.CloseIdleConnections()
	var (
		setups []float64
		ch     *child
		dir    string
		setup  mdes.Counters
	)
	for k := 0; k < serveSetups; k++ {
		if ch != nil {
			if err := ch.stop(); err != nil {
				return err
			}
			hc.CloseIdleConnections()
			ctl.CloseIdleConnections()
		}
		dir = filepath.Join(r.dir, fmt.Sprintf("daemon-cache-%d", k))
		t0 := time.Now()
		if ch, err = startChild(dir); err != nil {
			return err
		}
		cl := mdesclient.New(ch.base, mdesclient.WithHTTPClient(ctl), mdesclient.WithRetry(0, 0))
		for i, t := range loads {
			if err := upload(ctx, cl, t.name, active[i], false, true); err != nil {
				ch.stop()
				return err
			}
		}
		setup = mdes.Counters{}
		for j := 0; j < serveSetupReqs; j++ {
			for _, t := range loads {
				bi := j % len(t.bodies)
				gen0, act0 := t.snapshot()
				status, data, err := post(ctx, hc, ch.base, t, bi)
				if err != nil {
					ch.stop()
					return err
				}
				_, cnt := r.verify(t, bi, status, data, gen0, act0)
				setup.Add(mdes.Counters{Attempts: cnt.Attempts, ResourceChecks: cnt.ResourceChecks})
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if ch != nil {
			ch.stop()
		}
	}()
	r.e2e["setup_s"] = median(setups)
	r.e2e["checks_per_attempt"] = setup.ChecksPerAttempt()

	// The second version of each tenant, compiled into the daemon's cache
	// once. Swaps then name either version by content address.
	cl := mdesclient.New(ch.base, mdesclient.WithHTTPClient(ctl), mdesclient.WithRetry(0, 0))
	for i, t := range loads {
		if err := upload(ctx, cl, t.name, alts[i], false, false); err != nil {
			return err
		}
	}
	swapTargets := []*version{alts[0], active[0]}
	var (
		swapMu    sync.Mutex
		swapLat   []float64
		swapErrs  []error
		recording bool
	)
	maxSwaps := int((serveWarmup.Seconds()+r.seconds)*serveRate)/serveSwapEvery + 2
	swaps := make(chan struct{}, maxSwaps) // sized to every swap the loops can trigger
	var wg sync.WaitGroup
	wg.Add(1)
	go func(swaps <-chan struct{}) {
		defer wg.Done()
		t := loads[0]
		n := 0
		for range swaps {
			v := swapTargets[n%2]
			n++
			t.mu.Lock()
			t.gen++
			t.mu.Unlock()
			t0 := time.Now()
			err := upload(ctx, cl, t.name, v, true, true)
			d := ms(time.Since(t0))
			t.mu.Lock()
			if err == nil {
				t.active = v.fp
			}
			t.gen++
			t.mu.Unlock()
			swapMu.Lock()
			if err != nil {
				swapErrs = append(swapErrs, err)
			} else if recording {
				swapLat = append(swapLat, d)
			}
			swapMu.Unlock()
		}
	}(swaps)
	stopSwapper := func() {
		if swaps != nil {
			close(swaps)
			swaps = nil
			wg.Wait()
		}
	}
	defer stopSwapper()

	// Untimed warm-up at the same rate, swaps included; then the timed
	// interval, bracketed by the daemon's own usage snapshots.
	if err := r.openLoop(ctx, hc, ch.base, loads, serveWarmup, nil, swaps, serveSwapEvery); err != nil {
		return err
	}
	swapMu.Lock()
	recording = true
	swapMu.Unlock()
	u0, err := ch.mark()
	if err != nil {
		return err
	}
	h0 := readHostCPU()
	st := &loadStats{}
	t0 := time.Now()
	if err := r.openLoop(ctx, hc, ch.base, loads, time.Duration(r.seconds*float64(time.Second)), st, swaps, serveSwapEvery); err != nil {
		return err
	}
	wall := time.Since(t0)
	stopSwapper()
	u1, err := ch.mark()
	if err != nil {
		return err
	}
	h1 := readHostCPU()
	r.attempted += int64(len(swapLat) + len(swapErrs))
	for _, e := range swapErrs {
		r.fail("swap: %v", e)
	}
	r.e2e["throughput_per_s"] = float64(st.blocks) / wall.Seconds()
	r.e2e["swap_p50_ms"] = median(swapLat)
	r.reportLatency(st.lat, st.latAt, serveWindow, serveWindow, 0.9)
	r.reportInterval(u0, u1, h0, h1, st.requests)
	r.reportLoadgen(st)
	if r.tr != nil {
		if err := r.serverCounters(ctx, ctl, ch.base, loads); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve-open %d requests, %d swaps, %d blocks in %.2fs\n", st.requests, len(swapLat), st.blocks, wall.Seconds())
	// Cache-hit rounds on the idle daemon: each round activates every
	// tenant's other version by content address, which the daemon rebuilds
	// from its cached arena because activating a version retired it.
	var rounds []float64
	for k := 0; k < serveHitRounds; k++ {
		t0 := time.Now()
		for i, t := range loads {
			v := alts[i]
			if _, fp := t.snapshot(); fp == v.fp {
				v = active[i]
			}
			if err := upload(ctx, cl, t.name, v, true, true); err != nil {
				return err
			}
			t.activate(v.fp)
		}
		rounds = append(rounds, ms(time.Since(t0)))
	}
	for _, t := range loads {
		gen, act := t.snapshot()
		status, data, err := post(ctx, hc, ch.base, t, 0)
		if err != nil {
			return err
		}
		r.verify(t, 0, status, data, gen, act)
	}
	if err := ch.stop(); err != nil {
		return err
	}
	ch = nil
	r.e2e["hit_p50_ms"] = median(rounds)

	if r.tr != nil {
		// Cold-path layers as the client side sees them: the daemon's
		// cached arenas must be byte-identical to local encodes.
		store, err := descache.Open(dir, 0)
		if err != nil {
			return err
		}
		replayDir := filepath.Join(r.dir, "replay-cache")
		replay, err := descache.Open(replayDir, 0)
		if err != nil {
			return err
		}
		for _, v := range append(active, alts...) {
			op := r.nextOp()
			arena, err := r.encodeArena(op, -1, v.c)
			if err != nil {
				return err
			}
			r.layers["lowlevel.arena_bytes"] += float64(len(arena))
			sp := r.tr.begin("descache.get", op, -1)
			ent, err := store.Get(v.d.key(v.level))
			r.tr.end(sp)
			if err != nil {
				return err
			}
			same := bytes.Equal(ent.Arena.Bytes(), arena)
			ent.Close()
			r.attempted++
			if !same {
				r.fail("%s: the daemon's cached arena differs from the local encode", v.d)
			}
			if err := r.put(op, -1, replay, v.d.key(v.level), arena); err != nil {
				return err
			}
		}
		r.reportOptDeltas(deltas)
		if err := r.bareSchedule(ctx, loads, active); err != nil {
			return err
		}
		r.reportColdLayers()
		r.layers["trace.overhead_ms"] = median(st.latTraced) - median(st.lat)
		r.reportReconcile("op.serve")
		d, err := server.Start("127.0.0.1:0", server.Config{CacheDir: replayDir})
		if err != nil {
			return err
		}
		defer d.Close()
		if err := r.replayInProcess(ctx, d.Server().Handler(), loads, active); err != nil {
			return err
		}
		r.layers["net.overhead_ms"] = r.layers["client.request_ms"] - r.layers["server.handler_ms"]
	}
	return nil
}

// reportLoadgen fills the generator's lateness and the client span.
func (r *run) reportLoadgen(st *loadStats) {
	r.layers["loadgen.late_p99_ms"] = percentile(st.late, 0.99)
	r.layers["loadgen.late_max_ms"] = percentile(st.late, 1)
	fmt.Fprintf(os.Stderr, "perfbench: load generator lateness p99 %.3f ms, max %.3f ms\n",
		r.layers["loadgen.late_p99_ms"], r.layers["loadgen.late_max_ms"])
	if r.tr != nil {
		r.reportSelf("client.request_ms", "client.request")
	}
}

// bareSchedule schedules the tenants' request blocks on plain library
// engines over the same descriptions: the daemon's scheduling stage
// without HTTP, JSON or observers.
func (r *run) bareSchedule(ctx context.Context, loads []*tenantLoad, vs []*version) error {
	counters := map[mdes.BuiltinName]*mdes.Counters{}
	var blocks, ns, attempts int64
	for i, t := range loads {
		m := t.machine
		e, err := r.newEngine(r.nextOp(), -1, vs[i].c)
		if err != nil {
			return err
		}
		counters[m] = &mdes.Counters{}
		for bi, u := range t.units {
			op := r.nextOp()
			sp := r.tr.begin("engine.schedule."+string(m), op, -1)
			t0 := time.Now()
			res, tot, err := e.ScheduleBlocks(ctx, u, 1)
			ns += time.Since(t0).Nanoseconds()
			r.tr.end(sp)
			r.attempted++
			if err != nil {
				r.fail("%s body %d: %v", m, bi, err)
				continue
			}
			for j, rs := range res {
				if !t.ref.matches(t.first[bi]+j, rs.Issue, rs.Length) {
					r.fail("%s block %d: schedule differs from the reference", m, t.first[bi]+j)
					break
				}
			}
			counters[m].Add(tot)
			attempts += tot.Attempts
			blocks += int64(len(u))
		}
		r.reportSelf("engine.schedule_ms."+string(m), "engine.schedule."+string(m))
	}
	r.reportCounters(counters, blocks)
	if attempts > 0 {
		r.layers["sched.ns_per_attempt"] = float64(ns) / float64(attempts)
	}
	return nil
}

// replayInProcess uploads the tenants' versions into an in-process daemon
// handler and replays every request body through it, timing the whole
// handler, the request decode (ParseScheduleRequest + ToBlocks) and the
// response encode separately. server.rest_ms is what remains of the
// handler: admission, version lookup, observers and scheduling.
func (r *run) replayInProcess(ctx context.Context, h http.Handler, loads []*tenantLoad, vs []*version) error {
	for i, t := range loads {
		body, err := json.Marshal(mdesclient.UploadRequest{Source: vs[i].d.source, Form: formName(vs[i].d.form), Level: vs[i].level.String(), Activate: true})
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants/"+t.name+"/descriptions", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process upload %s: HTTP %d: %s", t.name, rec.Code, rec.Body.Bytes())
		}
		t.activate(vs[i].fp)
	}
	for rep := 0; rep < replayReps; rep++ {
		for _, t := range loads {
			for bi, body := range t.bodies {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				op := r.nextOp()
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/v1/tenants/"+t.name+"/schedule", bytes.NewReader(body))
				sp := r.tr.begin("server.handler", op, -1)
				h.ServeHTTP(rec, req)
				r.tr.end(sp)
				gen, act := t.snapshot()
				r.verify(t, bi, rec.Code, rec.Body.Bytes(), gen, act)

				sp = r.tr.begin("server.decode", op, -1)
				parsed, err := server.ParseScheduleRequest(body)
				if err == nil {
					server.ToBlocks(parsed)
				}
				r.tr.end(sp)
				if err != nil {
					return err
				}
				var resp mdesclient.ScheduleResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					return err
				}
				sp = r.tr.begin("server.encode", op, -1)
				_, err = json.Marshal(&resp)
				r.tr.end(sp)
				if err != nil {
					return err
				}
			}
		}
	}
	r.reportSelf("server.handler_ms", "server.handler")
	r.reportSelf("server.decode_ms", "server.decode")
	r.reportSelf("server.encode_ms", "server.encode")
	r.layers["server.rest_ms"] = r.layers["server.handler_ms"] - r.layers["server.decode_ms"] - r.layers["server.encode_ms"]
	return nil
}

// serverCounters reads the daemon's shed and block counters: requests and
// sheds from /metrics, blocks from each tenant's stats.
func (r *run) serverCounters(ctx context.Context, hc *http.Client, base string, loads []*tenantLoad) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var requests, shed float64
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(f[0], "mdesd_requests_total{"):
			requests += v
		case strings.HasPrefix(f[0], "mdesd_shed_total{"):
			shed += v
		}
	}
	cl := mdesclient.New(base, mdesclient.WithHTTPClient(hc), mdesclient.WithRetry(0, 0))
	var blocks float64
	for _, t := range loads {
		s, err := cl.Stats(ctx, t.name)
		if err != nil {
			return err
		}
		blocks += float64(s.Blocks)
	}
	if requests == 0 {
		return errors.New("daemon reports no schedule requests")
	}
	r.layers["server.shed_share"] = shed / requests
	r.layers["server.blocks_per_req"] = blocks / requests
	return nil
}

// servingProbe measures the serving-path layers for a workload that does
// not serve: an in-process daemon on a loopback port with the K5 and
// SuperSPARC tenants, the workload's own blocks replayed through its
// handler, then a short open loop over loopback.
func (r *run) servingProbe(ctx context.Context, loads []*tenantLoad) error {
	var vs []*version
	for _, t := range loads {
		src, err := mdes.BuiltinSource(t.machine)
		if err != nil {
			return err
		}
		v, err := r.localVersion(desc{machine: t.machine, form: mdes.FormAndOr, source: src}, mdes.LevelFull, nil)
		if err != nil {
			return err
		}
		vs = append(vs, v)
	}
	d, err := server.Start("127.0.0.1:0", server.Config{CacheDir: filepath.Join(r.dir, "probe-cache")})
	if err != nil {
		return err
	}
	defer d.Close()
	base := "http://" + d.Addr
	if err := r.replayInProcess(ctx, d.Server().Handler(), loads, vs); err != nil {
		return err
	}
	hc := loopbackClient()
	defer hc.CloseIdleConnections()
	st := &loadStats{}
	if err := r.openLoop(ctx, hc, base, loads, probeSeconds, st, nil, 0); err != nil {
		return err
	}
	r.reportLoadgen(st)
	r.layers["net.overhead_ms"] = r.layers["client.request_ms"] - r.layers["server.handler_ms"]
	return r.serverCounters(ctx, hc, base, loads)
}
