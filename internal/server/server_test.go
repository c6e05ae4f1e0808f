package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mdes"
	"mdes/internal/machines"
	"mdes/internal/workload"
	"mdes/sdk/mdesclient"
)

// testSource returns a builtin machine's HMDES source.
func testSource(t *testing.T, n machines.Name) string {
	t.Helper()
	src, err := machines.Source(n)
	if err != nil {
		t.Fatalf("machines.Source(%s): %v", n, err)
	}
	return src
}

// testBlocks generates a small deterministic workload.
func testBlocks(t *testing.T, n machines.Name, numOps int, seed int64) []*mdes.Block {
	t.Helper()
	prog, err := workload.Generate(workload.Config{Machine: n, NumOps: numOps, Seed: seed})
	if err != nil {
		t.Fatalf("workload.Generate: %v", err)
	}
	return prog.Blocks
}

// localReference schedules blocks with an in-process engine at the given
// level, returning the engine's fingerprint and per-block issue arrays.
func localReference(t *testing.T, source string, level mdes.Level, blocks []*mdes.Block) (string, [][]int) {
	t.Helper()
	m, err := mdes.Load("ref.mdes", source)
	if err != nil {
		t.Fatalf("load reference: %v", err)
	}
	c := mdes.Compile(m, mdes.FormAndOr)
	mdes.Optimize(c, level)
	fp, err := c.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	eng, err := mdes.NewEngine(c, mdes.WithChecker(mdes.CheckerProbePlan))
	if err != nil {
		t.Fatalf("reference engine: %v", err)
	}
	results, _, err := eng.ScheduleBlocks(context.Background(), blocks, 4)
	if err != nil {
		t.Fatalf("reference schedule: %v", err)
	}
	issues := make([][]int, len(results))
	for i, r := range results {
		issues[i] = r.Issue
	}
	return fp, issues
}

// newTestDaemon serves a Server over httptest and returns it with an SDK
// client pointed at it.
func newTestDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server, *mdesclient.Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := mdesclient.New(ts.URL, mdesclient.WithRetry(2, 5*time.Millisecond))
	return s, ts, c
}

func TestUploadScheduleRoundTrip(t *testing.T) {
	_, _, c := newTestDaemon(t, Config{})
	ctx := context.Background()
	source := testSource(t, machines.PA7100)

	up, err := c.Upload(ctx, "acme", mdesclient.UploadRequest{Source: source, Activate: true})
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if !up.Active || up.Fingerprint == "" || up.Key == "" {
		t.Fatalf("upload response incomplete: %+v", up)
	}

	blocks := testBlocks(t, machines.PA7100, 300, 7)
	wantFP, wantIssues := localReference(t, source, mdes.LevelFull, blocks)
	if up.Fingerprint != wantFP {
		t.Fatalf("server fingerprint %s != local %s", up.Fingerprint, wantFP)
	}

	resp, err := c.Schedule(ctx, "acme", FromIR(blocks))
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	if resp.Fingerprint != wantFP {
		t.Fatalf("response fingerprint %s != %s", resp.Fingerprint, wantFP)
	}
	if len(resp.Results) != len(blocks) {
		t.Fatalf("got %d results for %d blocks", len(resp.Results), len(blocks))
	}
	for i, r := range resp.Results {
		if fmt.Sprint(r.Issue) != fmt.Sprint(wantIssues[i]) {
			t.Fatalf("block %d: server issue %v != local %v", i, r.Issue, wantIssues[i])
		}
	}
	if resp.Counters.Attempts == 0 || resp.Counters.ResourceChecks == 0 {
		t.Fatalf("response counters empty: %+v", resp.Counters)
	}

	st, err := c.Stats(ctx, "acme")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Blocks != int64(len(blocks)) || st.Fingerprint != wantFP {
		t.Fatalf("stats %+v; want %d blocks, fp %s", st, len(blocks), wantFP)
	}
}

func TestTenantIsolation(t *testing.T) {
	_, _, c := newTestDaemon(t, Config{})
	ctx := context.Background()
	if _, err := c.Upload(ctx, "a", mdesclient.UploadRequest{Source: testSource(t, machines.PA7100), Activate: true}); err != nil {
		t.Fatalf("upload a: %v", err)
	}
	if _, err := c.Upload(ctx, "b", mdesclient.UploadRequest{Source: testSource(t, machines.K5), Activate: true}); err != nil {
		t.Fatalf("upload b: %v", err)
	}
	va, err := c.Versions(ctx, "a")
	if err != nil {
		t.Fatalf("versions a: %v", err)
	}
	vb, err := c.Versions(ctx, "b")
	if err != nil {
		t.Fatalf("versions b: %v", err)
	}
	if len(va.Versions) != 1 || len(vb.Versions) != 1 {
		t.Fatalf("version counts %d/%d, want 1/1", len(va.Versions), len(vb.Versions))
	}
	if va.Versions[0].Fingerprint == vb.Versions[0].Fingerprint {
		t.Fatalf("distinct machines share fingerprint %s", va.Versions[0].Fingerprint)
	}
	if va.Versions[0].Machine == vb.Versions[0].Machine {
		t.Fatalf("tenants not isolated: %+v %+v", va.Versions[0], vb.Versions[0])
	}
}

func TestCachedUploadByContentAddress(t *testing.T) {
	dir := t.TempDir()
	_, _, c := newTestDaemon(t, Config{CacheDir: dir})
	ctx := context.Background()
	source := testSource(t, machines.SuperSPARC)

	// First upload populates the content-addressed cache.
	up1, err := c.Upload(ctx, "warm", mdesclient.UploadRequest{Source: source, Activate: true})
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	// A second tenant references the arena by hash alone — no source sent.
	up2, err := c.Upload(ctx, "byref", mdesclient.UploadRequest{SourceHash: up1.SourceHash, Activate: true})
	if err != nil {
		t.Fatalf("upload by hash: %v", err)
	}
	if !up2.Cached {
		t.Fatalf("by-hash upload not served from cache: %+v", up2)
	}
	if up2.Fingerprint != up1.Fingerprint {
		t.Fatalf("cached fingerprint %s != source fingerprint %s", up2.Fingerprint, up1.Fingerprint)
	}
	// Both must schedule identically.
	blocks := FromIR(testBlocks(t, machines.SuperSPARC, 120, 3))
	r1, err := c.Schedule(ctx, "warm", blocks)
	if err != nil {
		t.Fatalf("schedule warm: %v", err)
	}
	r2, err := c.Schedule(ctx, "byref", blocks)
	if err != nil {
		t.Fatalf("schedule byref: %v", err)
	}
	for i := range r1.Results {
		if fmt.Sprint(r1.Results[i].Issue) != fmt.Sprint(r2.Results[i].Issue) {
			t.Fatalf("block %d diverges between source and by-ref engines", i)
		}
	}

	// An unknown content address is a structured 404.
	_, err = c.Upload(ctx, "byref", mdesclient.UploadRequest{SourceHash: "deadbeefdeadbeef"})
	assertAPIError(t, err, http.StatusNotFound, "not_found")
}

// assertAPIError checks err is a structured APIError with the given
// status and code.
func assertAPIError(t *testing.T, err error, status int, code string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want %d/%s error, got nil", status, code)
	}
	apiErr, ok := err.(*mdesclient.APIError)
	if !ok {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if apiErr.Status != status || apiErr.Code != code {
		t.Fatalf("got %d/%s (%s), want %d/%s", apiErr.Status, apiErr.Code, apiErr.Message, status, code)
	}
}

func TestStructuredErrors(t *testing.T) {
	s, ts, c := newTestDaemon(t, Config{MaxBodyBytes: 4096})
	ctx := context.Background()

	// Unknown tenant.
	_, err := c.Schedule(ctx, "ghost", []mdesclient.Block{{Ops: []mdesclient.Op{{Opcode: "IALU"}}}})
	assertAPIError(t, err, http.StatusNotFound, "not_found")

	// Tenant exists but has no active description.
	if _, err := c.Upload(ctx, "t", mdesclient.UploadRequest{Source: testSource(t, machines.Pentium)}); err != nil {
		t.Fatalf("upload: %v", err)
	}
	_, err = c.Schedule(ctx, "t", []mdesclient.Block{{Ops: []mdesclient.Op{{Opcode: "IALU"}}}})
	assertAPIError(t, err, http.StatusNotFound, "no_description")

	// Corrupt HMDES source: structured diagnostics with a position.
	bad := testSource(t, machines.Pentium)
	bad = strings.Replace(bad, "resource", "resorce", 1)
	_, err = c.Upload(ctx, "t", mdesclient.UploadRequest{Source: bad})
	assertAPIError(t, err, http.StatusBadRequest, "bad_source")
	if apiErr := err.(*mdesclient.APIError); len(apiErr.Diagnostics) == 0 || apiErr.Diagnostics[0].Line == 0 {
		t.Fatalf("bad_source carries no positioned diagnostics: %+v", apiErr)
	}

	// A usage time past the analyzer's cycle capacity is refused as a
	// positioned diagnostic at its line, before any probe sizes a window.
	long := "machine m {\n    resource R;\n    class c { use R @ 0, R @ 1073741824; }\n    operation OP class c latency 1;\n}\n"
	_, err = c.Upload(ctx, "t", mdesclient.UploadRequest{Source: long})
	assertAPIError(t, err, http.StatusBadRequest, "bad_source")
	if apiErr := err.(*mdesclient.APIError); len(apiErr.Diagnostics) == 0 || apiErr.Diagnostics[0].Line != 3 {
		t.Fatalf("over-capacity usage time: diagnostics %+v, want line 3", apiErr.Diagnostics)
	}

	// Oversized body: rejected before parsing with 413.
	huge := strings.Repeat("x", int(s.Config().MaxBodyBytes)+1)
	_, err = c.Upload(ctx, "t", mdesclient.UploadRequest{Source: huge})
	assertAPIError(t, err, http.StatusRequestEntityTooLarge, "too_large")

	// Unknown opcode reaches the scheduler and comes back structured.
	if _, err := c.Upload(ctx, "t", mdesclient.UploadRequest{Source: testSource(t, machines.Pentium), Activate: true}); err != nil {
		t.Fatalf("re-upload: %v", err)
	}
	_, err = c.Schedule(ctx, "t", []mdesclient.Block{{Ops: []mdesclient.Op{{Opcode: "NO_SUCH_OP"}}}})
	assertAPIError(t, err, http.StatusBadRequest, "bad_block")

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/tenants/t/schedule", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	body := decodeErrorBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest || body.Code != "bad_request" {
		t.Fatalf("malformed JSON: got %d/%s", resp.StatusCode, body.Code)
	}

	// Invalid tenant names never reach the registry.
	resp2, err := http.Get(ts.URL + "/v1/tenants/..%2Fetc/stats")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatalf("path-traversal tenant name accepted")
	}
}

func decodeErrorBody(t *testing.T, resp *http.Response) mdesclient.ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	var body mdesclient.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not structured JSON: %v", err)
	}
	return body
}

func TestAdmissionSheddingOverHTTP(t *testing.T) {
	s, ts, c := newTestDaemon(t, Config{MaxInFlight: 2, QueueDepth: 1, RequestTimeout: 100 * time.Millisecond})
	ctx := context.Background()
	if _, err := c.Upload(ctx, "busy", mdesclient.UploadRequest{Source: testSource(t, machines.PA7100), Activate: true}); err != nil {
		t.Fatalf("upload: %v", err)
	}
	// Fill every slot directly through the tenant's gate so shedding is
	// deterministic, then hit the daemon over HTTP.
	s.mu.RLock()
	g := s.tenants["busy"].gate
	s.mu.RUnlock()
	var releases []func()
	for i := 0; i < 2; i++ {
		rel, res := g.acquire(ctx)
		if res != admitOK {
			t.Fatalf("slot %d not admitted", i)
		}
		releases = append(releases, rel)
	}

	blocks := FromIR(testBlocks(t, machines.PA7100, 20, 1))
	payload, _ := json.Marshal(mdesclient.ScheduleRequest{Blocks: blocks})

	// First excess request queues, then times out: 503 timeout.
	start := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/tenants/busy/schedule", "application/json", strings.NewReader(string(payload)))
		if err != nil {
			t.Errorf("queued post: %v", err)
			start <- nil
			return
		}
		start <- resp
	}()
	time.Sleep(20 * time.Millisecond) // let it enter the queue

	// Second excess request finds the queue full: immediate 429 with
	// Retry-After.
	resp, err := http.Post(ts.URL+"/v1/tenants/busy/schedule", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		t.Fatalf("shed post: %v", err)
	}
	body := decodeErrorBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests || body.Code != "overloaded" {
		t.Fatalf("queue overflow: got %d/%s, want 429/overloaded", resp.StatusCode, body.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}

	if resp := <-start; resp != nil {
		body := decodeErrorBody(t, resp)
		if resp.StatusCode != http.StatusServiceUnavailable || body.Code != "timeout" {
			t.Fatalf("admission timeout: got %d/%s, want 503/timeout", resp.StatusCode, body.Code)
		}
	}

	// Releasing the slots restores service.
	for _, rel := range releases {
		rel()
	}
	if _, err := c.Schedule(ctx, "busy", blocks); err != nil {
		t.Fatalf("schedule after release: %v", err)
	}
}

func TestMetricsAndObsMounts(t *testing.T) {
	_, ts, c := newTestDaemon(t, Config{})
	ctx := context.Background()
	if _, err := c.Upload(ctx, "obs-t", mdesclient.UploadRequest{Source: testSource(t, machines.K5), Activate: true}); err != nil {
		t.Fatalf("upload: %v", err)
	}
	if _, err := c.Schedule(ctx, "obs-t", FromIR(testBlocks(t, machines.K5, 60, 2))); err != nil {
		t.Fatalf("schedule: %v", err)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, sb.String()
	}

	code, text := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	for _, want := range []string{
		`mdesd_requests_total{tenant="obs-t"} 1`,
		`mdesd_blocks_scheduled_total{tenant="obs-t"}`,
		`mdesd_versions{tenant="obs-t"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// The engine's own observability is mounted per tenant.
	for _, path := range []string{
		"/v1/tenants/obs-t/obs/metrics",
		"/v1/tenants/obs-t/obs/metrics.json",
		"/v1/tenants/obs-t/obs/debug/flight",
		"/v1/tenants/obs-t/obs/debug/profile",
		"/healthz",
	} {
		if code, _ := get(path); code != http.StatusOK {
			t.Fatalf("GET %s: %d, want 200", path, code)
		}
	}
	code, text = get("/v1/tenants/obs-t/obs/metrics")
	if code != http.StatusOK || !strings.Contains(text, "mdes_") {
		t.Fatalf("tenant obs metrics not engine-scoped: %d\n%s", code, text)
	}
}

func TestGracefulShutdown(t *testing.T) {
	d, err := Start("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	ctx := context.Background()
	c := mdesclient.New("http://"+d.Addr, mdesclient.WithRetry(0, time.Millisecond))
	if _, err := c.Upload(ctx, "bye", mdesclient.UploadRequest{Source: testSource(t, machines.Pentium), Activate: true}); err != nil {
		t.Fatalf("upload: %v", err)
	}
	if _, err := c.Schedule(ctx, "bye", FromIR(testBlocks(t, machines.Pentium, 40, 5))); err != nil {
		t.Fatalf("schedule: %v", err)
	}

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := d.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Every version drained.
	srv := d.Server()
	srv.mu.RLock()
	defer srv.mu.RUnlock()
	for name, tn := range srv.tenants {
		tn.mu.Lock()
		for _, v := range tn.versions {
			if !v.isDrained() {
				t.Fatalf("tenant %s version %s not drained after shutdown", name, v.keyID)
			}
		}
		tn.mu.Unlock()
	}
	// The port no longer accepts work.
	if err := c.Health(ctx); err == nil {
		t.Fatalf("daemon still serving after shutdown")
	}
}

func TestDrainingServerShedsWith503(t *testing.T) {
	s, ts, _ := newTestDaemon(t, Config{})
	s.draining.Store(true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	body := decodeErrorBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || body.Code != "draining" {
		t.Fatalf("draining server answered %d/%s, want 503/draining", resp.StatusCode, body.Code)
	}
}
