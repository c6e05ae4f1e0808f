package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdes/internal/machines"
	"mdes/sdk/mdesclient"
)

// Fault-injection suite: every failure mode must degrade to an error
// response (or a dropped connection for protocol-level abuse) and the
// daemon must keep serving afterwards — never a wedged pool, never a
// stale engine.

// startFaultDaemon starts a real daemon with tight HTTP timeouts so the
// protocol-level faults resolve quickly.
func startFaultDaemon(t *testing.T) (*Daemon, *mdesclient.Client) {
	t.Helper()
	d, err := Start("127.0.0.1:0", Config{
		ReadHeaderTimeout: 300 * time.Millisecond,
		ReadTimeout:       700 * time.Millisecond,
		WriteTimeout:      2 * time.Second,
		IdleTimeout:       time.Second,
		MaxBodyBytes:      1 << 20,
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d, mdesclient.New("http://"+d.Addr, mdesclient.WithRetry(2, 5*time.Millisecond))
}

// assertStillServing proves the daemon serves a full round trip: health,
// upload, schedule.
func assertStillServing(t *testing.T, c *mdesclient.Client, tenant string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Health(ctx); err != nil {
		t.Fatalf("daemon unhealthy after fault: %v", err)
	}
	if _, err := c.Upload(ctx, tenant, mdesclient.UploadRequest{Source: testSource(t, machines.Pentium), Activate: true}); err != nil {
		t.Fatalf("upload after fault: %v", err)
	}
	if _, err := c.Schedule(ctx, tenant, FromIR(testBlocks(t, machines.Pentium, 30, 4))); err != nil {
		t.Fatalf("schedule after fault: %v", err)
	}
}

func TestFaultSlowLorisBody(t *testing.T) {
	d, c := startFaultDaemon(t)

	// Open a raw connection and dribble a request body one byte at a
	// time, slower than ReadTimeout allows. The server must cut the
	// connection instead of parking a handler on it forever.
	conn, err := net.Dial("tcp", d.Addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/tenants/loris/descriptions HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 100000\r\n\r\n", d.Addr)
	deadline := time.Now().Add(5 * time.Second)
	var wrote int
	for time.Now().Before(deadline) {
		_ = conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		if _, err := conn.Write([]byte("{")); err != nil {
			break // server cut us off — the desired outcome
		}
		wrote++
		time.Sleep(100 * time.Millisecond)
	}
	if time.Now().After(deadline) {
		t.Fatalf("server accepted a slow-loris body for 5s (%d bytes dribbled)", wrote)
	}
	assertStillServing(t, c, "after-loris")
}

func TestFaultSlowLorisHeaders(t *testing.T) {
	d, c := startFaultDaemon(t)
	conn, err := net.Dial("tcp", d.Addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Never finish the request line; ReadHeaderTimeout must cut us.
	fmt.Fprintf(conn, "POST /v1/te")
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		// Any response (or EOF) counts as the server acting; a clean read
		// of a response byte is fine too.
		_ = err
	}
	assertStillServing(t, c, "after-header-loris")
}

func TestFaultMidStreamDisconnect(t *testing.T) {
	d, c := startFaultDaemon(t)
	ctx := context.Background()
	if _, err := c.Upload(ctx, "cutoff", mdesclient.UploadRequest{Source: testSource(t, machines.PA7100), Activate: true}); err != nil {
		t.Fatalf("upload: %v", err)
	}

	// Announce a large schedule body, send half of it, and vanish.
	payload, _ := json.Marshal(mdesclient.ScheduleRequest{Blocks: FromIR(testBlocks(t, machines.PA7100, 400, 6))})
	conn, err := net.Dial("tcp", d.Addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	fmt.Fprintf(conn, "POST /v1/tenants/cutoff/schedule HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", d.Addr, len(payload))
	_, _ = conn.Write(payload[:len(payload)/2])
	_ = conn.Close()

	// The admission slot and version reference taken for that request
	// must come back: a full round trip proves nothing leaked.
	assertStillServing(t, c, "cutoff")

	// And the gate is fully released: every slot is available again.
	srv := d.Server()
	srv.mu.RLock()
	tn := srv.tenants["cutoff"]
	srv.mu.RUnlock()
	waitUntil(t, time.Second, func() bool { return tn.gate.inFlight() == 0 })
}

func TestFaultOversizedUpload(t *testing.T) {
	_, _, c := newTestDaemon(t, Config{MaxBodyBytes: 64 << 10})
	ctx := context.Background()
	_, err := c.Upload(ctx, "big", mdesclient.UploadRequest{Source: strings.Repeat("x", 80<<10)})
	assertAPIError(t, err, http.StatusRequestEntityTooLarge, "too_large")
	// Daemon keeps serving.
	if _, err := c.Upload(ctx, "big", mdesclient.UploadRequest{Source: testSource(t, machines.K5), Activate: true}); err != nil {
		t.Fatalf("upload after oversized: %v", err)
	}
}

func TestFaultCorruptUploadVariants(t *testing.T) {
	_, ts, c := newTestDaemon(t, Config{})
	ctx := context.Background()
	good := testSource(t, machines.SuperSPARC)

	cases := []struct {
		name   string
		mangle func(string) string
	}{
		{"truncated", func(s string) string { return s[:len(s)/3] }},
		{"keyword-typo", func(s string) string { return strings.ReplaceAll(s, "machine", "machnie") }},
		{"unbalanced", func(s string) string { return strings.Replace(s, "}", "", 1) }},
		{"binary-garbage", func(s string) string { return "\x00\x01\x02\xff" + s }},
		{"overflowing-constant", func(s string) string {
			return strings.Replace(s, "latency 1;", "latency 4294967296*4294967296+1;", 1)
		}},
	}
	for _, tc := range cases {
		_, err := c.Upload(ctx, "corrupt", mdesclient.UploadRequest{Source: tc.mangle(good)})
		if err == nil {
			t.Fatalf("%s: corrupt source accepted", tc.name)
		}
		apiErr, ok := err.(*mdesclient.APIError)
		if !ok {
			t.Fatalf("%s: unstructured error %T: %v", tc.name, err, err)
		}
		if apiErr.Status != http.StatusBadRequest {
			t.Fatalf("%s: got %d, want 400", tc.name, apiErr.Status)
		}
		if apiErr.Code != "bad_source" {
			t.Fatalf("%s: got code %s, want bad_source", tc.name, apiErr.Code)
		}
		if len(apiErr.Diagnostics) == 0 {
			t.Fatalf("%s: no positioned diagnostics", tc.name)
		}
	}

	// Non-JSON upload body.
	resp, err := http.Post(ts.URL+"/v1/tenants/corrupt/descriptions", "application/json", strings.NewReader("not json at all"))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	body := decodeErrorBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest || body.Code != "bad_request" {
		t.Fatalf("non-JSON body: got %d/%s", resp.StatusCode, body.Code)
	}

	// The tenant still works.
	if _, err := c.Upload(ctx, "corrupt", mdesclient.UploadRequest{Source: good, Activate: true}); err != nil {
		t.Fatalf("upload after corrupt attempts: %v", err)
	}
}

// TestFaultUnusableCacheDir points the daemon at a cache path that is a
// regular file, so every cache open fails. Uploads must degrade to the
// uncached pipeline (slower, still correct); by-hash references must
// fail with a structured 404, not an internal error.
func TestFaultUnusableCacheDir(t *testing.T) {
	dir := t.TempDir()
	notADir := filepath.Join(dir, "cache")
	if err := os.WriteFile(notADir, []byte("occupied"), 0o644); err != nil {
		t.Fatalf("plant file: %v", err)
	}
	_, _, c := newTestDaemon(t, Config{CacheDir: notADir})
	ctx := context.Background()

	// Upload with source: cache Put impossible, compile must still work.
	up, err := c.Upload(ctx, "nocache", mdesclient.UploadRequest{Source: testSource(t, machines.PA7100), Activate: true})
	if err != nil {
		t.Fatalf("upload with broken cache: %v", err)
	}
	if up.Cached {
		t.Fatalf("upload claims cache hit through a regular file")
	}
	if _, err := c.Schedule(ctx, "nocache", FromIR(testBlocks(t, machines.PA7100, 30, 8))); err != nil {
		t.Fatalf("schedule with broken cache: %v", err)
	}

	// A by-hash reference from a tenant without a live version under that
	// key cannot be served without a cache: structured 404. (The same
	// reference on tenant "nocache" would be answered from its registry.)
	_, err = c.Upload(ctx, "other-tenant", mdesclient.UploadRequest{SourceHash: up.SourceHash})
	assertAPIError(t, err, http.StatusNotFound, "not_found")
}

// TestFaultCacheDirDisappearsMidFlight uploads through a working cache,
// deletes the cache directory, and proves both existing engines and new
// uploads keep working.
func TestFaultCacheDirDisappearsMidFlight(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	_, _, c := newTestDaemon(t, Config{CacheDir: cacheDir})
	ctx := context.Background()

	up, err := c.Upload(ctx, "vanish", mdesclient.UploadRequest{Source: testSource(t, machines.K5), Activate: true})
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	if err := os.RemoveAll(cacheDir); err != nil {
		t.Fatalf("remove cache: %v", err)
	}
	// The frozen engine holds its own mapping; scheduling keeps working.
	if _, err := c.Schedule(ctx, "vanish", FromIR(testBlocks(t, machines.K5, 30, 2))); err != nil {
		t.Fatalf("schedule after cache removal: %v", err)
	}
	// New uploads recreate or bypass the cache, either way they serve.
	if _, err := c.Upload(ctx, "vanish", mdesclient.UploadRequest{Source: testSource(t, machines.Pentium), Activate: true}); err != nil {
		t.Fatalf("upload after cache removal: %v", err)
	}
	_ = up
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %s", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
