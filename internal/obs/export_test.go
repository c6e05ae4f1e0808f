package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"mdes/internal/lowlevel"
	"mdes/internal/obs/flight"
	"mdes/internal/obs/profile"
)

func testGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthzWithoutFlight(t *testing.T) {
	r := NewRegistry(nil, nil)
	srv, err := ServeMetrics("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := testGet(t, srv.Addr, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz does not parse: %v\n%s", err, body)
	}
	if health.Status != "ok" {
		t.Errorf("/healthz status = %q", health.Status)
	}
	if code, _ := testGet(t, srv.Addr, "/debug/flight"); code != http.StatusNotFound {
		t.Errorf("/debug/flight without exporter: status %d, want 404", code)
	}
}

func TestFlightEndpoints(t *testing.T) {
	r := NewRegistry([]string{"alu"}, []string{"r0"})
	l := newTestLocal(r)
	l.attempt(PhaseList, 0, 1, 1, 10, true)
	l.Merge()
	// 42 blocks, 3 of them over the backtrack-depth trigger.
	fl := flight.NewRecorder(flight.Config{BacktrackDepth: 1})
	entries := make([]flight.Entry, 42)
	for i := range entries {
		entries[i] = flight.Entry{Block: int64(i), Phase: PhaseList, WallNs: 1000}
		if i < 3 {
			entries[i].Backtracks = 1
		}
		fl.Classify(&entries[i])
	}
	fl.Merge(entries)
	srv, err := ServeMetrics("127.0.0.1:0", r, WithFlightExporter(fl))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := testGet(t, srv.Addr, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var health struct {
		Status    string `json:"status"`
		Blocks    int64  `json:"blocks"`
		Anomalies int64  `json:"anomalies"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz does not parse: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.Blocks != 42 || health.Anomalies != 3 {
		t.Errorf("/healthz = %+v", health)
	}

	code, body = testGet(t, srv.Addr, "/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight status %d", code)
	}
	var dump struct {
		Blocks int64 `json:"blocks"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/debug/flight does not parse: %v\n%s", err, body)
	}
	if dump.Blocks != 42 {
		t.Errorf("dump blocks = %d", dump.Blocks)
	}

	// The flight recorder's metrics ride along on /metrics, after the
	// registry's own series.
	_, body = testGet(t, srv.Addr, "/metrics")
	if !strings.Contains(body, "mdes_flight_blocks_total 42") {
		t.Errorf("/metrics missing flight series:\n%s", body)
	}
	if !strings.Contains(body, `mdes_attempts_total{phase="list"} 1`) {
		t.Errorf("/metrics missing registry series:\n%s", body)
	}
}

func TestProfileEndpoint(t *testing.T) {
	r := NewRegistry(nil, nil)
	m := profileTestMDES()
	p := profile.New(m)
	l := (&Views{Profile: p, MDES: m}).NewLocal()
	l.Begin()
	l.Attempt(PhaseList, m.Constraints[0], 0, "op", 0, 1, 1, -1, true, []int{0})
	l.Attempt(PhaseList, m.Constraints[0], 1, "op", 0, 1, 1, -1, false, nil)
	l.Conflict(0, 0, 0)
	l.Merge()
	srv, err := ServeMetrics("127.0.0.1:0", r, WithProfileExporter(p))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := testGet(t, srv.Addr, "/debug/profile")
	if code != http.StatusOK {
		t.Fatalf("/debug/profile status %d", code)
	}
	var snap struct {
		Merges      int64 `json:"merges"`
		Constraints []struct {
			Name      string `json:"name"`
			Attempts  int64  `json:"attempts"`
			Conflicts int64  `json:"conflicts"`
		} `json:"constraints"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/profile does not parse: %v\n%s", err, body)
	}
	if snap.Merges != 1 || len(snap.Constraints) != 1 ||
		snap.Constraints[0].Attempts != 2 || snap.Constraints[0].Conflicts != 1 {
		t.Errorf("/debug/profile snapshot = %+v", snap)
	}
}

func TestProfileEndpointUnconfigured(t *testing.T) {
	srv, err := ServeMetrics("127.0.0.1:0", NewRegistry(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _ := testGet(t, srv.Addr, "/debug/profile"); code != http.StatusNotFound {
		t.Errorf("/debug/profile without exporter: status %d, want 404", code)
	}
}

// profileTestMDES is a one-constraint description for endpoint tests.
func profileTestMDES() *lowlevel.MDES {
	o := &lowlevel.Option{Src: "A[0]", Usages: []lowlevel.Usage{{Time: 0, Res: 0}}}
	tr := &lowlevel.Tree{Name: "A", Options: []*lowlevel.Option{o}}
	return &lowlevel.MDES{
		MachineName:   "toy",
		NumResources:  1,
		ResourceNames: []string{"r0"},
		Options:       []*lowlevel.Option{o},
		Trees:         []*lowlevel.Tree{tr},
		Constraints:   []*lowlevel.Constraint{{Name: "alu", Trees: []*lowlevel.Tree{tr}}},
	}
}

// TestServerCloseStopsListener asserts the satellite-1 contract: after
// Close returns, the listener no longer accepts connections.
func TestServerCloseStopsListener(t *testing.T) {
	srv, err := ServeMetrics("127.0.0.1:0", NewRegistry(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr
	if code, _ := testGet(t, addr, "/healthz"); code != http.StatusOK {
		t.Fatalf("pre-close /healthz status %d", code)
	}
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("GET succeeded after Close; listener still accepting")
	}
}
