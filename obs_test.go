package gaea

// Observability-surface tests: the frozen Stats() line (the deprecation
// shim over StatsSnapshot), the structured snapshot and its JSON
// export, the kernel slow-op log, and the opt-in debug HTTP endpoint.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"os"
	"path/filepath"

	"gaea/internal/sptemp"
)

// obsSockPath returns a short unix socket path (sun_path is ~108
// bytes; t.TempDir can exceed it under deep test names).
func obsSockPath(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "gaea-obs-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return filepath.Join(dir, "s")
}

// TestStatsGoldenLine pins the Stats() format byte-for-byte on a fresh
// kernel: scrapers grep this line, so the shim over StatsSnapshot must
// render exactly what the pre-telescope kernel printed.
func TestStatsGoldenLine(t *testing.T) {
	k, err := Open(t.TempDir(), Options{NoSync: true, User: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	want := fmt.Sprintf("classes=0 processes=0 concepts=0 experiments=0 objects=0 tasks=0 "+
		"deriv[deps=0 stale=0 epoch=0 sweeps=0 invalidated=0 refreshed=0 dropped=0 policy=lazy] "+
		"mvcc[epoch=%d versions=0 reclaimed=0 pins=0 oldest_pin=0] "+
		"wal[bytes=%d checkpoints=0]", k.Objects.CurrentEpoch(), k.Store.WALBytes())
	if got := k.Stats(); got != want {
		t.Fatalf("Stats() drifted from the golden line:\ngot  %q\nwant %q", got, want)
	}
	if got, snap := k.Stats(), k.StatsSnapshot().String(); got != snap {
		t.Fatalf("Stats() %q != StatsSnapshot().String() %q", got, snap)
	}
}

// TestStatsSnapshotFields: the structured form carries real numbers —
// model counts and the metrics the commit path recorded.
func TestStatsSnapshotFields(t *testing.T) {
	k, err := Open(t.TempDir(), Options{NoSync: true, User: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	defineRainClass(t, k)
	s := k.Begin(context.Background())
	for i := 0; i < 3; i++ {
		if _, err := s.Create(rainObject(float64(i), float64(i)*20), "seed"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	snap := k.StatsSnapshot()
	// tasks= counts load groups: the three creates share one class and note.
	if snap.Classes != 1 || snap.Objects != 3 || snap.Tasks != 1 {
		t.Fatalf("snapshot counts: classes=%d objects=%d tasks=%d", snap.Classes, snap.Objects, snap.Tasks)
	}
	if got := snap.Metrics.Counters["session_commits_total"]; got != 1 {
		t.Fatalf("session_commits_total = %d, want 1", got)
	}
	if h := snap.Metrics.Histograms["session_commit_ns"]; h.Count != 1 || h.Max <= 0 {
		t.Fatalf("session_commit_ns = %+v", h)
	}
	if !strings.Contains(snap.String(), "objects=3") {
		t.Fatalf("snapshot string %q", snap.String())
	}
}

// TestObsJSONRoundTrip: the wire/debug export unmarshals back into
// ObsExport and agrees with the live kernel.
func TestObsJSONRoundTrip(t *testing.T) {
	k, err := Open(t.TempDir(), Options{NoSync: true, User: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	defineRainClass(t, k)
	if _, err := k.CreateObject(context.Background(), rainObject(1, 0), "seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Query(context.Background(), Request{Class: "rain",
		Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}}); err != nil {
		t.Fatal(err)
	}
	b, err := k.ObsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var ex ObsExport
	if err := json.Unmarshal(b, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Stats.String() != k.Stats() {
		t.Fatalf("exported stats %q != live stats %q", ex.Stats.String(), k.Stats())
	}
	if len(ex.Traces) == 0 {
		t.Fatal("export carries no traces after a traced query")
	}
	if ex.Stats.Metrics.Counters["query_total"] != 1 {
		t.Fatalf("query_total = %d, want 1", ex.Stats.Metrics.Counters["query_total"])
	}
}

// TestSlowOpThreshold: under a 1µs threshold every query is a slow op —
// a cold derivation included, which leaves its query/run span tree in
// the log and its latency in query_ns; a negative threshold disables the
// log entirely.
func TestSlowOpThreshold(t *testing.T) {
	run := func(threshold time.Duration) int {
		k, err := Open(t.TempDir(), Options{NoSync: true, User: "tester", SlowOpThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		defer k.Close()
		defineRainClass(t, k)
		if _, err := k.CreateObject(context.Background(), rainObject(1, 0), "seed"); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Query(context.Background(), Request{Class: "rain",
			Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}}); err != nil {
			t.Fatal(err)
		}
		return len(k.Tracer.Slow())
	}
	if n := run(time.Microsecond); n == 0 {
		t.Fatal("1µs threshold captured no slow ops")
	}
	if n := run(-1); n != 0 {
		t.Fatalf("disabled slow-op log still captured %d traces", n)
	}

	k := openKernelOpts(t, Options{NoSync: true, User: "tester", SlowOpThreshold: time.Microsecond})
	loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	if _, err := k.Query(context.Background(), Request{Class: "landcover",
		Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}}); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(k.Tracer.Slow(), func(tr TraceData) bool { return tr.Root == "query/run" }) {
		t.Fatalf("no query/run trace among %d slow ops after a cold derivation", len(k.Tracer.Slow()))
	}
	if h := k.StatsSnapshot().Metrics.Histograms["query_ns"]; h.Count == 0 || h.Max <= 0 {
		t.Fatalf("query_ns recorded nothing: %+v", h)
	}
}

// TestDebugEndpoint: ServeOptions.DebugAddr exposes /metrics (text),
// /traces (the JSON export), and pprof, bound lazily at Serve and torn
// down by Shutdown.
func TestDebugEndpoint(t *testing.T) {
	k, err := Open(t.TempDir(), Options{NoSync: true, User: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	defineRainClass(t, k)

	l, err := net.Listen("unix", obsSockPath(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := k.NewServer(ServeOptions{DebugAddr: "127.0.0.1:0"})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	var addr string
	for i := 0; i < 200; i++ {
		if addr = srv.DebugAddr(); addr != "" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("debug endpoint never bound")
	}

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "query_total 0") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	code, body := get("/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces: %d", code)
	}
	var ex ObsExport
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatalf("/traces not an ObsExport: %v", err)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof: %d", code)
	}

	// The flight-recorder endpoints: a committed session shows up as a
	// commit_group event, and the time-series ring holds at least the
	// sample Open took.
	s := k.Begin(context.Background())
	if _, err := s.Create(rainObject(2, 20), "seed"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	code, body = get("/events")
	if code != http.StatusOK {
		t.Fatalf("/events: %d", code)
	}
	var evs struct {
		Events  []Event `json:"events"`
		Dropped int64   `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/events not JSON: %v", err)
	}
	found := false
	for _, ev := range evs.Events {
		if ev.Type == "commit_group" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/events holds no commit_group: %q", body)
	}
	code, body = get("/timeseries")
	if code != http.StatusOK {
		t.Fatalf("/timeseries: %d", code)
	}
	var pts struct {
		Points []SeriesPoint `json:"points"`
	}
	if err := json.Unmarshal([]byte(body), &pts); err != nil {
		t.Fatalf("/timeseries not JSON: %v", err)
	}
	if len(pts.Points) == 0 {
		t.Fatal("/timeseries holds no points")
	}

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("debug endpoint survived Shutdown")
	}
}
