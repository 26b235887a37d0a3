package client

// End-to-end tracing across the wire: a traced client propagates its
// trace ID in the request frame, the server adopts it, and the kernel's
// spans land in the SAME trace — one remote call, one cross-process
// span tree. The TestTrace prefix is re-run by the CI observability
// shard under -race -cpu 1,4.

import (
	"strings"
	"testing"

	"gaea"
)

// TestTraceStreamPropagation: one remote QueryStream yields one
// trace ID on both sides, and the combined tree spans client, server,
// and kernel layers with at least four spans.
func TestTraceStreamPropagation(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	tracer := gaea.NewTracer(0)
	c, err := Dial(addr, Options{User: "tracer", Tracer: tracer, PageSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedRain(t, c, 10, 1)

	st, err := c.QueryStream(ctx, rainPred())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drainAll(t, st)); got != 10 {
		t.Fatalf("streamed %d objects, want 10", got)
	}

	var cl gaea.TraceData
	found := false
	for _, tr := range tracer.Recent() {
		if tr.Root == "client/query_stream" {
			cl, found = tr, true
			break
		}
	}
	if !found || cl.ID == 0 {
		t.Fatalf("no client/query_stream trace recorded (found=%v id=%x)", found, cl.ID)
	}

	var sv gaea.TraceData
	sfound := false
	for _, tr := range k.Tracer.Recent() {
		if tr.ID == cl.ID {
			sv, sfound = tr, true
			break
		}
	}
	if !sfound {
		t.Fatalf("server recorded no trace with the client's ID %x", cl.ID)
	}

	names := map[string]bool{}
	for _, s := range append(append([]gaea.SpanData{}, cl.Spans...), sv.Spans...) {
		names[s.Name] = true
	}
	if total := len(cl.Spans) + len(sv.Spans); total < 4 {
		t.Fatalf("combined trace has %d spans, want >= 4 (names %v)", total, names)
	}
	layer := func(prefix string) bool {
		for n := range names {
			if strings.HasPrefix(n, prefix) {
				return true
			}
		}
		return false
	}
	for _, prefix := range []string{"client/", "server/", "query/"} {
		if !layer(prefix) {
			t.Fatalf("no %s* span in the combined trace: %v", prefix, names)
		}
	}
}

// TestTraceQueryPropagation: the strict round-trip path (OpQuery)
// propagates the same way.
func TestTraceQueryPropagation(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	tracer := gaea.NewTracer(0)
	c, err := Dial(addr, Options{User: "tracer", Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedRain(t, c, 3, 1)
	if _, err := c.Query(ctx, rainPred()); err != nil {
		t.Fatal(err)
	}
	var id uint64
	for _, tr := range tracer.Recent() {
		if tr.Root == "client/query" {
			id = tr.ID
			break
		}
	}
	if id == 0 {
		t.Fatal("no client/query trace recorded")
	}
	sv, ok := k.Tracer.Find(id)
	if !ok {
		t.Fatalf("server has no trace %x", id)
	}
	if !strings.HasPrefix(sv.Root, "server/") {
		t.Fatalf("server trace root %q, want a server/* span", sv.Root)
	}
}

// TestTraceUntracedClient: with no tracer configured nothing changes —
// requests go out unstamped and the server still traces them under its
// own IDs.
func TestTraceUntracedClient(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)
	seedRain(t, c, 3, 1)
	if _, err := c.Query(ctx, rainPred()); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range k.Tracer.Recent() {
		if strings.HasPrefix(tr.Root, "server/") {
			found = true
		}
	}
	if !found {
		t.Fatal("server recorded no trace for an untraced client's query")
	}
}
