package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryGetOrCreate: one name, one instrument — whoever asks
// first mints it, later askers share it.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total")
	b := r.Counter("x_total")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	b.Add(2)
	if got := r.Snapshot().Counters["x_total"]; got != 3 {
		t.Fatalf("shared counter = %d, want 3", got)
	}
	if r.Histogram("h_ns") != r.Histogram("h_ns") {
		t.Fatal("same name returned distinct histograms")
	}
}

// TestNilRegistryOrphans: a nil registry hands out working orphan
// instruments, so instrumented code never branches on wiring.
func TestNilRegistryOrphans(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Histogram("c").Observe(5)
	r.GaugeFunc("d", func() int64 { return 1 })
	if snap := r.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestHistogramQuantiles: estimates are ordered (p50 ≤ p99 ≤ max), the
// max is exact, and the estimates land within one bucket of truth.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 1000) // 1µs .. 1ms
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Max != 1_000_000 {
		t.Fatalf("count=%d max=%d", s.Count, s.Max)
	}
	if s.P50 > s.P99 || s.P99 > s.Max {
		t.Fatalf("quantiles out of order: p50=%d p99=%d max=%d", s.P50, s.P99, s.Max)
	}
	if s.P50 < 400_000 || s.P50 > 700_000 {
		t.Fatalf("p50=%d implausible for a uniform 1µs..1ms distribution", s.P50)
	}
}

// TestHistogramObserveSince records a non-negative duration sample.
func TestHistogramObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_ns")
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	s := h.Snapshot()
	if s.Count != 1 || s.Max < int64(time.Millisecond) {
		t.Fatalf("count=%d max=%d", s.Count, s.Max)
	}
}

// TestWriteTextSortedAndExpanded: the /metrics text form is sorted and
// expands histograms into the five summary series.
func TestWriteTextSortedAndExpanded(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Inc()
	r.Counter("aa_total").Add(2)
	r.GaugeFunc("fn", func() int64 { return 9 })
	r.Histogram("h_ns").Observe(10)
	var b bytes.Buffer
	r.Snapshot().WriteText(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("unsorted: %q before %q", lines[i-1], lines[i])
		}
	}
	text := b.String()
	for _, want := range []string{"aa_total 2\n", "zz_total 1\n", "fn 9\n",
		"h_ns_count 1\n", "h_ns_sum 10\n", "h_ns_max 10\n", "h_ns_p50", "h_ns_p99"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
}

// TestSpanTree: Start under a tracer opens a root; Start under a span
// opens a child; End on the root completes the trace into the ring.
func TestSpanTree(t *testing.T) {
	tr := NewTracer(0)
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "req")
	root.Annotate("k", "v")
	cctx, child := Start(ctx, "step")
	_, grand := Start(cctx, "substep")
	grand.End()
	child.End()
	if got := TraceID(ctx); got == 0 || got != root.TraceID() {
		t.Fatalf("TraceID(ctx)=%d, root=%d", got, root.TraceID())
	}
	if len(tr.Recent()) != 0 {
		t.Fatal("trace completed before the root ended")
	}
	root.End()
	rec := tr.Recent()
	if len(rec) != 1 {
		t.Fatalf("%d completed traces, want 1", len(rec))
	}
	d := rec[0]
	if d.Root != "req" || len(d.Spans) != 3 {
		t.Fatalf("root=%q spans=%d", d.Root, len(d.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range d.Spans {
		byName[s.Name] = s
	}
	if byName["req"].Parent != 0 ||
		byName["step"].Parent != byName["req"].ID ||
		byName["substep"].Parent != byName["step"].ID {
		t.Fatalf("parentage wrong: %+v", d.Spans)
	}
	out := d.Format()
	if !strings.Contains(out, "req") || !strings.Contains(out, "  step") ||
		!strings.Contains(out, "    substep") || !strings.Contains(out, "k=v") {
		t.Fatalf("Format:\n%s", out)
	}
}

// TestNilSpanNoops: without a tracer on the context, Start returns a
// nil span whose whole API no-ops.
func TestNilSpanNoops(t *testing.T) {
	ctx, sp := Start(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("span without tracer should be nil")
	}
	sp.Annotate("a", "b")
	sp.End()
	if sp.TraceID() != 0 || TraceID(ctx) != 0 {
		t.Fatal("nil span leaked a trace ID")
	}
}

// TestRemoteTraceAdoption: WithRemoteTrace makes the next root span
// adopt the caller's trace identity — the server half of a propagated
// trace.
func TestRemoteTraceAdoption(t *testing.T) {
	tr := NewTracer(0)
	ctx := WithRemoteTrace(WithTracer(context.Background(), tr), 0xabcdef)
	_, sp := Start(ctx, "server/query")
	sp.End()
	rec := tr.Recent()
	if len(rec) != 1 || rec[0].ID != 0xabcdef {
		t.Fatalf("adopted trace = %+v, want ID abcdef", rec)
	}
	d, ok := tr.Find(0xabcdef)
	if !ok || d.Root != "server/query" {
		t.Fatalf("Find: ok=%v root=%q", ok, d.Root)
	}
	// The adopting root must mint its own span ID: the originating
	// process's root already carries the trace ID, and a merged
	// cross-process tree cannot hold two spans with one identity.
	if d.Spans[0].ID == 0xabcdef {
		t.Fatal("adopted root reused the trace ID as its span ID")
	}
}

// TestRingRetention: the recent ring keeps the newest N traces, newest
// first.
func TestRingRetention(t *testing.T) {
	tr := NewTracer(0)
	ctx := WithTracer(context.Background(), tr)
	var last uint64
	for i := 0; i < recentRing+6; i++ {
		_, sp := Start(ctx, "op")
		last = sp.TraceID()
		sp.End()
	}
	rec := tr.Recent()
	if len(rec) != recentRing {
		t.Fatalf("ring holds %d, want %d", len(rec), recentRing)
	}
	if rec[0].ID != last {
		t.Fatalf("newest first violated: got %x want %x", rec[0].ID, last)
	}
}

// TestSlowOpLog: only traces past the threshold enter the slow log.
func TestSlowOpLog(t *testing.T) {
	tr := NewTracer(5 * time.Millisecond)
	ctx := WithTracer(context.Background(), tr)
	_, fast := Start(ctx, "fast")
	fast.End()
	_, slow := Start(ctx, "slow")
	time.Sleep(10 * time.Millisecond)
	slow.End()
	sl := tr.Slow()
	if len(sl) != 1 || sl[0].Root != "slow" {
		t.Fatalf("slow log = %+v, want exactly the slow op", sl)
	}
	if len(tr.Recent()) != 2 {
		t.Fatalf("recent ring holds %d, want both", len(tr.Recent()))
	}
}

// TestNilTracerSafe: a nil *Tracer answers empty exports rather than
// panicking — observers never nil-check.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Recent() != nil || tr.Slow() != nil {
		t.Fatal("nil tracer exported traces")
	}
	if _, ok := tr.Find(1); ok {
		t.Fatal("nil tracer found a trace")
	}
	// WithTracer(nil) must leave the context untraced.
	_, sp := Start(WithTracer(context.Background(), nil), "x")
	if sp != nil {
		t.Fatal("nil tracer produced a live span")
	}
}

// TestTraceSampling: the token bucket admits a burst of local traces,
// rejects the flood past it (marking the subtree so children no-op),
// and never samples out a remote-stamped trace.
func TestTraceSampling(t *testing.T) {
	tr := NewTracer(0)
	ctx := WithTracer(context.Background(), tr)
	admitted := 0
	for i := 0; i < 5000; i++ {
		c, sp := Start(ctx, "op")
		if sp != nil {
			admitted++
			sp.End()
			continue
		}
		if _, ch := Start(c, "child"); ch != nil {
			t.Fatal("child of a sampled-out root produced a live span")
		}
		if TraceID(c) != 0 {
			t.Fatal("sampled-out context leaked a trace ID")
		}
	}
	if admitted < traceBurst/2 || admitted > 4*traceBurst {
		t.Fatalf("admitted %d of 5000, want roughly the burst (%d)", admitted, traceBurst)
	}
	_, sp := Start(WithRemoteTrace(ctx, 42), "forced")
	if sp == nil || sp.TraceID() != 42 {
		t.Fatalf("remote-stamped trace was sampled out (span=%v)", sp)
	}
	sp.End()
}

// TestConcurrentInstruments: counters, histograms, and spans under
// -race: many goroutines hammer one registry and one tracer.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(0)
	base := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("c_total").Inc()
				r.Histogram("h_ns").Observe(int64(i))
				ctx, root := Start(base, "root")
				_, child := Start(ctx, "child")
				child.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["c_total"] != 1600 {
		t.Fatalf("c_total=%d, want 1600", snap.Counters["c_total"])
	}
	if snap.Histograms["h_ns"].Count != 1600 {
		t.Fatalf("h_ns count=%d, want 1600", snap.Histograms["h_ns"].Count)
	}
	if len(tr.Recent()) != recentRing {
		t.Fatalf("ring=%d, want %d", len(tr.Recent()), recentRing)
	}
}
