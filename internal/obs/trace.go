package obs

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpansPerTrace bounds one trace's span list; spans past the cap
// are counted but not retained, so a runaway fan-out cannot hold the
// tracer's memory.
const maxSpansPerTrace = 512

// Locally-minted root traces are admitted through a token bucket:
// traceBurst traces immediately, refilled at traceRate per second.
// Below that rate every request is traced and the slow-op log is
// complete; above it (bulk loads, benchmarks) the excess skips span
// construction entirely, so tracing never taxes a hot path by more
// than the budget. Remote-stamped traces bypass the bucket — the
// caller already decided to trace.
const (
	traceRate  = 512 // sampled root traces per second
	traceBurst = 512
)

// A tracer retains the last recentRing completed traces and the last
// slowRing slow ops.
const (
	recentRing = 64
	slowRing   = 32
)

// Tracer assembles spans into traces and retains the most recent ones
// in a ring, plus a second ring of "slow ops": traces whose root span
// exceeded the configured threshold. One tracer serves a whole kernel
// (or a whole client); it allocates only while a trace is open.
type Tracer struct {
	thresh time.Duration // slow-op threshold; 0 disables the slow log

	tokens     atomic.Int64 // remaining local-trace budget
	lastRefill atomic.Int64 // unix nanos of the last bucket refill
	misses     atomic.Int64 // admit rejections since the last refill try

	mu      sync.Mutex
	ring    []*trace // completed traces, oldest overwritten
	pos     int
	slow    []*trace
	slowPos int
	open    map[*trace]struct{} // un-Ended root traces (stall watchdog input)
}

// NewTracer builds a tracer. Traces whose root span runs at least
// slowThreshold land in the slow-op log (0 disables it).
func NewTracer(slowThreshold time.Duration) *Tracer {
	t := &Tracer{thresh: slowThreshold, ring: make([]*trace, 0, recentRing), slow: make([]*trace, 0, slowRing),
		open: make(map[*trace]struct{})}
	t.tokens.Store(traceBurst)
	t.lastRefill.Store(time.Now().UnixNano())
	return t
}

// admit decides whether to open one more locally-minted trace. The
// fast paths are a lone CAS (tokens left) or a counter bump (bucket
// empty): time is consulted only every 64th rejection, so a saturated
// workload pays a few atomics per query, not a clock read. Sampling is
// approximate by design — races here cost at most a trace.
func (t *Tracer) admit() bool {
	for {
		if cur := t.tokens.Load(); cur > 0 {
			if t.tokens.CompareAndSwap(cur, cur-1) {
				return true
			}
			continue
		}
		if t.misses.Add(1)&63 != 0 {
			return false
		}
		now := time.Now().UnixNano()
		last := t.lastRefill.Load()
		add := (now - last) * traceRate / int64(time.Second)
		if add <= 0 {
			return false
		}
		add = min(add, traceBurst)
		if !t.lastRefill.CompareAndSwap(last, now) {
			continue // another goroutine refilled; recheck the bucket
		}
		t.tokens.Store(add - 1)
		return true
	}
}

// trace accumulates the spans of one request tree. The root span and a
// small span array live inline so that opening a typical trace costs a
// single allocation — the tracer sits on every kernel query, so this
// path is hot.
type trace struct {
	tracer *Tracer
	id     uint64

	mu      sync.Mutex
	spans   []*Span
	inline  [4]*Span // backing array for spans while the trace is small
	dropped int
	root    Span
	done    bool
}

// Span is one timed operation inside a trace. Spans are created by
// Start and closed by End; a nil span (tracing disabled) no-ops.
type Span struct {
	tr          *trace
	id          uint64
	parent      uint64
	name        string
	start       time.Time
	end         time.Time // zero while open; guarded by tr.mu
	attrs       []Attr    // guarded by tr.mu; starts on inlineAttrs
	inlineAttrs [2]Attr
}

// Attr is one key/value annotation on a span.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

type ctxKey int

const (
	spanKey ctxKey = iota
	tracerKey
	remoteKey
	remoteParentKey
)

// WithTracer returns a context whose Start calls record into t. The
// kernel installs its tracer on every request context; a client
// installs its own on dialled connections.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// WithRemoteTrace marks the context as a continuation of a trace that
// started in another process: the next root span started under it
// adopts id instead of minting a fresh trace ID, so the client's and
// the server's span trees share one identity.
func WithRemoteTrace(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, id)
}

// WithRemoteParent records the caller's span ID alongside an adopted
// remote trace: the next root span started under the context parents
// itself under that span instead of the trace root. A relaying hop (the
// federation router) stamps its own span ID here so a merged
// cross-process trace renders client→router→shard as three levels.
// Meaningful only together with WithRemoteTrace; 0 is a no-op.
func WithRemoteParent(ctx context.Context, span uint64) context.Context {
	if span == 0 {
		return ctx
	}
	return context.WithValue(ctx, remoteParentKey, span)
}

// TraceID reports the trace identity of the active span, or 0 when the
// context carries none — the value a client puts on the wire.
func TraceID(ctx context.Context) uint64 {
	if s, _ := ctx.Value(spanKey).(*Span); s != nil && s.tr != nil {
		return s.tr.id
	}
	return 0
}

// SpanID reports the identity of the active span, or 0 when the context
// carries none — the value a client puts on the wire as the remote
// parent so the callee's spans nest under the caller's.
func SpanID(ctx context.Context) uint64 {
	if s, _ := ctx.Value(spanKey).(*Span); s != nil && s.tr != nil {
		return s.id
	}
	return 0
}

// suppressed marks a context whose root trace was sampled out: child
// Start calls find it and no-op instead of minting fragment traces.
var suppressed Span

// Start opens a span named name. Under an active span it opens a
// child; otherwise, if the context carries a tracer, it opens a new
// trace (adopting a WithRemoteTrace identity when present). With
// neither it returns (ctx, nil), and the nil span's methods no-op —
// callers never branch on whether tracing is live.
//
// A new local trace is subject to the tracer's sampling budget; when
// the budget rejects it, Start marks the context so the whole request
// subtree skips span construction.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	return StartWith(ctx, nil, name)
}

// StartWith is Start with a fallback tracer: when the context carries
// neither an active span nor a tracer of its own, the new trace opens
// under t. Hot kernel entry points hold their tracer directly and use
// this to skip installing it on every request context.
func StartWith(ctx context.Context, t *Tracer, name string) (context.Context, *Span) {
	if parent, _ := ctx.Value(spanKey).(*Span); parent != nil {
		if parent.tr == nil {
			return ctx, nil // inside a sampled-out subtree
		}
		s := &Span{tr: parent.tr, id: newID(), parent: parent.id, name: name, start: time.Now()}
		parent.tr.add(s)
		return context.WithValue(ctx, spanKey, s), s
	}
	fromCtx := false
	if ct, _ := ctx.Value(tracerKey).(*Tracer); ct != nil {
		t, fromCtx = ct, true
	}
	if t == nil {
		return ctx, nil
	}
	id, _ := ctx.Value(remoteKey).(uint64)
	spanID := id
	var rootParent uint64
	if id == 0 {
		if !t.admit() {
			// Mark the subtree suppressed only when descendants could
			// reach the tracer through the context and mint fragment
			// traces; with an explicit fallback tracer they cannot, and
			// the rejected hot path stays allocation-free.
			if fromCtx {
				return context.WithValue(ctx, spanKey, &suppressed), nil
			}
			return ctx, nil
		}
		id = newID()
		spanID = id
	} else {
		// An adopted trace must NOT reuse the trace ID as its root span
		// ID: the originating process's root already did, and merged
		// cross-process trees would see two spans with one identity. The
		// remote parent (the caller's span, when stamped) threads the
		// adopted root under the caller's tree once traces are merged.
		spanID = newID()
		rootParent, _ = ctx.Value(remoteParentKey).(uint64)
	}
	// One allocation opens the trace: the root span and the initial span
	// array are inline, and a locally-minted root reuses the trace ID as
	// its span ID.
	tr := &trace{tracer: t, id: id}
	s := &tr.root
	*s = Span{tr: tr, id: spanID, parent: rootParent, name: name, start: time.Now()}
	tr.spans = append(tr.inline[:0], s)
	t.trackOpen(tr)
	return context.WithValue(ctx, spanKey, s), s
}

// trackOpen registers a freshly-opened root trace for the stall
// watchdog; record drops it on completion. Root opens are bounded by
// the sampling bucket (plus remote-stamped requests), so this lock is
// never on an unsampled hot path.
func (t *Tracer) trackOpen(tr *trace) {
	t.mu.Lock()
	t.open[tr] = struct{}{}
	t.mu.Unlock()
}

// newID mints a process-unique random 64-bit identifier (never 0).
func newID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

func (tr *trace) add(s *Span) {
	tr.mu.Lock()
	if len(tr.spans) < maxSpansPerTrace {
		tr.spans = append(tr.spans, s)
	} else {
		tr.dropped++
	}
	tr.mu.Unlock()
}

// TraceID reports the identity of the trace this span belongs to (0 on
// a nil span) — the value a client puts on the wire when the request it
// is about to send belongs to this span.
func (s *Span) TraceID() uint64 {
	if s == nil || s.tr == nil {
		return 0
	}
	return s.tr.id
}

// SpanID reports this span's own identity (0 on a nil span) — the value
// a client puts on the wire as the remote parent.
func (s *Span) SpanID() uint64 {
	if s == nil || s.tr == nil {
		return 0
	}
	return s.id
}

// Annotate attaches a key/value pair to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = s.inlineAttrs[:0]
	}
	s.attrs = append(s.attrs, Attr{K: key, V: value})
	s.tr.mu.Unlock()
}

// End closes the span. Closing a trace's root span completes the
// trace: it enters the recent ring and, if it ran past the slow-op
// threshold, the slow-op log. Child spans still open when the root
// ends (stragglers) keep recording into the completed trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	tr := s.tr
	tr.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	complete := s == &tr.root && !tr.done
	if complete {
		tr.done = true
	}
	tr.mu.Unlock()
	if complete {
		tr.tracer.record(tr, now.Sub(s.start))
	}
}

func (t *Tracer) record(tr *trace, rootDur time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.open, tr)
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, tr)
	} else {
		t.ring[t.pos] = tr
		t.pos = (t.pos + 1) % cap(t.ring)
	}
	if t.thresh > 0 && rootDur >= t.thresh {
		if len(t.slow) < cap(t.slow) {
			t.slow = append(t.slow, tr)
		} else {
			t.slow[t.slowPos] = tr
			t.slowPos = (t.slowPos + 1) % cap(t.slow)
		}
	}
}

// SpanData is the exported form of one span.
type SpanData struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // unix nanoseconds
	Dur    int64  `json:"dur"`   // nanoseconds; 0 while still open
	Attrs  []Attr `json:"attrs,omitempty"`
}

// TraceData is the exported form of one trace: its spans in start
// order plus the root's timing.
type TraceData struct {
	ID      uint64     `json:"id"`
	Root    string     `json:"root"`
	Start   int64      `json:"start"`
	Dur     int64      `json:"dur"`
	Dropped int        `json:"dropped,omitempty"`
	Spans   []SpanData `json:"spans"`
}

func (tr *trace) export() TraceData {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	d := TraceData{ID: tr.id, Dropped: tr.dropped, Spans: make([]SpanData, 0, len(tr.spans)),
		Root: tr.root.name, Start: tr.root.start.UnixNano()}
	if !tr.root.end.IsZero() {
		d.Dur = int64(tr.root.end.Sub(tr.root.start))
	}
	for _, s := range tr.spans {
		sd := SpanData{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start.UnixNano()}
		if !s.end.IsZero() {
			sd.Dur = int64(s.end.Sub(s.start))
		}
		if len(s.attrs) > 0 {
			sd.Attrs = append([]Attr(nil), s.attrs...)
		}
		d.Spans = append(d.Spans, sd)
	}
	sort.SliceStable(d.Spans, func(i, j int) bool { return d.Spans[i].Start < d.Spans[j].Start })
	return d
}

// Recent exports the retained completed traces, newest first.
func (t *Tracer) Recent() []TraceData {
	return t.exportRing(func(t *Tracer) ([]*trace, int) { return t.ring, t.pos })
}

// Slow exports the slow-op log, newest first.
func (t *Tracer) Slow() []TraceData {
	return t.exportRing(func(t *Tracer) ([]*trace, int) { return t.slow, t.slowPos })
}

func (t *Tracer) exportRing(pick func(*Tracer) ([]*trace, int)) []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ring, pos := pick(t)
	ordered := make([]*trace, 0, len(ring))
	// The ring is oldest-first from pos; walk backwards for newest-first.
	for i := len(ring) - 1; i >= 0; i-- {
		ordered = append(ordered, ring[(pos+i)%len(ring)])
	}
	t.mu.Unlock()
	out := make([]TraceData, 0, len(ordered))
	for _, tr := range ordered {
		out = append(out, tr.export())
	}
	return out
}

// OpenOp describes one root span still open: a request in flight, or
// — when its age exceeds the watchdog threshold — a stalled one.
type OpenOp struct {
	TraceID uint64    `json:"trace"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
}

// OpenOps lists the root spans currently open, oldest first. Root
// name and start are written once before the trace is published, so
// they are safe to read outside the trace lock.
func (t *Tracer) OpenOps() []OpenOp {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]OpenOp, 0, len(t.open))
	for tr := range t.open {
		out = append(out, OpenOp{TraceID: tr.id, Name: tr.root.name, Start: tr.root.start})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Find exports the retained trace with the given ID, if present.
//
//lint:gaea-allow deadcode test helper: client's trace tests look up the merged trace by ID
func (t *Tracer) Find(id uint64) (TraceData, bool) {
	if t == nil {
		return TraceData{}, false
	}
	t.mu.Lock()
	var found *trace
	for _, tr := range t.ring {
		if tr.id == id {
			found = tr
			break
		}
	}
	t.mu.Unlock()
	if found == nil {
		return TraceData{}, false
	}
	return found.export(), true
}

// Format renders the trace as an indented span tree for the CLI and
// the /traces endpoint's text form.
func (d TraceData) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %016x %s %v\n", d.ID, d.Root, time.Duration(d.Dur).Round(time.Microsecond))
	ids := map[uint64]bool{}
	for _, s := range d.Spans {
		ids[s.ID] = true
	}
	children := map[uint64][]SpanData{}
	for _, s := range d.Spans {
		parent := s.Parent
		if !ids[parent] {
			// An adopted root's parent lives in another process's trace;
			// when that trace is absent (rendering one process alone, or a
			// shard without its router), treat the span as a local root so
			// the tree never renders empty.
			parent = 0
		}
		children[parent] = append(children[parent], s)
	}
	var walk func(parent uint64, depth int)
	walk = func(parent uint64, depth int) {
		for _, s := range children[parent] {
			fmt.Fprintf(&b, "%s%s %v", strings.Repeat("  ", depth), s.Name, time.Duration(s.Dur).Round(time.Microsecond))
			for _, a := range s.Attrs {
				fmt.Fprintf(&b, " %s=%s", a.K, a.V)
			}
			b.WriteByte('\n')
			walk(s.ID, depth+1)
		}
	}
	walk(0, 1)
	if d.Dropped > 0 {
		fmt.Fprintf(&b, "  (+%d spans dropped)\n", d.Dropped)
	}
	return b.String()
}
