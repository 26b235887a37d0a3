// Package obs is Gaea's telemetry substrate: a metrics registry
// (atomic counters, computed gauges, and fixed-bucket histograms), a request
// tracer (span trees with ring-buffer retention), and a slow-op log.
// It has no dependencies outside the standard library and no
// background goroutines; every instrument is safe for concurrent use
// and every read path is a snapshot, so observing a hot kernel never
// blocks it.
//
// All entry points tolerate nil receivers: a layer handed a nil
// *Registry gets working orphan instruments (counted but never
// reported), and obs.Start over a context with no tracer returns a
// nil span whose methods no-op. Layers therefore instrument
// unconditionally and the wiring decides what is observed.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load reads the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// LatencyBuckets is the default histogram bucket layout for durations,
// in nanoseconds: 1µs to ~67s, doubling.
var LatencyBuckets = expBuckets(1_000, 27)

func expBuckets(base int64, n int) []int64 {
	b := make([]int64, n)
	v := base
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// Histogram is a fixed-bucket histogram with atomic bucket counts. The
// bucket layout is chosen at registration; Observe is lock-free.
type Histogram struct {
	bounds []int64 // ascending upper bounds; one overflow bucket follows
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// ObserveSince records the elapsed nanoseconds since start — the usual
// call on a latency histogram.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(int64(time.Since(start)))
	}
}

// BucketCount is one non-empty histogram bucket in a snapshot.
type BucketCount struct {
	// Le is the bucket's inclusive upper bound (0 on the overflow
	// bucket, whose bound is +inf).
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	P50     int64         `json:"p50"`
	P99     int64         `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram. Concurrent Observes may land between
// the bucket reads — the snapshot is consistent enough for reporting,
// never for accounting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		le := int64(0) // overflow bucket
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, BucketCount{Le: le, N: n})
	}
	s.P50 = s.quantile(0.50)
	s.P99 = s.quantile(0.99)
	return s
}

func (s HistogramSnapshot) quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.N
		if seen >= rank {
			if b.Le == 0 || b.Le > s.Max { // overflow bucket, or bound past max
				return s.Max
			}
			return b.Le
		}
	}
	return s.Max
}

// Registry names and holds instruments. Instruments are get-or-create:
// the first caller of a name mints it, later callers share it, so
// layers can register independently without wiring order. A nil
// registry yields working orphan instruments.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gaugeFns: map[string]func() int64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, minting it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// GaugeFunc registers a computed gauge: fn is evaluated at snapshot
// time. Re-registering a name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named latency histogram (nanosecond buckets),
// minting it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return newHistogram(LatencyBuckets)
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(LatencyBuckets)
		r.hists[name] = h
	}
	return h
}

// MetricsSnapshot is a point-in-time copy of every instrument in a
// registry, JSON-encodable for the wire and the debug endpoint.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry. Computed gauges are evaluated here, so
// a function that takes locks contends only with snapshot readers.
func (r *Registry) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	fns := make(map[string]func() int64, len(r.gaugeFns))
	for n, f := range r.gaugeFns {
		fns[n] = f
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()
	for n, c := range counters {
		s.Counters[n] = c.Load()
	}
	for n, f := range fns { // outside r.mu: fn may take foreign locks
		s.Gauges[n] = f()
	}
	for n, h := range hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// WriteText renders the snapshot as sorted `name value` lines, with
// histograms expanded to count/sum/max and the estimated quantiles —
// the /metrics wire format.
func (s MetricsSnapshot) WriteText(w io.Writer) {
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+5*len(s.Histograms))
	for n, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d\n", n, v))
	}
	for n, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d\n", n, v))
	}
	for n, h := range s.Histograms {
		lines = append(lines,
			fmt.Sprintf("%s_count %d\n", n, h.Count),
			fmt.Sprintf("%s_sum %d\n", n, h.Sum),
			fmt.Sprintf("%s_max %d\n", n, h.Max),
			fmt.Sprintf("%s_p50 %d\n", n, h.P50),
			fmt.Sprintf("%s_p99 %d\n", n, h.P99))
	}
	sort.Strings(lines)
	for _, l := range lines {
		io.WriteString(w, l)
	}
}
