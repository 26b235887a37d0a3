package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"gaea"
)

// metric is one reported number. Samples is how many observations stand
// behind a median or percentile (0 for a count or a ratio of totals).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// header explains a run from its own output.
type header struct {
	Workload        string    `json:"workload"`
	Seed            uint64    `json:"seed"`
	Seconds         int       `json:"seconds"`
	Trace           bool      `json:"trace"`
	CPUs            int       `json:"cpus"`
	GOMAXPROCS      int       `json:"gomaxprocs"`
	GoVersion       string    `json:"go_version"`
	Commit          string    `json:"commit"`
	Connections     int       `json:"connections"`
	LogicalClients  int       `json:"logical_clients"`
	OpsPerClient    int       `json:"ops_per_client"`
	WarmupPerClient int       `json:"warmup_ops_per_client"`
	MeasuredOps     int       `json:"measured_ops"`
	MeasuredSeconds float64   `json:"measured_seconds"`
	TracedOps       int       `json:"traced_ops,omitempty"`
	SetupSeconds    []float64 `json:"setup_seconds"`
	Filesystem      string    `json:"filesystem"`
	AutoCheckpoints int64     `json:"auto_checkpoints_measured"`
	GCCycles        uint32    `json:"gc_cycles_measured"`
	OpsDigest       string    `json:"ops_digest"`
	UserBytes       int64     `json:"user_bytes"`
	DiskBytes       int64     `json:"disk_bytes"`
}

// output is the file a run writes and -check reads.
type output struct {
	Header    header            `json:"header"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Diagnostics are reported but never gated.
	Diagnostics map[string]metric `json:"diagnostics,omitempty"`
}

// contractLine is the last line of standard output: exactly these keys,
// each metric exactly a value and a unit.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// counter is how far a registry counter (or computed gauge: the registry
// files those under Gauges) moved across the phase.
func counter(p *phase, name string) float64 {
	read := func(s *gaea.StatsSnapshot) int64 {
		if v, ok := s.Metrics.Counters[name]; ok {
			return v
		}
		return s.Metrics.Gauges[name]
	}
	return float64(read(&p.after) - read(&p.before))
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// build turns a run's measurements into its output document.
func (r *result) build() output {
	m := &r.measured
	out := output{
		Header: header{
			Workload: r.def.Name, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Trace: r.cfg.trace,
			CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commitID(), Connections: runtime.NumCPU(), LogicalClients: r.clients,
			OpsPerClient: r.quota, WarmupPerClient: r.warmup,
			MeasuredOps: m.ops, MeasuredSeconds: m.wall.Seconds(), TracedOps: r.traced.ops,
			SetupSeconds: r.setup, Filesystem: r.fs,
			AutoCheckpoints: m.after.Checkpoints - m.before.Checkpoints, GCCycles: m.mem.NumGC,
			OpsDigest: fmt.Sprintf("%016x", r.digest), UserBytes: r.userBytes, DiskBytes: r.diskBytes,
		},
		Attempted: m.ops + r.traced.ops,
		Failed:    m.failed + r.traced.failed + r.verified,
	}
	out.Correct = out.Failed == 0

	// Every timing is taken over the whole measured phase.
	n := len(m.lat)
	e2e := map[string]metric{
		"setup_s":                  {Value: median(r.setup), Samples: len(r.setup)},
		"disk_bytes_per_user_byte": {Value: ratio(float64(r.diskBytes), float64(r.userBytes))},
	}
	diag := map[string]metric{
		"e2e.ops_per_s":            {Value: m.opsPerS(), Samples: n},
		"e2e.op_p50_us":            {Value: percentile(m.lat, 0.50), Samples: n},
		"e2e.op_p95_us":            {Value: percentile(m.lat, 0.95), Samples: n},
		"e2e.cpu_us_per_op":        {Value: ratio(float64(m.cpu)/1e3, float64(n)), Samples: n},
		"e2e.rss_peak_mb":          {Value: r.rssMiB},
		"e2e.op_p99_us":            {Value: percentile(m.lat, 0.99), Samples: n},
		"e2e.op_max_us":            {Value: percentile(m.lat, 1), Samples: n},
		"e2e.op_samples":           {Value: float64(n)},
		"e2e.failed_ops":           {Value: float64(out.Failed)},
		"e2e.allocs_per_op":        {Value: ratio(float64(m.mem.Mallocs), float64(n))},
		"e2e.alloc_bytes_per_op":   {Value: ratio(float64(m.mem.TotalAlloc), float64(n))},
		"e2e.gc_pause_total_ms":    {Value: float64(m.mem.PauseTotalNs) / 1e6},
		"deriv.stale_end":          {Value: float64(r.staleEnd)},
		"object.live_versions_end": {Value: float64(m.after.MVCC.LiveVersions)},
	}
	if !r.cfg.trace {
		out.Metrics, out.Diagnostics = withUnits(endToEnd, e2e, true), withUnits(perLayer, diag, false)
		return out
	}
	layers := r.layerMetrics()
	for k, v := range diag {
		layers[k] = v
	}
	layers["storage.reopen_ms"] = metric{Value: median(r.reopen), Samples: len(r.reopen)}
	layers["trace.overhead_ratio"] = metric{Value: ratio(m.opsPerS(), r.traced.opsPerS())}
	out.Metrics, out.Diagnostics = withUnits(perLayer, layers, true), withUnits(endToEnd, e2e, true)
	return out
}

// withUnits picks the metrics defs names out of src and gives them their
// units. With all set, a metric the run did not measure reads 0.
func withUnits(defs []metricDef, src map[string]metric, all bool) map[string]metric {
	dst := map[string]metric{}
	for _, d := range defs {
		v, ok := src[d.Name]
		if !ok && !all {
			continue
		}
		v.Unit = d.Unit
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
		}
		dst[d.Name] = v
	}
	return dst
}

// layerMetrics derives the per-layer figures: counts from the untraced
// phase's snapshot deltas, timings from the traced phase's spans.
func (r *result) layerMetrics() map[string]metric {
	m := &r.measured
	ops := float64(len(m.lat))
	commits := counter(m, "session_commits_total")
	hits, misses := counter(m, "storage_buffer_hits_total"), counter(m, "storage_buffer_misses_total")
	out := map[string]metric{
		"server.requests_per_op":         {Value: ratio(counter(m, "server_v2_requests_total"), ops)},
		"storage.buffer_hit_ratio":       {Value: ratio(hits, hits+misses)},
		"storage.buffer_misses_per_op":   {Value: ratio(misses, ops)},
		"server.pushed_pages_per_op":     {Value: ratio(float64(m.pushed), ops)},
		"server.bytes_avoided_per_op":    {Value: ratio(float64(m.avoid), ops)},
		"storage.wal_syncs_per_commit":   {Value: ratio(counter(m, "storage_wal_syncs_total"), commits)},
		"storage.wal_appends_per_commit": {Value: ratio(counter(m, "storage_wal_appends_total"), commits)},
		"storage.checkpoints":            {Value: counter(m, "storage_checkpoints_total")},
		"storage.checkpoint_p50_ms": {Value: float64(m.after.Metrics.Histograms["storage_checkpoint_ns"].P50) / 1e6,
			Samples: int(m.after.Metrics.Histograms["storage_checkpoint_ns"].Count)},
		"object.gc_reclaimed":        {Value: float64(m.after.MVCC.Reclaimed - m.before.MVCC.Reclaimed)},
		"session.conflicts":          {Value: counter(m, "session_conflicts_total")},
		"deriv.invalidations_per_op": {Value: ratio(counter(m, "deriv_invalidations_total"), ops)},
		"deriv.refreshes_per_op":     {Value: ratio(counter(m, "deriv_refreshes_total"), ops)},
		"query.derive_per_op":        {Value: ratio(counter(m, "query_derive_total"), ops)},
	}

	// Group the traced phase's spans once: per-call durations by name, and
	// the self times of the spans that had calls replayed beneath them.
	spans := r.traced.spans
	self := selfTimes(spans)
	parents := map[int64]bool{}
	for _, s := range spans {
		parents[s.Parent] = true
	}
	perCall, selfOf := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		perCall[s.Name] = append(perCall[s.Name], s.perCall())
		if parents[s.ID] {
			selfOf[s.Name] = append(selfOf[s.Name], self[s.ID])
		}
	}
	// p50 reports the median per-call duration of the spans named name, in
	// the unit whose size in nanoseconds is unitNS.
	p50 := func(metricName, name string, unitNS float64) {
		out[metricName] = metric{Value: median(perCall[name]) / unitNS, Samples: len(perCall[name])}
	}
	// val reports the median of the replays' non-duration measurement name.
	val := func(metricName, name string) {
		xs := r.traced.values[name]
		out[metricName] = metric{Value: median(xs), Samples: len(xs)}
	}
	// selfP50 reports the median self time, in µs, of the spans named name.
	selfP50 := func(metricName, name string) {
		out[metricName] = metric{Value: median(selfOf[name]) / 1e3, Samples: len(selfOf[name])}
	}
	p50("client.query_p50_us", "client.query", 1e3)
	p50("kernel.query_p50_us", "kernel.query", 1e3)
	p50("wire.encode_request_ns", "wire.encode_request", 1)
	p50("wire.decode_request_ns", "wire.decode_request", 1)
	p50("wire.encode_response_ns", "wire.encode_response", 1)
	p50("wire.decode_response_ns", "wire.decode_response", 1)
	val("wire.bytes_per_op", "wire.bytes")
	selfP50("server.residual_p50_us", "client.query")
	p50("query.run_at_p50_us", "query.run_at", 1e3)
	p50("object.query_at_p50_us", "object.query_at", 1e3)
	selfP50("query.self_p50_us", "query.run_at")

	// One replayed page stands for its op: per-object cost × 1000.
	p50("query.page_raw_at_us_per_kobj", "query.page_raw_at", 1)
	p50("object.query_from_at_us_per_kobj", "object.query_from_at", 1)
	p50("object.get_raw_at_p50_ns", "object.get_raw_at", 1)
	p50("object.decode_wire_p50_ns", "object.decode_wire", 1)
	p50("wire.decode_raw_object_p50_ns", "wire.decode_raw_object", 1)

	p50("kernel.commit_p50_us", "kernel.commit", 1e3)
	p50("object.apply_batch_p50_us", "object.apply_batch", 1e3)
	p50("storage.batch_commit_sync_p50_us", "storage.batch_commit_sync", 1e3)
	p50("storage.batch_commit_nosync_p50_us", "storage.batch_commit_nosync", 1e3)
	selfP50("storage.fsync_p50_us", "storage.batch_commit_sync")
	val("storage.wal_bytes_per_user_byte", "storage.wal_bytes_per_user_byte")

	p50("deriv.sweep_p50_us", "deriv.sweep", 1e3)
	p50("petri.plan_p50_us", "petri.plan", 1e3)
	p50("task.recompute_p50_us", "task.recompute", 1e3)
	p50("process.eval_p50_us", "process.eval", 1e3)
	p50("imgops.unsuperclassify_p50_us", "imgops.unsuperclassify", 1e3)
	p50("imgops.img_subtract_p50_us", "imgops.img_subtract", 1e3)
	p50("storage.blob_put_p50_us", "storage.blob_put", 1e3)
	p50("object.update_p50_us", "object.update", 1e3)
	return out
}

// print writes the report for people, the output file, and last the
// contract line.
func (o *output) print(w io.Writer, outDir string) error {
	h := o.Header
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%v cpus=%d GOMAXPROCS=%d %s commit=%s fs=%s\n",
		h.Workload, h.Seed, h.Seconds, h.Trace, h.CPUs, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Filesystem)
	fmt.Fprintf(w, "# %d connections x %d logical clients, %d ops each (%d warm-up), digest %s; measured %d ops in %.2fs; set-up %.3v s; auto-checkpoints %d, GC cycles %d\n",
		h.Connections, h.LogicalClients/max(h.Connections, 1), h.OpsPerClient, h.WarmupPerClient, h.OpsDigest,
		h.MeasuredOps, h.MeasuredSeconds, h.SetupSeconds, h.AutoCheckpoints, h.GCCycles)
	for _, set := range []map[string]metric{o.Metrics, o.Diagnostics} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			v := set[name]
			fmt.Fprintf(w, "%-36s %16.4f %-6s", name, v.Value, v.Unit)
			if v.Samples > 0 {
				fmt.Fprintf(w, " n=%d", v.Samples)
			}
			fmt.Fprintln(w)
		}
	}
	name := h.Workload
	if h.Trace {
		name += "-trace"
	}
	doc, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, name+".json"), append(doc, '\n'), 0o644); err != nil {
		return err
	}
	cl := contractLine{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]contractMetric{}}
	for name, v := range o.Metrics {
		cl.Metrics[name] = contractMetric{Value: v.Value, Unit: v.Unit}
	}
	line, err := json.Marshal(cl)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
