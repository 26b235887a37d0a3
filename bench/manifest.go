package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// The tables below are the benchmark's definition; BENCHMARK.json at the
// repository root is their published copy, and a test keeps the two equal.

// workloadDef is one fixed-work input set.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// opsPerSecond fixes the work: a run performs opsPerSecond × -seconds
	// ops however long they take, so bytes, RSS, WAL and buffer counts
	// compare between commits. Each figure was sized once, on the 2-core
	// reference sandbox, so that the measured phase takes about -seconds
	// there; it is not resized when the code gets faster or slower.
	opsPerSecond int
	// logical is the closed-loop op streams per connection.
	logical int
	// stride makes the traced phase replay layer calls on every
	// stride-th op, chosen so a traced run collects at least ~50 replays.
	stride int
	// root names the span around the client call of one op.
	root string
	new  func(scale float64, seed uint64) workload
}

var workloads = []workloadDef{
	{Name: "remote-point", opsPerSecond: 40000, logical: 1, stride: 64, root: "client.query", new: newPoint,
		Why: "one-tile Query over a 4,096-tile hot range of 131,072 gauges, buffer hit ratio 1: client, wire and server do most of the work; storage and derivation changes must not move it"},
	{Name: "scan-stream", opsPerSecond: 20, logical: 1, stride: 2, root: "client.query_stream", new: newScan,
		Why: "4,096-object QueryStream over 131,072 gauges, >20x the buffer pool: object resolve, heap reads and raw-page shipping; per-request changes must not move it"},
	{Name: "ingest-verify", opsPerSecond: 1730, logical: 4, stride: 16, root: "client.session", new: newIngest,
		Why: "durable 8-create session then 8 read-your-writes point queries, 4 pipelined per connection: WAL write/fsync and commitMu beside readers"},
	{Name: "derive-refresh", opsPerSecond: 270, logical: 1, stride: 8, root: "client.correct", new: newDerive,
		Why: "correct a Landsat band, re-derive the tile's stale land cover and change map in place, read the map back: the paper's loop through deriv, task, process, imgops; remote-path changes must not move it"},
}

// metricDef names one reported number.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what the driver gates, the same on every workload. Bound is
// the share of the parent's median by which the metric may worsen; none
// exceeds a tenth. ISSUE 15 names seven end-to-end metrics and rules that
// one whose runs do not repeat within a tenth is a diagnostic, not a gate
// with a loose bound. On the shared 2-core sandbox that rule leaves these
// two: README.md has the spreads measured behind it. The other five are
// the first diagnostics in perLayer, under the issue's names with the
// e2e. prefix, and every run reports them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "disk_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: 0.01},
}

// perLayer is what the traced run reports. Counts are deltas of
// Kernel.StatsSnapshot across an untraced phase; timings are medians of
// harness spans. A metric whose layer a workload does not exercise
// reads 0 there.
var perLayer = []metricDef{
	// client → wire → server → kernel, one point query
	{Name: "client.query_p50_us", Unit: "us", Better: "lower"},
	{Name: "kernel.query_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_request_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_request_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_response_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_response_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.requests_per_op", Unit: "count", Better: "lower"},
	{Name: "server.residual_p50_us", Unit: "us", Better: "lower"},
	{Name: "query.run_at_p50_us", Unit: "us", Better: "lower"},
	{Name: "object.query_at_p50_us", Unit: "us", Better: "lower"},
	{Name: "query.self_p50_us", Unit: "us", Better: "lower"},
	// scan
	{Name: "query.page_raw_at_us_per_kobj", Unit: "us", Better: "lower"},
	{Name: "object.query_from_at_us_per_kobj", Unit: "us", Better: "lower"},
	{Name: "object.get_raw_at_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "object.decode_wire_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_raw_object_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.buffer_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.buffer_misses_per_op", Unit: "count", Better: "lower"},
	{Name: "server.pushed_pages_per_op", Unit: "count", Better: "lower"},
	{Name: "server.bytes_avoided_per_op", Unit: "B", Better: "higher"},
	// commit
	{Name: "kernel.commit_p50_us", Unit: "us", Better: "lower"},
	{Name: "object.apply_batch_p50_us", Unit: "us", Better: "lower"},
	{Name: "storage.batch_commit_sync_p50_us", Unit: "us", Better: "lower"},
	{Name: "storage.batch_commit_nosync_p50_us", Unit: "us", Better: "lower"},
	{Name: "storage.fsync_p50_us", Unit: "us", Better: "lower"},
	{Name: "storage.wal_syncs_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "storage.wal_appends_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "storage.wal_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "storage.checkpoints", Unit: "count", Better: "lower"},
	{Name: "storage.checkpoint_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "object.live_versions_end", Unit: "count", Better: "lower"},
	{Name: "object.gc_reclaimed", Unit: "count", Better: "higher"},
	{Name: "session.conflicts", Unit: "count", Better: "lower"},
	// derivation
	{Name: "deriv.sweep_p50_us", Unit: "us", Better: "lower"},
	{Name: "deriv.invalidations_per_op", Unit: "count", Better: "lower"},
	{Name: "deriv.refreshes_per_op", Unit: "count", Better: "lower"},
	{Name: "deriv.stale_end", Unit: "count", Better: "lower"},
	{Name: "query.derive_per_op", Unit: "count", Better: "lower"},
	{Name: "petri.plan_p50_us", Unit: "us", Better: "lower"},
	{Name: "task.recompute_p50_us", Unit: "us", Better: "lower"},
	{Name: "process.eval_p50_us", Unit: "us", Better: "lower"},
	{Name: "imgops.unsuperclassify_p50_us", Unit: "us", Better: "lower"},
	{Name: "imgops.img_subtract_p50_us", Unit: "us", Better: "lower"},
	{Name: "storage.blob_put_p50_us", Unit: "us", Better: "lower"},
	{Name: "object.update_p50_us", Unit: "us", Better: "lower"},
	// diagnostics, every workload: first the end-to-end figures too noisy
	// to gate here, taken over the whole measured phase
	{Name: "e2e.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "e2e.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "e2e.op_p95_us", Unit: "us", Better: "lower"},
	{Name: "e2e.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "e2e.rss_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "e2e.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "e2e.op_max_us", Unit: "us", Better: "lower"},
	{Name: "e2e.op_samples", Unit: "count", Better: "higher"},
	{Name: "e2e.failed_ops", Unit: "count", Better: "lower"},
	{Name: "e2e.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "e2e.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "e2e.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// runSeconds is BENCHMARK.json's run_seconds: the -seconds every
// workload's op count was sized for.
const runSeconds = 20

// manifest is the shape of BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// builtinManifest renders the tables above as the manifest.
func builtinManifest() manifest {
	return manifest{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// readManifest loads a BENCHMARK.json, refusing unknown keys.
func readManifest(path string) (manifest, error) {
	var m manifest
	f, err := os.Open(path)
	if err != nil {
		return m, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func findWorkload(name string) (workloadDef, bool) {
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.Name == name })
	if i < 0 {
		return workloadDef{}, false
	}
	return workloads[i], true
}
