package gaea

// Observability surface: the kernel's metrics registry and tracer are
// re-exported here so embedding callers, the service layer, and the CLI
// all consume one vocabulary without importing internal packages.
//
// The model is pull-based and allocation-light: layers record into
// atomic instruments unconditionally (instruments are nil-safe, so a
// kernel opened without observers costs a few atomic adds per
// operation), and observers pull a consistent StatsSnapshot / ObsExport
// when they want one. Nothing is pushed anywhere.

import (
	"encoding/json"
	"fmt"
	"time"

	"gaea/internal/deriv"
	"gaea/internal/object"
	"gaea/internal/obs"
)

// Re-exported observability types: the obs package is internal; these
// aliases are the public names.
type (
	// Tracer assembles request spans into traces and retains recent and
	// slow ones. One tracer serves a kernel; clients own their own.
	Tracer = obs.Tracer
	// TraceData is one exported trace: a span tree with timings.
	TraceData = obs.TraceData
	// SpanData is one exported span.
	SpanData = obs.SpanData
	// MetricsSnapshot is a point-in-time export of every registered
	// counter, gauge, and histogram.
	MetricsSnapshot = obs.MetricsSnapshot
	// HistogramSnapshot summarises one latency/size distribution.
	HistogramSnapshot = obs.HistogramSnapshot
	// DerivCounters summarises the derived-data manager.
	DerivCounters = deriv.Counters
	// MVCCStats summarises version-store health.
	MVCCStats = object.MVCCStats
	// Event is one structured flight-recorder record (commit group,
	// checkpoint pass, deriv sweep, lease expiry, 2PC outcome, shard
	// transition, stall). Its JSON form is the event JSONL schema.
	Event = obs.Event
	// EventLog is the bounded event ring.
	EventLog = obs.EventLog
	// SeriesPoint is one periodic sample of the metrics registry.
	SeriesPoint = obs.SeriesPoint
	// TimeSeries is the bounded ring of periodic registry samples.
	TimeSeries = obs.TimeSeries
	// StatsDelta is one push of a stats subscription: rates since the
	// previous push, current gauges/p99s, and new events.
	StatsDelta = obs.StatsDelta
	// OpenOp describes one operation currently in flight (an un-ended
	// root span) — what the stall watchdog scans.
	OpenOp = obs.OpenOp
)

// Event severities (Event.Severity values).
const (
	SevInfo  = obs.SevInfo
	SevWarn  = obs.SevWarn
	SevError = obs.SevError
)

// NewTracer builds a standalone tracer — typically a client-side one,
// handed to client.Options.Tracer so remote calls record local spans
// and propagate their trace IDs to the server. Traces slower than
// slowThreshold enter the slow-op log (0 disables). It keeps the last
// 64 traces and the last 32 slow ones.
func NewTracer(slowThreshold time.Duration) *Tracer {
	return obs.NewTracer(slowThreshold)
}

// StatsSnapshot is the structured form of Kernel.Stats: every figure the
// classic one-line summary prints, plus the full metrics registry. The
// string form (String) is stable — it renders exactly the historical
// Stats() line and ignores Metrics — so log scrapers keep working while
// programs read fields.
type StatsSnapshot struct {
	Classes     int `json:"classes"`
	Processes   int `json:"processes"`
	Concepts    int `json:"concepts"`
	Experiments int `json:"experiments"`
	Objects     int `json:"objects"`
	Tasks       int `json:"tasks"`

	Deriv  DerivCounters `json:"deriv"`
	Policy RefreshPolicy `json:"policy"`
	MVCC   MVCCStats     `json:"mvcc"`

	WALBytes    int64 `json:"wal_bytes"`
	Checkpoints int64 `json:"checkpoints"`

	Metrics MetricsSnapshot `json:"metrics"`
}

// String renders the classic one-line Stats summary. The format is
// frozen (golden-tested): tooling greps these fields.
func (s StatsSnapshot) String() string {
	return fmt.Sprintf("classes=%d processes=%d concepts=%d experiments=%d objects=%d tasks=%d deriv[%s policy=%s] mvcc[epoch=%d versions=%d reclaimed=%d pins=%d oldest_pin=%d] wal[bytes=%d checkpoints=%d]",
		s.Classes, s.Processes, s.Concepts, s.Experiments, s.Objects, s.Tasks,
		s.Deriv, s.Policy,
		s.MVCC.Epoch, s.MVCC.LiveVersions, s.MVCC.Reclaimed, s.MVCC.Pins, s.MVCC.OldestPin,
		s.WALBytes, s.Checkpoints)
}

// StatsSnapshot captures the kernel's current state: model counts,
// derivation counters, MVCC health, WAL growth, and a full metrics
// export. Safe to call concurrently with everything else.
func (k *Kernel) StatsSnapshot() StatsSnapshot {
	classes := k.Catalog.Names()
	total := 0
	for _, c := range classes {
		total += k.Objects.Count(c)
	}
	mv := k.Objects.MVCC()
	return StatsSnapshot{
		Classes:     len(classes),
		Processes:   len(k.Processes.Names()),
		Concepts:    len(k.Concepts.Names()),
		Experiments: len(k.Experiments.Names()),
		Objects:     total,
		Tasks:       k.Tasks.Count(),
		Deriv:       k.Deriv.Counters(),
		Policy:      k.Deriv.Policy(),
		MVCC:        mv,
		WALBytes:    k.Store.WALBytes(),
		Checkpoints: k.checkpoints.Load(),
		Metrics:     k.Metrics.Snapshot(),
	}
}

// ShardStatus is one shard's health in a federation's fleet view,
// derived from the liveness of the router's stats subscription to it:
// "up" while deltas arrive, "degraded" after a missed interval, "down"
// once the subscription is lost and redials fail.
type ShardStatus struct {
	Shard    int                `json:"shard"`
	Addr     string             `json:"addr"`
	State    string             `json:"state"`
	LastSeen time.Time          `json:"last_seen,omitempty"`
	Rates    map[string]float64 `json:"rates,omitempty"`
}

// ObsExport bundles everything an observer pulls in one shot: the stats
// snapshot, the most recent completed traces, and the slow-op log. It
// is what the v2 wire protocol's stats extension carries and what the
// debug endpoint's /traces serves. Fleet is present only on federation
// exports: one health row per shard.
type ObsExport struct {
	Stats   StatsSnapshot `json:"stats"`
	Traces  []TraceData   `json:"traces,omitempty"`
	SlowOps []TraceData   `json:"slow_ops,omitempty"`
	Fleet   []ShardStatus `json:"fleet,omitempty"`
}

// Observe exports the kernel's observability state.
func (k *Kernel) Observe() ObsExport {
	return ObsExport{
		Stats:   k.StatsSnapshot(),
		Traces:  k.Tracer.Recent(),
		SlowOps: k.Tracer.Slow(),
	}
}

// ObsJSON is Observe marshalled — the payload the service layer ships
// to remote observers (gaea top / gaea trace -connect).
func (k *Kernel) ObsJSON() ([]byte, error) {
	return json.Marshal(k.Observe())
}
