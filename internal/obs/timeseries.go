package obs

import (
	"sync"
	"time"
)

// SeriesPoint is one periodic sample of a metrics registry, reduced to
// what trend rendering needs: cumulative counters, gauges, and the p99
// of every histogram. Rates are derived by differencing two points.
type SeriesPoint struct {
	At       time.Time        `json:"at"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	P99      map[string]int64 `json:"p99_ns,omitempty"`
}

// TimeSeries periodically snapshots a Registry into a bounded ring and
// serves windowed views: the raw points (the /timeseries endpoint) and
// counter rates over a window (q/s, commit/s). The instruments' hot
// paths are untouched — sampling runs on a background ticker, and a
// full ring overwrites its oldest slot. Methods are nil-safe.
type TimeSeries struct {
	reg  *Registry
	mu   sync.Mutex
	ring []SeriesPoint
	pos  int
}

// defaultSeriesSlots is the ring capacity when NewTimeSeries gets 0:
// at the default 1s sampling interval, five minutes of history.
const defaultSeriesSlots = 300

// NewTimeSeries builds a sampler over reg retaining the last `slots`
// points (0 = 300).
func NewTimeSeries(reg *Registry, slots int) *TimeSeries {
	if slots <= 0 {
		slots = defaultSeriesSlots
	}
	return &TimeSeries{reg: reg, ring: make([]SeriesPoint, 0, slots)}
}

// reduce flattens a registry snapshot into a point. Histogram counts
// ride as "<name>_count" counters so per-window observation rates can
// be differenced like any other counter.
func reduce(at time.Time, s MetricsSnapshot) SeriesPoint {
	p := SeriesPoint{At: at, Counters: make(map[string]int64, len(s.Counters)+len(s.Histograms)),
		Gauges: s.Gauges, P99: make(map[string]int64, len(s.Histograms))}
	for name, v := range s.Counters {
		p.Counters[name] = v
	}
	for name, h := range s.Histograms {
		p.Counters[name+"_count"] = h.Count
		p.P99[name] = h.P99
	}
	return p
}

// Sample takes one snapshot of the registry and appends it to the ring.
func (ts *TimeSeries) Sample(now time.Time) {
	if ts == nil {
		return
	}
	p := reduce(now, ts.reg.Snapshot())
	ts.mu.Lock()
	if len(ts.ring) < cap(ts.ring) {
		ts.ring = append(ts.ring, p)
	} else {
		ts.ring[ts.pos] = p
		ts.pos = (ts.pos + 1) % cap(ts.ring)
	}
	ts.mu.Unlock()
}

// Points returns the retained samples, oldest first.
func (ts *TimeSeries) Points() []SeriesPoint {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]SeriesPoint, 0, len(ts.ring))
	for i := 0; i < len(ts.ring); i++ {
		out = append(out, ts.ring[(ts.pos+i)%len(ts.ring)])
	}
	return out
}

// StatsDelta is one push of the SubscribeStats stream: counter rates
// over the interval since the previous push, current gauges and
// histogram p99s, and the events emitted since the last delta the
// subscriber saw. NextSeq is the resume point — a reconnecting
// subscriber passes it back and misses nothing the ring still holds.
type StatsDelta struct {
	At            time.Time          `json:"at"`
	Interval      float64            `json:"interval_s,omitempty"`
	Rates         map[string]float64 `json:"rates,omitempty"`
	Gauges        map[string]int64   `json:"gauges,omitempty"`
	P99           map[string]int64   `json:"p99_ns,omitempty"`
	Events        []Event            `json:"events,omitempty"`
	DroppedEvents int64              `json:"dropped_events,omitempty"`
	NextSeq       uint64             `json:"next_seq"`
}

// maxEventsPerDelta bounds one delta's event payload so a push frame
// stays small; the remainder rides the next delta (NextSeq advances
// only past what was shipped).
const maxEventsPerDelta = 128

// DeltaSource produces the successive StatsDeltas of one subscription:
// it remembers the previous registry snapshot and the last event
// sequence shipped. Not safe for concurrent use — one source per
// subscription.
type DeltaSource struct {
	reg    *Registry
	log    *EventLog
	prev   SeriesPoint
	primed bool
	seq    uint64
}

// NewDeltaSource builds a source over reg and log. fromSeq is the last
// event sequence the subscriber already has (0 = ship the whole ring
// on the first delta).
func NewDeltaSource(reg *Registry, log *EventLog, fromSeq uint64) *DeltaSource {
	return &DeltaSource{reg: reg, log: log, seq: fromSeq}
}

// Next computes one delta. The first call carries no rates (there is
// no previous sample to difference against) but does carry gauges,
// p99s, and the backlog of events past fromSeq.
func (d *DeltaSource) Next(now time.Time) StatsDelta {
	cur := reduce(now, d.reg.Snapshot())
	out := StatsDelta{At: now, Gauges: cur.Gauges, P99: cur.P99}
	if d.primed {
		secs := now.Sub(d.prev.At).Seconds()
		if secs > 0 {
			out.Interval = secs
			out.Rates = make(map[string]float64, len(cur.Counters))
			for name, v := range cur.Counters {
				out.Rates[name] = float64(v-d.prev.Counters[name]) / secs
			}
		}
	}
	d.prev, d.primed = cur, true
	events := d.log.Since(d.seq)
	if len(events) > maxEventsPerDelta {
		events = events[:maxEventsPerDelta]
	}
	if len(events) > 0 {
		out.Events = events
		d.seq = events[len(events)-1].Seq
	}
	out.DroppedEvents = d.log.Dropped()
	out.NextSeq = d.seq
	return out
}
