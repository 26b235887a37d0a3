package obs

import (
	"sync"
	"time"
)

// Event severities. Info is the normal record of work done; warn marks
// outcomes an operator should eventually look at (lease expiries,
// heuristic 2PC outcomes, stalls); error marks failures.
const (
	SevInfo  = "info"
	SevWarn  = "warn"
	SevError = "error"
)

// Event is one structured record of something the system did: a commit
// group, a checkpoint/GC pass, a derivation sweep, a lease expiry, a
// 2PC outcome, a shard health transition, a stall. Seq is a per-log
// monotone sequence starting at 1 — consumers resume with Since.
type Event struct {
	Seq      uint64            `json:"seq"`
	Time     time.Time         `json:"time"`
	Type     string            `json:"type"`
	Severity string            `json:"sev"`
	Msg      string            `json:"msg,omitempty"`
	Fields   map[string]string `json:"fields,omitempty"`
}

// EventLog is a bounded ring of events. Emit is safe for concurrent
// use and never blocks on the ring: when the ring is full the oldest
// event is dropped and counted. All methods are nil-safe, so layers
// without a log just no-op.
type EventLog struct {
	mu      sync.Mutex
	ring    []Event
	pos     int
	seq     uint64
	dropped int64
}

// defaultEventRing is the ring capacity when NewEventLog gets 0.
const defaultEventRing = 1024

// NewEventLog builds a log retaining the last `ring` events (0 = 1024).
func NewEventLog(ring int) *EventLog {
	if ring <= 0 {
		ring = defaultEventRing
	}
	return &EventLog{ring: make([]Event, 0, ring)}
}

// Emit appends one event. Fields is retained as-is — callers must not
// mutate it afterwards.
func (l *EventLog) Emit(typ, severity, msg string, fields map[string]string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	ev := Event{Seq: l.seq, Time: time.Now(), Type: typ, Severity: severity, Msg: msg, Fields: fields}
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, ev)
	} else {
		l.ring[l.pos] = ev
		l.pos = (l.pos + 1) % cap(l.ring)
		l.dropped++
	}
	l.mu.Unlock()
}

// Since returns the retained events with Seq > seq, oldest first.
// Since(0) returns the whole ring. Events older than the ring has
// slots for are gone — Dropped counts them.
func (l *EventLog) Since(seq uint64) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.ring))
	for i := 0; i < len(l.ring); i++ {
		ev := l.ring[(l.pos+i)%len(l.ring)]
		if ev.Seq > seq {
			out = append(out, ev)
		}
	}
	return out
}

// Dropped reports how many events the ring has overwritten.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}
