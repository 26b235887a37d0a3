package obs

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"
)

// maxStallProfile bounds the goroutine profile attached to a stall
// event: enough to see where the scheduler is parked, small enough for
// the event ring and the JSONL sink.
const maxStallProfile = 8 << 10

// Watchdog scans the tracer's open root spans and emits one `stall`
// event — with a captured goroutine profile — for every operation
// whose age exceeds the threshold. Each stalled operation is reported
// once; if it eventually completes, its trace lands in the slow-op log
// as usual. Scan is cheap when nothing is stuck (one lock, no
// allocation beyond the open-op list), so it can run on a tight
// ticker.
type Watchdog struct {
	tr        *Tracer
	log       *EventLog
	threshold time.Duration

	mu       sync.Mutex
	reported map[uint64]struct{} // trace IDs already flagged
}

// NewWatchdog builds a watchdog flagging operations open longer than
// threshold (<= 0 takes 30s) into log.
func NewWatchdog(tr *Tracer, log *EventLog, threshold time.Duration) *Watchdog {
	if threshold <= 0 {
		threshold = 30 * time.Second
	}
	return &Watchdog{tr: tr, log: log, threshold: threshold, reported: make(map[uint64]struct{})}
}

// Scan inspects the open operations once and returns how many new
// stall events it emitted. Nil-safe.
func (w *Watchdog) Scan(now time.Time) int {
	if w == nil || w.tr == nil {
		return 0
	}
	open := w.tr.OpenOps()
	w.mu.Lock()
	live := make(map[uint64]struct{}, len(open))
	var stalled []OpenOp
	for _, op := range open {
		live[op.TraceID] = struct{}{}
		if now.Sub(op.Start) < w.threshold {
			continue
		}
		if _, done := w.reported[op.TraceID]; done {
			continue
		}
		w.reported[op.TraceID] = struct{}{}
		stalled = append(stalled, op)
	}
	// Completed operations leave the open set; forget them so the map
	// stays proportional to what is actually in flight.
	for id := range w.reported {
		if _, ok := live[id]; !ok {
			delete(w.reported, id)
		}
	}
	w.mu.Unlock()
	if len(stalled) == 0 {
		return 0
	}
	// One profile serves every stall found in this pass: the stacks are
	// a point-in-time picture of the whole process anyway.
	profile := goroutineProfile()
	for _, op := range stalled {
		w.log.Emit("stall", SevWarn, op.Name, map[string]string{
			"trace":      fmt.Sprintf("%016x", op.TraceID),
			"age":        now.Sub(op.Start).Round(time.Millisecond).String(),
			"threshold":  w.threshold.String(),
			"goroutines": profile,
		})
	}
	return len(stalled)
}

// goroutineProfile renders the current goroutine stacks (debug=1:
// grouped, one block per unique stack), truncated to maxStallProfile.
func goroutineProfile() string {
	p := pprof.Lookup("goroutine")
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 1); err != nil {
		return ""
	}
	if buf.Len() > maxStallProfile {
		return buf.String()[:maxStallProfile] + "\n(truncated)"
	}
	return buf.String()
}
