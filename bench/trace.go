package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one call the harness timed: the client call of an op (a root,
// Parent 0) or a call into one layer's public function replayed for that
// op with the same inputs. The harness cannot see inside the program, so
// children are replayed after the root returns and nest by Parent, not
// by time.
type span struct {
	Op     uint64 `json:"op"` // shared by the spans of one op
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"` // identical calls timed inside the span
}

// perCall is the span's duration per timed call, in nanoseconds.
func (s span) perCall() float64 { return float64(s.End-s.Start) / float64(max(s.Calls, 1)) }

// recorder keeps one client's spans in memory. A nil recorder (the
// untraced run) records nothing, so workloads call it unconditionally.
type recorder struct {
	client int
	zero   time.Time
	spans  []span
	// values are the replays' measurements that are not durations (frame
	// bytes, WAL bytes per user byte), by name.
	values map[string][]float64
}

// value records one non-duration measurement.
func (r *recorder) value(name string, v float64) {
	if r == nil {
		return
	}
	if r.values == nil {
		r.values = map[string][]float64{}
	}
	r.values[name] = append(r.values[name], v)
}

// begin opens a span and returns its ID (0 from a nil recorder).
func (r *recorder) begin(op uint64, parent int64, name string) int64 {
	if r == nil {
		return 0
	}
	id := int64(r.client)<<32 | int64(len(r.spans)+1)
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(r.zero)), Calls: 1})
	return id
}

// end closes the span begin returned, as calls identical calls.
func (r *recorder) end(id int64, calls int) {
	if r == nil {
		return
	}
	s := &r.spans[int(id&0xffffffff)-1]
	s.End = int64(time.Since(r.zero))
	s.Calls = calls
}

// opSpan locates one op in the trace: its recorder, the ID its spans
// share, and its root span. The zero value (an untraced op) records
// nothing.
type opSpan struct {
	rec  *recorder
	op   uint64
	root int64
}

// timed runs fn calls times inside one span beneath parent and returns
// the span's ID.
func (o opSpan) timed(parent int64, name string, calls int, fn func()) int64 {
	id := o.rec.begin(o.op, parent, name)
	for i := 0; i < calls; i++ {
		fn()
	}
	o.rec.end(id, calls)
	return id
}

// selfTimes maps each span to its per-call duration minus its children's,
// the time spent in that layer itself. A child timed as several identical
// calls stands for one of them. Never below zero: a replayed child can
// outrun the part of the parent it stands for.
func selfTimes(spans []span) map[int64]float64 {
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.perCall()
	}
	for _, s := range spans {
		if _, ok := self[s.Parent]; ok {
			self[s.Parent] -= s.perCall()
		}
	}
	for id, v := range self {
		self[id] = max(v, 0)
	}
	return self
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
