package storage

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync/atomic"
)

// Batch collects heap and meta mutations that commit together: the whole
// group is written to the WAL as ONE epoch-stamped group record
// (opEpochBatch) with ONE fsync, so a crash replays either every mutation
// or none of them. It is the store's only write path: a session commit,
// a derivation with its task record, and a single meta update all reach
// the log this way, so N mutations cost one log append instead of N, and
// the group is atomic across heaps and the meta map.
//
// Inserts are staged in order and cut into runs of consecutive inserts
// into one heap; Commit hands each run to its heap whole, which places
// it page by page (see Heap), each record where it would go alone.
// Commit plans, logs, then applies: no page holds a record of the batch
// before its group is in the WAL.
//
// A Batch is single-use and not safe for concurrent use; build it on one
// goroutine and call Commit once.
type Batch struct {
	s *Store
	// runs are the staged inserts in staging order, cut into runs of
	// consecutive inserts into one heap: Commit places each run under one
	// heap lock. n counts the inserts.
	runs      []insertRun
	n         int
	deletes   []stagedDelete
	meta      []stagedMeta
	pins      []*Sequence
	epoch     uint64
	committed bool
}

// insertRun is consecutive staged inserts into one heap.
type insertRun struct {
	heap string
	recs [][]byte
}

type stagedDelete struct {
	heap string
	rid  RID
}

// stagedMeta is a meta update; updates apply in staging order.
type stagedMeta struct {
	key string
	val []byte
}

// NewBatch starts an empty batch against the store.
func (s *Store) NewBatch() *Batch { return &Batch{s: s} }

// Insert stages a record append and returns its index into the RID slice
// Commit reports. The record is not visible (and has no RID) until then.
// The batch owns rec from here on: it is not copied, and the caller must
// not change it.
func (b *Batch) Insert(heap string, rec []byte) int {
	if k := len(b.runs); k > 0 && b.runs[k-1].heap == heap {
		b.runs[k-1].recs = append(b.runs[k-1].recs, rec)
	} else {
		b.runs = append(b.runs, insertRun{heap: heap, recs: [][]byte{rec}})
	}
	b.n++
	return b.n - 1
}

// InsertRun stages recs, in order, as appends to one heap, and returns
// the index of the first in the RID slice Commit reports. The batch owns
// the list and its records from here on: neither is copied, and the
// caller must not change them. A caller that builds its records as a
// list, as a session's creates are, so hands them over with no copy.
func (b *Batch) InsertRun(heap string, recs [][]byte) int {
	at := b.n
	if len(recs) > 0 {
		b.runs = append(b.runs, insertRun{heap: heap, recs: recs[:len(recs):len(recs)]})
		b.n += len(recs)
	}
	return at
}

// Delete stages a record removal. The RID must be resolved by the caller
// under whatever lock makes it stable until Commit.
func (b *Batch) Delete(heap string, rid RID) {
	b.deletes = append(b.deletes, stagedDelete{heap: heap, rid: rid})
}

// MetaSet stages a meta key update.
func (b *Batch) MetaSet(key string, val []byte) {
	b.meta = append(b.meta, stagedMeta{key: key, val: append([]byte(nil), val...)})
}

// PinSequence stages a durability pin for a sequence whose values were
// reserved in memory (Sequence.Next): at commit time the sequence's
// counter, read atomically, is written into the batch, so every ID the
// batch references is re-issued never again, even after a crash.
func (b *Batch) PinSequence(sequence string) {
	b.pins = append(b.pins, b.s.Sequence(sequence))
}

// SetEpoch stamps the batch with a commit epoch reserved via
// ReserveEpoch. The epoch lands in the WAL group header and, on commit,
// in the meta map (persisted by the next meta snapshot). A batch without
// a stamp allocates the next epoch itself at commit if it changes a heap;
// one that only changes the meta map takes no epoch (its group header
// carries 0), so definitions leave the commit-epoch sequence alone.
func (b *Batch) SetEpoch(e uint64) { b.epoch = e }

// Len reports how many mutations the batch stages.
func (b *Batch) Len() int { return b.n + len(b.deletes) + len(b.meta) }

// Commit plans the batch, logs the whole group as one WAL record,
// fsynced once, and only then applies it to the pages and the meta map.
// The returned RIDs are aligned with the order Insert was called.
//
// Each run of inserts into one heap is planned by one Heap.plan call
// and written by one Heap.apply call, as replay writes it: one heap lock
// each, and one buffer-pool lookup each time placement moves to another
// page, with every record put exactly where placing it alone would have
// put it. A failed plan or append changes no page and only re-hints the
// pages it planned. A logged group that cannot be applied fails this and
// every later Commit that changes a page, and Checkpoint, until a
// reopen replays it.
//
// Commit holds the store lock SHARED: checkpoints (exclusive) stay out
// of the plan-to-apply window, but record readers proceed in parallel,
// serialised only by the per-heap locks; committers that change pages
// take pageMu from plan to apply. This is what keeps MVCC snapshot
// reads from stalling behind a batch writer.
func (b *Batch) Commit() ([]RID, error) {
	if b.committed {
		return nil, fmt.Errorf("storage: batch committed twice")
	}
	b.committed = true
	if b.Len() == 0 && len(b.pins) == 0 {
		return nil, nil
	}
	s := b.s
	// Resolve (creating as needed) every heap up front.
	heaps := make(map[string]*Heap)
	for _, run := range b.runs {
		if _, ok := heaps[run.heap]; !ok {
			h, err := s.heap(run.heap)
			if err != nil {
				return nil, err
			}
			heaps[run.heap] = h
		}
	}
	if b.epoch == 0 && b.n+len(b.deletes) > 0 {
		b.epoch = s.ReserveEpoch()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, d := range b.deletes {
		h, ok := s.heaps[d.heap]
		if !ok {
			return nil, fmt.Errorf("%w: heap %q", ErrNotFound, d.heap)
		}
		heaps[d.heap] = h
	}
	if b.n+len(b.deletes) > 0 {
		s.pageMu.Lock()
		defer s.pageMu.Unlock()
		if s.broken != nil {
			return nil, s.broken
		}
	}

	size := 0
	for _, run := range b.runs {
		size += (4 + 1 + 2 + len(run.heap) + 6 + 4) * len(run.recs)
		for _, rec := range run.recs {
			size += len(rec)
		}
	}
	for _, m := range b.meta {
		size += 4 + 1 + 2 + len(m.key) + 4 + len(m.val)
	}
	size += (4 + 1 + 2 + 16 + 6) * (len(b.deletes) + len(b.pins)) // heap names and keys are short
	g := newGroup(b.epoch, size)
	defer g.free()
	rids := make([]RID, b.n)
	planned := 0 // the inserts planned, in staging order
	unplan := func() {
		at := 0
		for _, run := range b.runs {
			end := min(at+len(run.recs), planned)
			heaps[run.heap].unplan(rids[at:end])
			at = end
		}
	}
	for _, run := range b.runs {
		runRIDs := rids[planned : planned+len(run.recs)]
		n, err := heaps[run.heap].plan(run.recs, runRIDs)
		planned += n
		if err != nil {
			unplan()
			return nil, err
		}
		for i, rec := range run.recs {
			g.insert(run.heap, runRIDs[i], rec)
		}
	}
	for _, d := range b.deletes {
		g.delete(d.heap, d.rid)
	}
	// The meta section — reading pinned sequence values, logging the
	// group, and applying the meta updates — happens under metaMu as one
	// unit, so the WAL order of meta values matches the order they land
	// in the map even with concurrent committers.
	s.metaMu.Lock()
	for _, m := range b.meta {
		g.metaSet(m.key, m.val)
	}
	for _, q := range b.pins {
		if v := q.n.Load(); s.seqLogged(q, v) {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], v)
			g.metaSet(q.key, buf[:])
		}
	}
	if err := s.wal.append(g.record()); err != nil {
		s.metaMu.Unlock()
		unplan()
		return nil, err
	}
	for _, m := range b.meta {
		s.meta[m.key] = m.val
		if name, ok := strings.CutPrefix(m.key, seqPrefix); ok && s.seqs[name] != nil {
			s.seqs[name].n.Store(seqValue(m.val))
		}
	}
	if cur, ok := s.meta[epochKey]; b.epoch > 0 && (!ok || len(cur) != 8 || binary.LittleEndian.Uint64(cur) < b.epoch) {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, b.epoch)
		s.meta[epochKey] = buf
	}
	s.metaMu.Unlock()
	err := afterAppend()
	for i, at := 0, 0; err == nil && i < len(b.runs); i++ {
		run := b.runs[i]
		err = heaps[run.heap].apply(run.recs, rids[at:at+len(run.recs)])
		at += len(run.recs)
	}
	for i := 0; err == nil && i < len(b.deletes); i++ {
		err = heaps[b.deletes[i].heap].del(b.deletes[i].rid)
	}
	if err != nil {
		s.broken = fmt.Errorf("storage: logged group not applied, reopen to replay it: %w", err)
		return nil, s.broken
	}
	return rids, nil
}

// afterAppend runs between a group's WAL append and its apply; an error
// from it fails the apply. Only tests set it.
var afterAppend = func() error { return nil }

// Sequence is a named persistent sequence: a counter the store owns,
// advanced with one atomic add. Its values are reserved in memory; a
// reservation becomes durable when a Batch that pins the sequence
// (PinSequence) commits, or a checkpoint snapshots the meta map. Callers
// must therefore reference a reserved ID durably only inside a batch
// that pins the sequence: a crash before that pin simply re-issues the
// reserved IDs, which by then nothing references.
type Sequence struct {
	key string // its meta key
	n   atomic.Uint64
}

// Next reserves the sequence's next value (1-based). It takes no lock
// and allocates nothing, so concurrent callers never collide and a
// caller that reserves often holds the Sequence instead of its name.
func (q *Sequence) Next() uint64 { return q.n.Add(1) }

// Sequence returns the named sequence, made on first use from the value
// the meta map holds for it (the meta snapshot's, or the WAL's). The
// handle lives as long as the store: a batch that sets or removes the
// sequence's meta key writes the new value into its counter.
func (s *Store) Sequence(name string) *Sequence {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	q, ok := s.seqs[name]
	if !ok {
		q = &Sequence{key: seqPrefix + name}
		q.n.Store(seqValue(s.meta[q.key]))
		s.seqs[name] = q
	}
	return q
}

// AllocID reserves the next value of the named sequence: Sequence(name)
// then Next, for callers that reserve once in a while.
func (s *Store) AllocID(sequence string) uint64 { return s.Sequence(sequence).Next() }

// seqValue is the counter a sequence's meta value holds: zero for a
// missing or malformed one.
func seqValue(v []byte) uint64 {
	if len(v) != 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

// seqLogged reports whether the value of q belongs in the meta map, a
// pin's WAL entry and the meta snapshot: once it has issued a value, or
// while a meta value of its key is set. A sequence that has done neither
// writes nothing. Callers hold metaMu, or the store exclusively.
func (s *Store) seqLogged(q *Sequence, v uint64) bool {
	_, set := s.meta[q.key]
	return v != 0 || set
}
