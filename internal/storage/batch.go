package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
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
	// recs are the staged inserts in staging order, cut into runs of
	// consecutive inserts into one heap: Commit places each run under one
	// heap lock.
	recs      [][]byte
	runs      []insertRun
	deletes   []stagedDelete
	meta      []stagedMeta
	pins      []string
	epoch     uint64
	committed bool
}

// insertRun is n consecutive staged inserts into one heap.
type insertRun struct {
	heap string
	n    int
}

type stagedDelete struct {
	heap string
	rid  RID
}

// stagedMeta is a meta update, or a removal when del is set; they apply
// in staging order.
type stagedMeta struct {
	key string
	val []byte
	del bool
}

// NewBatch starts an empty batch against the store.
func (s *Store) NewBatch() *Batch { return &Batch{s: s} }

// Insert stages a record append and returns its index into the RID slice
// Commit reports. The record is not visible (and has no RID) until then.
// The batch owns rec from here on: it is not copied, and the caller must
// not change it.
func (b *Batch) Insert(heap string, rec []byte) int {
	if n := len(b.runs); n > 0 && b.runs[n-1].heap == heap {
		b.runs[n-1].n++
	} else {
		b.runs = append(b.runs, insertRun{heap: heap, n: 1})
	}
	b.recs = append(b.recs, rec)
	return len(b.recs) - 1
}

// Grow makes room for n more inserts, so that staging them does not
// grow the batch's record list.
func (b *Batch) Grow(n int) { b.recs = slices.Grow(b.recs, n) }

// Delete stages a record removal. The RID must be resolved by the caller
// under whatever lock makes it stable until Commit.
func (b *Batch) Delete(heap string, rid RID) {
	b.deletes = append(b.deletes, stagedDelete{heap: heap, rid: rid})
}

// MetaSet stages a meta key update.
func (b *Batch) MetaSet(key string, val []byte) {
	b.meta = append(b.meta, stagedMeta{key: key, val: append([]byte(nil), val...)})
}

// MetaDelete stages a meta key removal.
func (b *Batch) MetaDelete(key string) {
	b.meta = append(b.meta, stagedMeta{key: key, del: true})
}

// PinSequence stages a durability pin for a sequence whose values were
// reserved in memory with AllocID: at commit time the sequence's current
// counter is written into the batch, so every ID the batch references is
// re-issued never again, even after a crash.
func (b *Batch) PinSequence(sequence string) {
	b.pins = append(b.pins, seqPrefix+sequence)
}

// SetEpoch stamps the batch with a commit epoch reserved via
// ReserveEpoch. The epoch lands in the WAL group header and, on commit,
// in the meta map (persisted by the next meta snapshot). A batch without
// a stamp allocates the next epoch itself at commit if it changes a heap;
// one that only changes the meta map takes no epoch (its group header
// carries 0), so definitions and stale marks leave the commit-epoch
// sequence alone.
func (b *Batch) SetEpoch(e uint64) { b.epoch = e }

// Len reports how many mutations the batch stages.
func (b *Batch) Len() int { return len(b.recs) + len(b.deletes) + len(b.meta) }

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
	if b.epoch == 0 && len(b.recs)+len(b.deletes) > 0 {
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
	if len(b.recs)+len(b.deletes) > 0 {
		s.pageMu.Lock()
		defer s.pageMu.Unlock()
		if s.broken != nil {
			return nil, s.broken
		}
	}

	size := 0
	for _, run := range b.runs {
		size += (4 + 1 + 2 + len(run.heap) + 6 + 4) * run.n
	}
	for _, rec := range b.recs {
		size += len(rec)
	}
	for _, m := range b.meta {
		size += 4 + 1 + 2 + len(m.key) + 4 + len(m.val)
	}
	size += (4 + 1 + 2 + 16 + 6) * (len(b.deletes) + len(b.pins)) // heap names and keys are short
	g := newGroup(b.epoch, size)
	defer g.free()
	rids := make([]RID, len(b.recs))
	planned := 0 // the inserts planned, in staging order
	unplan := func() {
		at := 0
		for _, run := range b.runs {
			end := min(at+run.n, planned)
			heaps[run.heap].unplan(rids[at:end])
			at = end
		}
	}
	for _, run := range b.runs {
		recs, runRIDs := b.recs[planned:planned+run.n], rids[planned:planned+run.n]
		n, err := heaps[run.heap].plan(recs, runRIDs)
		planned += n
		if err != nil {
			unplan()
			return nil, err
		}
		for i, rec := range recs {
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
		if m.del {
			g.metaDel(m.key)
		} else {
			g.metaSet(m.key, m.val)
		}
	}
	for _, key := range b.pins {
		if v, ok := s.meta[key]; ok {
			g.metaSet(key, v)
		}
	}
	if err := s.wal.append(g.record()); err != nil {
		s.metaMu.Unlock()
		unplan()
		return nil, err
	}
	for _, m := range b.meta {
		if m.del {
			delete(s.meta, m.key)
		} else {
			s.meta[m.key] = m.val
		}
		if name, ok := strings.CutPrefix(m.key, seqPrefix); ok {
			delete(s.seqs, name) // its counter is no longer the map's
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
		err = heaps[run.heap].apply(b.recs[at:at+run.n], rids[at:at+run.n])
		at += run.n
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

// AllocID reserves the next value (1-based) of a named persistent
// sequence without logging it. The reservation advances the in-memory
// counter, so concurrent callers never collide, but only becomes durable
// when a Batch with PinSequence on the sequence commits or a checkpoint
// snapshots it. Callers must therefore reference a reserved ID durably
// only inside a batch that pins the sequence: a crash before that pin
// simply re-issues the reserved IDs, which by then nothing references.
//
// Once the sequence exists, a reservation allocates nothing and builds
// no meta key: the counter, found by the sequence's name, is advanced in
// place. Every reader of a meta value copies it under metaMu, so no one
// holds the bytes this changes.
func (s *Store) AllocID(sequence string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.metaMu.Lock()
	defer s.metaMu.Unlock()
	v, ok := s.seqs[sequence]
	if !ok {
		key := seqPrefix + sequence
		if v, ok = s.meta[key]; !ok || len(v) != 8 {
			v = make([]byte, 8)
			s.meta[key] = v
		}
		s.seqs[sequence] = v
	}
	cur := binary.LittleEndian.Uint64(v) + 1
	binary.LittleEndian.PutUint64(v, cur)
	return cur
}
