package storage

import (
	"encoding/binary"
	"fmt"
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
// A Batch is single-use and not safe for concurrent use; build it on one
// goroutine and call Commit once.
type Batch struct {
	s         *Store
	inserts   []stagedInsert
	deletes   []stagedDelete
	meta      []stagedMeta
	pins      []string
	epoch     uint64
	committed bool
}

type stagedInsert struct {
	heap string
	rec  []byte
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
	b.inserts = append(b.inserts, stagedInsert{heap: heap, rec: rec})
	return len(b.inserts) - 1
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
func (b *Batch) Len() int { return len(b.inserts) + len(b.deletes) + len(b.meta) }

// Commit applies the batch: heap pages mutate in memory, then the whole
// group is logged as one WAL record and fsynced once. On a WAL failure
// the page changes are undone, so memory and log agree. The returned RIDs
// are aligned with the order Insert was called.
//
// Commit holds the store lock SHARED: checkpoints (exclusive) stay out
// of the page-change + log-append window, but record readers — and other
// committers — proceed in parallel, serialised only by the per-heap
// locks, the WAL mutex, and metaMu. This is what keeps MVCC snapshot
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
	for _, in := range b.inserts {
		if _, ok := heaps[in.heap]; !ok {
			h, err := s.heap(in.heap)
			if err != nil {
				return nil, err
			}
			heaps[in.heap] = h
		}
	}
	if b.epoch == 0 && len(b.inserts)+len(b.deletes) > 0 {
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

	size := 0
	for _, in := range b.inserts {
		size += 4 + 1 + 2 + len(in.heap) + 6 + 4 + len(in.rec)
	}
	for _, m := range b.meta {
		size += 4 + 1 + 2 + len(m.key) + 4 + len(m.val)
	}
	size += (4 + 1 + 2 + 16 + 6) * (len(b.deletes) + len(b.pins)) // heap names and keys are short
	g := newGroup(b.epoch, size)
	rids := make([]RID, len(b.inserts))
	done := 0
	undo := func() {
		for i := 0; i < done; i++ {
			_ = heaps[b.inserts[i].heap].del(rids[i])
		}
	}
	for i, in := range b.inserts {
		rid, err := heaps[in.heap].insert(in.rec)
		if err != nil {
			undo()
			return nil, err
		}
		rids[i] = rid
		done++
		g.insert(in.heap, rid, in.rec)
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
		undo()
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
	// The group is durably logged: from here Commit must report success,
	// or callers would believe a committed batch did not happen (the same
	// contract as the object layer's post-commit publication). A failed
	// in-memory page delete leaves a ghost record that WAL replay removes
	// on the next open, and that the object layer's indexes hide until
	// then.
	for _, d := range b.deletes {
		_ = heaps[d.heap].del(d.rid)
	}
	return rids, nil
}

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
