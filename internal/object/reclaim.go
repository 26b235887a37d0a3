package object

import (
	"errors"
	"slices"
	"sort"
	"time"

	"gaea/internal/storage"
)

// Reclamation of superseded versions. An update or a delete supersedes
// its object's previous version at the commit's epoch; from then on only
// snapshots pinned below that epoch can see the old version, and once the
// horizon — the oldest epoch pinned or leased, or the newest epoch when
// there is none — reaches it, none can. The publishing commit queues the
// version under that epoch, and since commits publish in epoch order the
// queue stays sorted with no sort.
//
// Every commit then reclaims what the queue holds at or below the horizon
// as it finds it, in its own storage batch: the heap deletes ride in the
// WAL group the commit writes anyway, and a slot freed there is reused by
// the next commit's insert, so a heap of objects updated in place keeps
// the size of the versions some snapshot can still see instead of
// growing to the high-water mark of every version written. This is the
// eager, cooperative pruning of Böttcher et al., "Scalable Garbage
// Collection for In-Memory MVCC Systems" (VLDB 2019), in place of a
// periodic pass. A pass costs the entries it takes and one more, never
// the backlog a long-held pin builds up. GC runs the same pass with a
// batch of its own, for what the release of a pin left behind with no
// commit after it; Open queues the superseded versions it finds on disk.

// garbage is one queued superseded version: oid's chain gained a newer
// version, or a tombstone, at epoch at.
type garbage struct {
	at  uint64
	oid OID
}

// reclaim is one reclamation pass: the queue entries it takes, what it
// does to their chains, and the blobs of the versions it drops. The heap
// deletes go into the pass's storage batch; memory changes only once that
// batch has committed (apply).
type reclaim struct {
	popped    int    // queue entries taken, from the front
	at        uint64 // the latest epoch among them
	prevFloor uint64 // gcFloor before the pass raised it
	trims     []trim
	versions  int // versions dropped
	blobs     []storage.BlobID
}

// trim is what a pass does to one chain: drop its drop oldest superseded
// versions, or, when gone, the whole chain — its newest version is a
// tombstone no snapshot sees past.
type trim struct {
	oid   OID
	class uint16
	drop  int
	gone  bool
}

// planReclaim takes every queue entry at or below the horizon and stages
// in b the heap deletes of the versions no snapshot can see any more.
// Callers hold commitMu and mu (at least shared). It raises gcFloor to
// the latest epoch taken before b commits, so that no PinEpoch below it
// slips in meanwhile; a pass whose batch fails puts it back (abandon).
func (s *Store) planReclaim(b *storage.Batch) reclaim {
	horizon := s.epoch
	for e := range s.pins {
		horizon = min(horizon, e)
	}
	if len(s.leases) > 0 {
		now := time.Now()
		for e, until := range s.leases {
			if now.Before(until) {
				horizon = min(horizon, e)
			}
		}
	}
	n := 0
	for n < len(s.queue) && s.queue[n].at <= horizon {
		n++
	}
	s.gcVisited = min(n+1, len(s.queue))
	p := reclaim{popped: n}
	if n == 0 {
		return p
	}
	p.at = s.queue[n-1].at
	oids := make([]OID, n)
	for i, g := range s.queue[:n] {
		oids[i] = g.oid
	}
	slices.Sort(oids)
	for _, oid := range slices.Compact(oids) {
		r, _ := s.rowOf(oid) // a queued chain has its row until the pass that drops it
		heap := s.byNum[r.class].heap
		vers := s.older[oid]
		// vis is the newest version at or below the horizon — the one a
		// snapshot pinned exactly there resolves to; len(vers) stands for
		// the newest. Everything older is unreachable from any present or
		// future pin. A queued entry at or below the horizon names a
		// version at or below it, so there is one.
		vis := len(vers)
		if r.epoch > horizon {
			for vis--; vers[vis].epoch > horizon; vis-- {
			}
		}
		t := trim{oid: oid, class: r.class, drop: vis}
		for _, v := range vers[:vis] {
			b.Delete(heap, v.rid)
			p.blobs = append(p.blobs, v.blobs...)
		}
		if vis == len(vers) && r.flags&rowDel != 0 {
			// The chain's only reachable state is "deleted": drop it whole.
			b.Delete(heap, r.rid)
			t.gone = true
			vis++
		}
		p.versions += vis
		p.trims = append(p.trims, t)
	}
	p.prevFloor = s.gcFloor.Load()
	if p.at > p.prevFloor {
		s.gcFloor.Store(p.at)
	}
	return p
}

// abandon undoes a pass whose batch failed: nothing was reclaimed, the
// queue is as it was, and the floor goes back.
func (s *Store) abandon(p *reclaim) {
	if p.popped > 0 {
		s.gcFloor.Store(p.prevFloor)
	}
}

// apply unlinks what a pass reclaimed, once its batch has committed, and
// drops the overlay entries and queue entries it took. Callers hold
// commitMu and mu exclusively.
func (s *Store) apply(p *reclaim) {
	if p.popped == 0 {
		return
	}
	var ci *classIndex
	cls := -1
	for _, t := range p.trims {
		if int(t.class) != cls {
			// Snapshot readers at or above the floor need no overlay entry at
			// or below it: each is a change whose superseded version went.
			cls = int(t.class)
			if ci = s.classes[s.byNum[t.class].cls.Name]; ci != nil {
				i := sort.Search(len(ci.changed), func(i int) bool { return ci.changed[i].epoch > p.at })
				ci.changed = trimFront(ci.changed, i)
			}
		}
		switch vers := s.older[t.oid]; {
		case t.gone:
			s.rows.Delete(row{oid: t.oid})
			delete(s.older, t.oid)
		case t.drop == len(vers):
			delete(s.older, t.oid)
			s.rows.Ptr(row{oid: t.oid}).flags &^= rowOlder
		case t.drop > 0:
			s.older[t.oid] = vers[t.drop:]
		}
	}
	s.queue = trimFront(s.queue, p.popped)
	s.reclaimed += int64(p.versions)
}

// trimFront drops a slice's first n elements. The rest keeps its backing
// array, whose head the next append that outgrows it leaves behind, so
// taking from the front costs nothing per element; an emptied slice lets
// the array go at once.
func trimFront[T any](xs []T, n int) []T {
	if n == len(xs) {
		return nil
	}
	return xs[n:]
}

// dropBlobs deletes the blobs of the versions a pass reclaimed, after the
// pass is published. It stops at the first failure other than a blob
// already gone: a blob left behind is dropped at the next open, as no
// version refers to it.
func (s *Store) dropBlobs(p *reclaim) error {
	for _, id := range p.blobs {
		if err := s.st.Blobs().Delete(id); err != nil && !errors.Is(err, storage.ErrBlobNotFound) {
			return err
		}
	}
	return nil
}

// GC reclaims what the commits since the horizon last moved have not: the
// versions no snapshot can see once a pin is released with no commit
// after it. It runs the pass every commit runs (planReclaim), with a
// storage batch of its own, and returns the number of versions
// reclaimed. The kernel's Checkpoint calls it.
func (s *Store) GC() (int, error) {
	gcStart := time.Now()
	defer func() {
		s.gcRuns.Inc()
		s.gcNS.ObserveSince(gcStart)
	}()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	b := s.st.NewBatch()
	s.mu.RLock()
	p := s.planReclaim(b)
	s.mu.RUnlock()
	if p.popped == 0 {
		return 0, nil
	}
	if _, err := b.Commit(); err != nil {
		s.abandon(&p)
		return 0, err
	}
	s.mu.Lock()
	s.apply(&p)
	s.mu.Unlock()
	return p.versions, s.dropBlobs(&p)
}
