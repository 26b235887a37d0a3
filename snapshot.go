package gaea

import (
	"context"
	"sync/atomic"

	"gaea/internal/object"
)

// Snapshot is a read-only view of the database pinned to one MVCC commit
// epoch: every Get, Query, and QueryStream resolves objects exactly as
// they stood when the snapshot was taken, no matter how many sessions
// commit concurrently. Reads through a snapshot never block writers and
// writers never block them — version chains resolve visibility without
// locks held across I/O.
//
// A snapshot holds a pin that keeps its versions from being reclaimed;
// Release it when done so the GC horizon can advance (Release is
// idempotent, and a snapshot left unreleased simply delays GC until the
// kernel closes). Snapshots are read-only by construction: queries run
// the Retrieve strategy only — a pinned reader cannot trigger
// derivations, which would write at epochs it cannot see.
//
// One caveat on repeatability: object CONTENT is fully repeatable, but
// the stale FLAG is live metadata. An object the snapshot sees as stale
// reads as fresh after a concurrent refresh recomputes it (the stale
// mark is cleared store-wide; per-epoch staleness history is not kept),
// so a re-run of the same snapshot query may include an object the
// first run skipped. Snapshots do not survive a kernel reopen.
type Snapshot struct {
	k        *Kernel
	epoch    uint64
	released atomic.Bool
}

// Snapshot pins the current commit epoch and returns the read-only view.
// The kernel tracks open snapshots: Close releases any still pinned, so
// a leaked snapshot can delay GC only until the kernel closes, never
// wedge the horizon of a reopened database.
func (k *Kernel) Snapshot(ctx context.Context) (*Snapshot, error) {
	if err := k.checkOpen(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := &Snapshot{k: k, epoch: k.Objects.Pin()}
	k.snapMu.Lock()
	if k.snaps == nil {
		k.snaps = make(map[*Snapshot]struct{})
	}
	k.snaps[s] = struct{}{}
	k.snapMu.Unlock()
	return s, nil
}

// Epoch returns the commit epoch the snapshot is pinned to.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Release unpins the snapshot, letting the next commit (or GC) reclaim
// versions only it could see. Idempotent — releasing twice (or after Kernel.Close
// already released it) is a no-op, never a double-unpin.
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.k.Objects.Unpin(s.epoch)
		s.k.snapMu.Lock()
		delete(s.k.snaps, s)
		s.k.snapMu.Unlock()
	}
}

func (s *Snapshot) check() error {
	if s.released.Load() {
		return ErrClosed
	}
	return s.k.checkOpen()
}

// Get loads the version of an object this snapshot sees. Objects created
// after the snapshot — or deleted at or before it — are not found.
func (s *Snapshot) Get(oid object.OID) (*object.Object, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	o, err := s.k.Objects.GetAt(oid, s.epoch)
	return o, classify(err)
}

// Query answers a retrieval request against the snapshot. The fallback
// strategies (interpolation, derivation) are disabled — they would write —
// so a request no stored-at-epoch data satisfies returns ErrNoPlan.
func (s *Snapshot) Query(ctx context.Context, req Request) (*Result, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	if err := s.k.request(&req, true); err != nil {
		return nil, err
	}
	res, err := s.k.Queries.RunAt(ctx, req, s.epoch)
	return res, classify(err)
}

// QueryStream streams a retrieval request against the snapshot,
// honouring Request.Limit and Request.Cursor exactly like
// Kernel.QueryStream. Cursors minted here resume against this same epoch
// (from this snapshot or any later QueryStream) as long as the epoch
// stays ahead of the GC horizon.
func (s *Snapshot) QueryStream(ctx context.Context, req Request) (*Stream, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	return s.k.stream(ctx, req, true, s.epoch)
}
