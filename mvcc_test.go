package gaea

// MVCC snapshot-isolation tests: stable streaming cursors across
// concurrent commits, Kernel.Snapshot pinned reads, first-committer-wins
// session validation, version GC behind the pin horizon, epoch-qualified
// staleness, and the auto-checkpoint trigger. All of these run under
// -race in CI (both -cpu 1 and 4) — the names share the TestMVCC prefix
// so the dedicated shard picks them up.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gaea/internal/object"
	"gaea/internal/sptemp"
	"gaea/internal/value"
)

// seedRain commits n rain objects in one session and returns their OIDs.
func seedRain(t *testing.T, k *Kernel, n int) []object.OID {
	t.Helper()
	s := k.Begin(context.Background())
	oids := make([]object.OID, 0, n)
	for i := 0; i < n; i++ {
		oid, err := s.Create(rainObject(float64(i), float64(i*100)), "")
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	return oids
}

func rainPred() sptemp.Extent {
	return sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}
}

// TestMVCCStreamCursorStableAcrossCommits is the satellite regression
// test: before MVCC, a QueryStream cursor resumed mid-iteration could
// skip objects a concurrent commit deleted, double-see objects whose
// extent moved, and phantom-read objects created after the first page.
// With streams pinned to a snapshot epoch carried by the cursor, the
// union of pages must be exactly the set — and the values — committed
// when the first page was cut.
func TestMVCCStreamCursorStableAcrossCommits(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	all := seedRain(t, k, 9)

	page := func(req Request) ([]*object.Object, string) {
		t.Helper()
		st, err := k.QueryStream(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		var got []*object.Object
		for o, err := range st.All() {
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, o)
		}
		return got, st.Cursor()
	}
	req := Request{Class: "rain", Pred: rainPred(), Limit: 3}
	page1, cur := page(req)
	if len(page1) != 3 || cur == "" {
		t.Fatalf("page1 = %d objects, cursor %q", len(page1), cur)
	}

	// Between pages, a concurrent session mutates the class heavily:
	// delete one object the cursor has passed and one it has not reached,
	// rewrite the values of two more, and create three phantoms.
	s := k.Begin(context.Background())
	if err := s.Delete(all[1]); err != nil { // already seen by page 1
		t.Fatal(err)
	}
	if err := s.Delete(all[5]); err != nil { // not yet seen
		t.Fatal(err)
	}
	for _, i := range []int{4, 7} {
		o, err := k.Objects.Get(all[i])
		if err != nil {
			t.Fatal(err)
		}
		o.Attrs["mm"] = value.Float(9999)
		if err := s.Update(o); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Create(rainObject(-1, float64(2000+i*100)), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Drain the rest through resumed cursors.
	got := page1
	for cur != "" {
		r := req
		r.Cursor = cur
		var p []*object.Object
		p, cur = page(r)
		got = append(got, p...)
	}

	if len(got) != len(all) {
		t.Fatalf("united pages = %d objects, want the %d of the snapshot", len(got), len(all))
	}
	for i, o := range got {
		if o.OID != all[i] {
			t.Fatalf("page union OID[%d] = %d, want %d (no skips, no phantoms)", i, o.OID, all[i])
		}
		if mm := float64(o.Attrs["mm"].(value.Float)); mm != float64(i) {
			t.Errorf("OID %d read mm=%v, want the snapshot value %d", o.OID, mm, i)
		}
	}

	// A fresh stream sees the post-commit world: 7 survivors + 3 creates.
	fresh, _ := page(Request{Class: "rain", Pred: rainPred()})
	if len(fresh) != 10 {
		t.Errorf("fresh stream = %d objects, want 10", len(fresh))
	}
}

// TestMVCCSnapshotReads: a Kernel.Snapshot keeps serving the pinned
// state — gets, queries, and streams — while sessions commit underneath,
// and released snapshots stop answering.
func TestMVCCSnapshotReads(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	all := seedRain(t, k, 4)

	snap, err := k.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if snap.Epoch() == 0 || snap.Epoch() != k.Objects.CurrentEpoch() {
		t.Fatalf("snapshot epoch = %d, store epoch %d", snap.Epoch(), k.Objects.CurrentEpoch())
	}

	// Concurrent world changes: delete one, update one, create one.
	s := k.Begin(context.Background())
	if err := s.Delete(all[0]); err != nil {
		t.Fatal(err)
	}
	upd, err := k.Objects.Get(all[1])
	if err != nil {
		t.Fatal(err)
	}
	upd.Attrs["mm"] = value.Float(777)
	if err := s.Update(upd); err != nil {
		t.Fatal(err)
	}
	born, err := s.Create(rainObject(5, 800), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// The snapshot still sees the deleted object, the old value, and not
	// the newborn.
	if o, err := snap.Get(all[0]); err != nil || o == nil {
		t.Errorf("snapshot lost a deleted object: %v", err)
	}
	if o, err := snap.Get(all[1]); err != nil || float64(o.Attrs["mm"].(value.Float)) != 1 {
		t.Errorf("snapshot read updated value: %+v, %v", o, err)
	}
	if _, err := snap.Get(born); !errors.Is(err, ErrNotFound) {
		t.Errorf("snapshot sees an object born after it: %v", err)
	}
	res, err := snap.Query(context.Background(), Request{Class: "rain", Pred: rainPred()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OIDs) != 4 || res.Epoch != snap.Epoch() {
		t.Errorf("snapshot query = %v at epoch %d, want the 4 seeded at %d", res.OIDs, res.Epoch, snap.Epoch())
	}
	st, err := snap.QueryStream(context.Background(), Request{Class: "rain", Pred: rainPred()})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range st.All() {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 {
		t.Errorf("snapshot stream = %d objects, want 4", n)
	}

	// Latest-state reads see the new world.
	if _, err := k.Objects.Get(all[0]); !errors.Is(err, object.ErrNotFound) {
		t.Errorf("latest get of deleted = %v", err)
	}
	if got := k.Objects.Count("rain"); got != 4 { // 3 survivors + 1 newborn
		t.Errorf("latest count = %d", got)
	}

	snap.Release()
	if _, err := snap.Get(all[0]); !errors.Is(err, ErrClosed) {
		t.Errorf("released snapshot get = %v, want ErrClosed", err)
	}
	snap.Release() // idempotent
}

// TestMVCCFirstCommitterWins: two sessions based on the same read epoch
// stage conflicting updates; the first commit wins, the second aborts
// whole with ErrConflict.
func TestMVCCFirstCommitterWins(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	all := seedRain(t, k, 2)

	load := func(oid object.OID, mm float64) *object.Object {
		t.Helper()
		o, err := k.Objects.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		o.Attrs["mm"] = value.Float(mm)
		return o
	}
	s1 := k.Begin(context.Background())
	s2 := k.Begin(context.Background())
	if err := s1.Update(load(all[0], 10)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Update(load(all[0], 20)); err != nil {
		t.Fatal(err)
	}
	// s2 also stages an unrelated create that must not survive the abort.
	if _, err := s2.Create(rainObject(3, 500), ""); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer err = %v, want ErrConflict", err)
	}
	o, err := k.Objects.Get(all[0])
	if err != nil || float64(o.Attrs["mm"].(value.Float)) != 10 {
		t.Errorf("object = %+v, %v, want the first committer's value 10", o, err)
	}
	if got := k.Objects.Count("rain"); got != 2 {
		t.Errorf("aborted session leaked creates: count = %d", got)
	}

	// Update-vs-delete conflicts the same way.
	s3 := k.Begin(context.Background())
	if err := s3.Update(load(all[1], 30)); err != nil {
		t.Fatal(err)
	}
	if err := k.DeleteObject(context.Background(), all[1]); err != nil {
		t.Fatal(err)
	}
	if err := s3.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("update-after-delete err = %v, want ErrConflict", err)
	}

	// Create-only sessions never conflict, however stale their epoch.
	s4 := k.Begin(context.Background())
	if _, err := s4.Create(rainObject(4, 600), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateObject(context.Background(), rainObject(5, 700), ""); err != nil {
		t.Fatal(err)
	}
	if err := s4.Commit(); err != nil {
		t.Fatalf("create-only commit = %v", err)
	}
}

// TestMVCCReadersSeeOneGeneration is the acceptance test for snapshot
// reads under write pressure: a writer keeps committing sessions that
// move EVERY object to a new uniform generation; concurrent readers
// drain paginated streams (resuming by cursor) and must observe a single
// generation across a whole drain — a mixed drain would mean the reader
// straddled a commit.
func TestMVCCReadersSeeOneGeneration(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	const nObj = 12
	// Seed generation 0: every object carries the SAME value, so any
	// mixed-generation read is a straddled commit, not seed noise.
	s0 := k.Begin(context.Background())
	all := make([]object.OID, 0, nObj)
	for i := 0; i < nObj; i++ {
		oid, err := s0.Create(rainObject(0, float64(i*100)), "")
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, oid)
	}
	if err := s0.Commit(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var stop atomic.Bool
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		for gen := 1; !stop.Load(); gen++ {
			s := k.Begin(ctx)
			for _, oid := range all {
				o, err := k.Objects.Get(oid)
				if err != nil {
					writerDone <- err
					return
				}
				o.Attrs["mm"] = value.Float(float64(gen))
				if err := s.Update(o); err != nil {
					writerDone <- err
					return
				}
			}
			if err := s.Commit(); err != nil {
				writerDone <- err
				return
			}
		}
	}()

	const readers = 4
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			for drain := 0; drain < 15; drain++ {
				seen := 0
				gen := -1.0
				cursor := ""
				for {
					st, err := k.QueryStream(ctx, Request{Class: "rain", Pred: rainPred(), Limit: 5, Cursor: cursor})
					if err != nil {
						errs[ri] = err
						return
					}
					for o, err := range st.All() {
						if err != nil {
							errs[ri] = err
							return
						}
						mm := float64(o.Attrs["mm"].(value.Float))
						if gen < 0 {
							gen = mm
						} else if mm != gen {
							errs[ri] = fmt.Errorf("drain %d mixed generations: saw %v after %v", drain, mm, gen)
							return
						}
						seen++
					}
					cursor = st.Cursor()
					if cursor == "" {
						break
					}
				}
				if seen != nObj {
					errs[ri] = fmt.Errorf("drain %d saw %d objects, want %d (skip or phantom)", drain, seen, nObj)
					return
				}
			}
		}(ri)
	}
	wg.Wait()
	stop.Store(true)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
}

// TestMVCCGCRespectsPins: GC reclaims superseded versions only past the
// oldest pin, and a cursor whose epoch fell behind the horizon is
// refused with ErrSnapshotGone.
func TestMVCCGCRespectsPins(t *testing.T) {
	k := openKernel(t)
	defineRainClass(t, k)
	all := seedRain(t, k, 3)

	snap, err := k.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite every object twice: 6 superseded versions build up.
	for gen := 1; gen <= 2; gen++ {
		s := k.Begin(context.Background())
		for _, oid := range all {
			o, err := k.Objects.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			o.Attrs["mm"] = value.Float(float64(100 * gen))
			if err := s.Update(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	mv := k.Objects.MVCC()
	if mv.LiveVersions != 9 {
		t.Fatalf("live versions = %d, want 9 (3 objects x 3 states)", mv.LiveVersions)
	}
	if mv.OldestPin != snap.Epoch() {
		t.Fatalf("oldest pin = %d, want %d", mv.OldestPin, snap.Epoch())
	}

	// With the snapshot pinned, GC reclaims nothing: the horizon is the
	// oldest pin, and every version at or above it stays resolvable (so
	// any cursor epoch >= the horizon remains consistent).
	if n, err := k.Checkpoint(); err != nil || n != 0 {
		t.Fatalf("checkpoint under pin reclaimed %d, %v, want 0 (horizon = oldest pin)", n, err)
	}
	if o, err := snap.Get(all[0]); err != nil || float64(o.Attrs["mm"].(value.Float)) != 0 {
		t.Fatalf("pinned snapshot lost its version after GC: %+v, %v", o, err)
	}

	// Cut a cursor at the snapshot epoch, release, GC, then resume: the
	// epoch is now behind the horizon.
	st, err := snap.QueryStream(context.Background(), Request{Class: "rain", Pred: rainPred(), Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range st.All() {
		if err != nil {
			t.Fatal(err)
		}
	}
	cursor := st.Cursor()
	if cursor == "" {
		t.Fatal("expected a resume cursor")
	}
	snap.Release()
	if n, err := k.Checkpoint(); err != nil || n != 6 {
		t.Fatalf("checkpoint after release reclaimed %d, %v, want all 6 superseded", n, err)
	}
	mv = k.Objects.MVCC()
	if mv.LiveVersions != 3 || mv.Reclaimed != 6 {
		t.Errorf("after full GC: versions=%d reclaimed=%d, want 3/6", mv.LiveVersions, mv.Reclaimed)
	}
	_, err = k.QueryStream(context.Background(), Request{Class: "rain", Pred: rainPred(), Cursor: cursor})
	if !errors.Is(err, ErrSnapshotGone) {
		t.Fatalf("resume past GC horizon = %v, want ErrSnapshotGone", err)
	}
}

// TestMVCCEpochQualifiedStaleness: a snapshot pinned before an
// invalidating commit keeps seeing the dependent as FRESH — in its world
// the inputs have not changed — while latest-state readers see it stale.
func TestMVCCEpochQualifiedStaleness(t *testing.T) {
	k := openKernelOpts(t, Options{NoSync: true, User: "tester", RefreshPolicy: ManualRefresh})
	scene := loadScene(t, k, sptemp.Date(1986, 1, 15), 1986)
	tk, _, err := k.RunProcess(context.Background(), "unsupervised_classification",
		map[string][]object.OID{"bands": scene}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	derived := tk.Output

	snap, err := k.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	// Invalidate: update a base band AFTER the snapshot.
	o, err := k.Objects.Get(scene[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := k.UpdateObject(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if !k.Deriv.IsStale(derived) {
		t.Fatal("derived object not marked stale at latest epoch")
	}
	if k.Deriv.IsStaleAt(derived, snap.Epoch()) {
		t.Error("IsStaleAt(snapshot) = true: invalidated by a LATER epoch must read fresh")
	}

	// A SECOND invalidation at a newer epoch must not push the stale mark
	// forward past readers pinned between the two: a snapshot taken after
	// the first invalidation keeps seeing the object as stale.
	snapMid, err := k.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer snapMid.Release()
	mid := snapMid.Epoch()
	o2, err := k.Objects.Get(scene[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := k.UpdateObject(context.Background(), o2); err != nil {
		t.Fatal(err)
	}
	if !k.Deriv.IsStaleAt(derived, mid) {
		t.Error("IsStaleAt(mid) = false: a newer invalidation hid the earlier one from an intermediate snapshot")
	}
	res, err := snap.Query(context.Background(), Request{Class: "landcover", Pred: rainPred()})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, oid := range res.OIDs {
		if oid == derived {
			found = true
			if res.Stale != nil && res.Stale[i] {
				t.Error("snapshot query flags the dependent stale")
			}
		}
	}
	if !found {
		t.Errorf("snapshot query lost the derived object: %v", res.OIDs)
	}

	// The three retrieval paths — a snapshot's one-shot query, its stream
	// and a PageRawAt page at its epoch — agree on whether the dependent
	// is skipped, and the query on whether it is served flagged stale.
	agree := func(s *Snapshot, wantServed, wantFlagged bool) {
		t.Helper()
		ctx := context.Background()
		req := Request{Class: "landcover", Pred: rainPred()}
		var queried, streamed, paged []object.OID
		flagged := false
		res, err := s.Query(ctx, req)
		switch {
		case err == nil:
			queried = res.OIDs
			if i := slices.Index(queried, derived); i >= 0 && res.Stale != nil {
				flagged = res.Stale[i]
			}
		case !errors.Is(err, ErrNoPlan):
			t.Fatal(err)
		}
		st, err := s.QueryStream(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		for o, err := range st.All() {
			if err != nil {
				if !errors.Is(err, ErrNoPlan) {
					t.Fatal(err)
				}
				break
			}
			streamed = append(streamed, o.OID)
		}
		if _, _, err := k.Queries.PageRawAt(ctx, req, s.Epoch(), func(_ string, oid object.OID) (bool, error) {
			paged = append(paged, oid)
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		q, st2, pg := slices.Contains(queried, derived), slices.Contains(streamed, derived), slices.Contains(paged, derived)
		if q != wantServed || st2 != wantServed || pg != wantServed {
			t.Errorf("epoch %d: dependent served by query %v, stream %v, page %v; want %v on all three", s.Epoch(), q, st2, pg, wantServed)
		}
		if flagged != wantFlagged {
			t.Errorf("epoch %d: query flags the dependent stale %v, want %v", s.Epoch(), flagged, wantFlagged)
		}
	}
	agree(snap, true, false)   // invalidated after the snapshot: fresh
	agree(snapMid, true, true) // stale at mid: served flagged (manual)
	// Without ServeStale (the lazy and eager policies) every path skips it.
	k.Queries.ServeStale = false
	agree(snap, true, false)
	agree(snapMid, false, false)
	k.Queries.ServeStale = true
}

// TestMVCCAutoCheckpoint: with a tiny CheckpointEveryBytes, sustained
// session ingest triggers background checkpoints that truncate the WAL
// and GC superseded versions — the log cannot grow unbounded.
func TestMVCCAutoCheckpoint(t *testing.T) {
	k := openKernelOpts(t, Options{NoSync: true, User: "tester", CheckpointEveryBytes: 8 << 10})
	defineRainClass(t, k)
	all := seedRain(t, k, 8)

	// Each generation rewrites every object; versions pile up unless the
	// auto-checkpoint GC keeps pruning.
	for gen := 0; gen < 60; gen++ {
		s := k.Begin(context.Background())
		for _, oid := range all {
			o, err := k.Objects.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			o.Attrs["mm"] = value.Float(float64(gen))
			if err := s.Update(o); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for k.checkpoints.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if k.checkpoints.Load() == 0 {
		t.Fatal("no auto-checkpoint fired under sustained ingest")
	}
	if got := k.Objects.MVCC().Reclaimed; got == 0 {
		t.Error("auto-checkpoint reclaimed no versions")
	}
	if !strings.Contains(k.Stats(), "mvcc[") {
		t.Errorf("stats missing mvcc section: %s", k.Stats())
	}
	// Data survives the churn intact.
	if got := k.Objects.Count("rain"); got != len(all) {
		t.Errorf("count after churn = %d, want %d", got, len(all))
	}
}

// TestMVCCPagedScanLinear: a box drained page by page at one pinned epoch
// — while a writer updates, moves (out of the box and into it) and deletes
// members and bystanders — concatenates to exactly QueryAt at that epoch
// whatever the page size, and costs what it ships: the candidates the
// store examined (once when collected, once when resolved and checked) are
// bounded by twice the objects returned plus the overlay of changes since
// the epoch, not by pages × box (17× the objects shipped for 256-object
// pages while every page collected its candidates afresh).
func TestMVCCPagedScanLinear(t *testing.T) {
	const (
		inBox  = 4096
		margin = 128 // tiles either side of the box
	)
	k := openKernel(t)
	defineRainClass(t, k)
	ctx := context.Background()
	var all []object.OID
	for from := 0; from < inBox+2*margin; from += 1024 {
		s := k.Begin(ctx)
		for i := from; i < min(from+1024, inBox+2*margin); i++ {
			oid, err := s.Create(rainObject(float64(i), float64(i*20)), "")
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, oid)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	pred := sptemp.TimelessExtent(sptemp.DefaultFrame,
		sptemp.NewBox(margin*20, 0, float64(margin+inBox-1)*20+10, 10))

	snap, err := k.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	epoch := snap.Epoch()
	want, err := k.Objects.QueryAt("rain", pred, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != inBox {
		t.Fatalf("QueryAt found %d objects, want %d", len(want), inBox)
	}

	// The writer commits one change per session — each adds one entry to
	// the class's overlay — first a burst the first page already has to
	// look through, then on until told to stop (or it has made as many
	// changes again as there are objects: versions pile up under the pin).
	var changes atomic.Int64
	gone := make(map[object.OID]bool)
	change := func(n int) error {
		tile := int(uint64(n) * 2654435761 % uint64(len(all)))
		oid := all[tile]
		if gone[oid] {
			return nil
		}
		var err error
		switch n % 4 {
		case 0: // a new value where the object was loaded
			err = k.UpdateObject(ctx, rainMoved(oid, float64(tile*20)))
		case 1: // far out of the box
			err = k.UpdateObject(ctx, rainMoved(oid, 1e6+float64(n)*20))
		case 2: // into the middle of the box
			err = k.UpdateObject(ctx, rainMoved(oid, float64(margin+inBox/2)*20))
		case 3:
			err = k.DeleteObject(ctx, oid)
			gone[oid] = true
		}
		if err != nil {
			return fmt.Errorf("writer op %d on %d: %w", n, oid, err)
		}
		changes.Add(1)
		return nil
	}
	const burst = 200
	for n := range burst {
		if err := change(n); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := burst; n < burst+len(all); n++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := change(n); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	examined := k.Metrics.Counter("object_candidates_examined_total")
	for _, pageSize := range []int{1, 7, 256} {
		before := examined.Load()
		var got []object.OID
		pages := 0
		for cursor := ""; ; {
			req := Request{Class: "rain", Pred: pred, Limit: pageSize, Cursor: cursor}
			n := len(got)
			cursor, _, err = k.Queries.PageRawAt(ctx, req, epoch, func(_ string, oid object.OID) (bool, error) {
				got = append(got, oid)
				return true, nil
			})
			if err != nil {
				t.Fatalf("page size %d, page %d: %v", pageSize, pages, err)
			}
			if len(got)-n > pageSize {
				t.Fatalf("page size %d: a page of %d", pageSize, len(got)-n)
			}
			pages++
			if cursor == "" {
				break
			}
		}
		cost, overlay := examined.Load()-before, changes.Load()
		if !slices.Equal(got, want) {
			t.Fatalf("page size %d: %d pages concatenate to %d objects, QueryAt at the epoch has %d (or the order differs)",
				pageSize, pages, len(got), len(want))
		}
		t.Logf("page size %d: %d pages, %d candidates examined, %d changes since the epoch", pageSize, pages, cost, overlay)
		if bound := 2*int64(len(want)) + overlay; cost > bound {
			t.Errorf("page size %d: examined %d candidates to ship %d objects in %d pages with %d changes since the epoch; want at most %d",
				pageSize, cost, len(want), pages, overlay, bound)
		}

		// The snapshot's stream, paged by cursor, and its one-shot query
		// walk the same retrieval in the same order.
		var streamed []object.OID
		for cursor := ""; ; {
			st, err := snap.QueryStream(ctx, Request{Class: "rain", Pred: pred, Limit: pageSize, Cursor: cursor})
			if err != nil {
				t.Fatal(err)
			}
			for o, err := range st.All() {
				if err != nil {
					t.Fatalf("page size %d, stream: %v", pageSize, err)
				}
				streamed = append(streamed, o.OID)
			}
			if cursor = st.Cursor(); cursor == "" {
				break
			}
		}
		if !slices.Equal(streamed, want) {
			t.Fatalf("page size %d: the snapshot stream's pages concatenate to %d objects, PageRawAt's to %d (or the order differs)",
				pageSize, len(streamed), len(want))
		}
		res, err := snap.Query(ctx, Request{Class: "rain", Pred: pred})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.OIDs, want) {
			t.Fatalf("page size %d: the snapshot query answers %d objects, PageRawAt's pages %d (or the order differs)",
				pageSize, len(res.OIDs), len(want))
		}
	}
	close(stop)
	wg.Wait()
	if changes.Load() == 0 {
		t.Error("the writer committed nothing while the pages drained")
	}
	// The snapshot itself did not move under the writer.
	again, err := k.Objects.QueryAt("rain", pred, epoch)
	if err != nil || !slices.Equal(again, want) {
		t.Errorf("QueryAt at the pinned epoch changed under the writer: %d objects, err %v", len(again), err)
	}
}

// rainMoved is an update that moves a rain object to the tile at x.
func rainMoved(oid object.OID, x float64) *object.Object {
	o := rainObject(-2, x)
	o.OID = oid
	return o
}
