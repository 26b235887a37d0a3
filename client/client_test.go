package client

// Integration tests for the service layer, run over a real unix-socket
// server in-process: remote sessions (one-round-trip commits,
// provisional OID remapping), streaming pages with cursor resume across
// a reconnect, snapshot leases and their expiry, the error taxonomy
// over the wire, graceful and mid-stream shutdown, and backend parity —
// the same workload against client.Embed and a served endpoint.
//
// The concurrency tests share the TestMVCC name prefix so the CI shard
// re-runs them under -race -cpu 1,4.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gaea"
	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/sptemp"
	"gaea/internal/value"
	"gaea/internal/wire"
)

var ctx = context.Background()

// openKernel opens a throwaway kernel with the cheap "rain" class.
func openKernel(t *testing.T) *gaea.Kernel {
	t.Helper()
	return openKernelOpts(t, gaea.Options{NoSync: true, User: "tester"})
}

func openKernelOpts(t testing.TB, opts gaea.Options) *gaea.Kernel {
	t.Helper()
	k, err := gaea.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { k.Close() })
	if err := k.DefineClass(&catalog.Class{
		Name: "rain", Kind: catalog.KindBase,
		Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
		Frame: sptemp.DefaultFrame, HasSpatial: true,
	}); err != nil {
		t.Fatal(err)
	}
	return k
}

func rainObject(mm float64, x float64) *object.Object {
	return &object.Object{
		Class:  "rain",
		Attrs:  map[string]value.Value{"mm": value.Float(mm)},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(x, 0, x+10, 10)),
	}
}

func rainPred() gaea.Request {
	return gaea.Request{Class: "rain", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}}
}

// sockPath returns a short unix socket path (sun_path is ~108 bytes;
// t.TempDir can exceed it under deep test names).
func sockPath(t testing.TB) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "gaea-sock-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return filepath.Join(dir, "s")
}

// startServer serves k on a fresh unix socket and returns the server
// and its dialable address.
func startServer(t testing.TB, k *gaea.Kernel, opts gaea.ServeOptions) (*gaea.Server, string) {
	t.Helper()
	path := sockPath(t)
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	srv := k.NewServer(opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, "unix://" + path
}

func dial(t testing.TB, addr string) *Conn {
	t.Helper()
	c, err := Dial(addr, Options{User: "remote"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// seedRain commits n rain objects through any backend and returns their
// stored OIDs.
func seedRain(t testing.TB, b Kernel, n int, gen float64) []object.OID {
	t.Helper()
	s := b.Begin(ctx)
	staged := make([]object.OID, n)
	for i := 0; i < n; i++ {
		oid, err := s.Create(rainObject(gen, float64(i)*20), "seed")
		if err != nil {
			t.Fatal(err)
		}
		staged[i] = oid
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	real := make([]object.OID, n)
	for i, oid := range staged {
		r, ok := s.Committed(oid)
		if !ok {
			t.Fatalf("no committed OID for staged %d", oid)
		}
		real[i] = r
	}
	return real
}

// drainAll drains a stream, asserting no errors.
func drainAll(t *testing.T, st Stream) []*object.Object {
	t.Helper()
	var objs []*object.Object
	for o, err := range st.All() {
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	return objs
}

// TestRemoteSession is the one-round-trip session contract: staged
// creates get provisional OIDs, updates and deletes may reference them,
// Commit reserves the real OIDs, and the whole batch lands atomically.
func TestRemoteSession(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)

	s := c.Begin(ctx)
	a, err := s.Create(rainObject(1, 0), "a")
	if err != nil {
		t.Fatal(err)
	}
	if !wire.IsProvisional(a) {
		t.Fatalf("remote Create returned non-provisional OID %d", a)
	}
	b, err := s.Create(rainObject(2, 20), "b")
	if err != nil {
		t.Fatal(err)
	}
	// Update the first staged create through its provisional OID.
	up := rainObject(10, 0)
	up.OID = a
	if err := s.Update(up); err != nil {
		t.Fatal(err)
	}
	// Create-then-delete vanishes entirely.
	d, err := s.Create(rainObject(3, 40), "doomed")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(d); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	realA, ok := s.Committed(a)
	if !ok || wire.IsProvisional(realA) {
		t.Fatalf("Committed(%d) = %d, %v", a, realA, ok)
	}
	realB, _ := s.Committed(b)

	res, err := c.Query(ctx, rainPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OIDs) != 2 {
		t.Fatalf("query saw %d objects, want 2 (doomed create must not commit)", len(res.OIDs))
	}
	// The staged update must have replaced the create's state.
	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	oa, err := snap.Get(realA)
	if err != nil {
		t.Fatal(err)
	}
	if mm := oa.Attrs["mm"].(value.Float); mm != 10 {
		t.Fatalf("a.mm = %v, want 10 (update-after-create lost)", mm)
	}
	if _, err := snap.Get(realB); err != nil {
		t.Fatal(err)
	}

	// A finished session refuses further use.
	if _, err := s.Create(rainObject(4, 60), "late"); !errors.Is(err, gaea.ErrClosed) {
		t.Fatalf("create after commit: %v, want ErrClosed", err)
	}

	// Update and delete of really-stored objects round-trip too.
	s2 := c.Begin(ctx)
	up2 := rainObject(20, 0)
	up2.OID = realA
	if err := s2.Update(up2); err != nil {
		t.Fatal(err)
	}
	if err := s2.Delete(realB); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query(ctx, rainPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OIDs) != 1 || res.OIDs[0] != realA {
		t.Fatalf("after update+delete: %v, want [%d]", res.OIDs, realA)
	}
}

// TestRemoteSessionUserProvenance: lineage records the CONNECTION's
// Hello user on remote loads, not the server's default.
func TestRemoteSessionUserProvenance(t *testing.T) {
	k := openKernel(t) // kernel user is "tester"
	_, addr := startServer(t, k, gaea.ServeOptions{})
	c, err := Dial(addr, Options{User: "ana"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One remote session, one load task: it must answer for every create.
	for _, oid := range seedRain(t, c, 12, 1) {
		if text := c.Explain(oid); !strings.Contains(text, "data_load v0 by ana") {
			t.Fatalf("remote load lineage of %d, %q, does not credit the connection user", oid, text)
		}
	}
}

// TestRemoteStreamByteBudget: pages are bounded by encoded bytes, not
// just object count — a page whose objects would overflow the frame
// limit is cut early with a server-minted cursor, and the stream still
// drains completely with no skips or duplicates.
func TestRemoteStreamByteBudget(t *testing.T) {
	k := openKernel(t)
	// Tiny frames: the budget (MaxFrame/2 = 2 KiB) fits only a few rain
	// objects per page even though the count-based page size is huge.
	_, addr := startServer(t, k, gaea.ServeOptions{MaxFrame: 4 << 10})
	c := dial(t, addr)
	seedRain(t, c, 40, 1)

	st, err := c.QueryStream(ctx, rainPred())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[object.OID]bool{}
	for o, err := range st.All() {
		if err != nil {
			t.Fatal(err)
		}
		if seen[o.OID] {
			t.Fatalf("object %d seen twice", o.OID)
		}
		seen[o.OID] = true
	}
	if len(seen) != 40 {
		t.Fatalf("drained %d objects, want 40", len(seen))
	}
	if st.Cursor() != "" {
		t.Fatalf("exhausted stream left cursor %q", st.Cursor())
	}
}

// TestRemoteWorldBoxQuery: one remote query whose box covers 4e12 grid
// cells answers with every object, and so does one after an object that
// wide has been stored. While the extent index enumerated covered cells,
// either took the serving process down with it ("fatal error: runtime:
// out of memory"), not just the request.
func TestRemoteWorldBoxQuery(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)
	oids := seedRain(t, c, 64, 1)

	world := sptemp.NewBox(-1e7, -1e7, 1e7, 1e7)
	req := gaea.Request{Class: "rain", Pred: sptemp.TimelessExtent(sptemp.DefaultFrame, world)}
	res, err := c.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.OIDs, oids) {
		t.Fatalf("world-box query answered %d objects, want all %d in order", len(res.OIDs), len(oids))
	}

	wide := rainObject(2, 0)
	wide.Extent.Space = world
	s := c.Begin(ctx)
	staged, err := s.Create(wide, "wide")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	wideOID, _ := s.Committed(staged)
	if res, err = c.Query(ctx, req); err != nil || len(res.OIDs) != len(oids)+1 {
		t.Fatalf("world-box query after a world-box object: %d objects, err %v", len(res.OIDs), err)
	}
	// A tile-sized query now finds its tile and the wide object, no other.
	tile := gaea.Request{Class: "rain", Pred: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(41, 1, 42, 2))}
	if res, err = c.Query(ctx, tile); err != nil || !slices.Equal(res.OIDs, []object.OID{oids[2], wideOID}) {
		t.Fatalf("tile query = %v, err %v; want [%d %d]", res, err, oids[2], wideOID)
	}
}

// TestRemoteErrorTaxonomy exercises the wire error mapping end to end
// (every code's round trip is pinned in internal/wire).
func TestRemoteErrorTaxonomy(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)

	if _, err := c.Query(ctx, gaea.Request{Class: "nope", Pred: rainPred().Pred}); !errors.Is(err, gaea.ErrClassUnknown) {
		t.Fatalf("unknown class: %v, want ErrClassUnknown", err)
	}
	if _, err := c.Query(ctx, rainPred()); !errors.Is(err, gaea.ErrNoPlan) {
		t.Fatalf("empty base class: %v, want ErrNoPlan", err)
	}
	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if _, err := snap.Get(9999); !errors.Is(err, gaea.ErrNotFound) {
		t.Fatalf("missing oid: %v, want ErrNotFound", err)
	}

	// First-committer-wins across two remote connections.
	oids := seedRain(t, c, 1, 1)
	c2 := dial(t, addr)
	s1 := c.Begin(ctx)
	s2 := c2.Begin(ctx)
	u1 := rainObject(5, 0)
	u1.OID = oids[0]
	u2 := rainObject(6, 0)
	u2.OID = oids[0]
	if err := s1.Update(u1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Update(u2); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Commit(); !errors.Is(err, gaea.ErrConflict) {
		t.Fatalf("second committer: %v, want ErrConflict", err)
	}

	// A malformed cursor is a bad request, reported with the server text.
	st, err := c.QueryStream(ctx, gaea.Request{Class: "rain", Pred: rainPred().Pred, Cursor: "garbage"})
	if err != nil {
		t.Fatal(err)
	}
	var streamErr error
	for _, err := range st.All() {
		if err != nil {
			streamErr = err
			break
		}
	}
	if streamErr == nil || !strings.Contains(streamErr.Error(), "cursor") {
		t.Fatalf("malformed cursor: %v", streamErr)
	}
}

// TestErrorForCodes pins the client-side half of the taxonomy round
// trip: every wire code a response carries maps, through the decoding
// the client applies (wire.ErrorOf), onto the errors.Is-matchable
// sentinel package gaea and this package export.
func TestErrorForCodes(t *testing.T) {
	cases := []struct {
		code wire.Code
		want error
	}{
		{wire.CodeNotFound, gaea.ErrNotFound},
		{wire.CodeClassUnknown, gaea.ErrClassUnknown},
		{wire.CodeNoPlan, gaea.ErrNoPlan},
		{wire.CodeStale, gaea.ErrStale},
		{wire.CodeConflict, gaea.ErrConflict},
		{wire.CodeSnapshotGone, gaea.ErrSnapshotGone},
		{wire.CodeClosed, gaea.ErrClosed},
		{wire.CodeCanceled, context.Canceled},
		{wire.CodeUnavailable, ErrUnavailable},
	}
	for _, cse := range cases {
		err := wire.ErrorOf(cse.code, "remote text")
		if !errors.Is(err, cse.want) {
			t.Errorf("ErrorOf(%v) = %v, not errors.Is %v", cse.code, err, cse.want)
		}
		if !strings.Contains(err.Error(), "remote text") {
			t.Errorf("ErrorOf(%v) lost the server text: %v", cse.code, err)
		}
	}
	// Codes without a sentinel still carry the text.
	for _, code := range []wire.Code{wire.CodeBadRequest, wire.CodeInternal} {
		if err := wire.ErrorOf(code, "boom"); !strings.Contains(err.Error(), "boom") {
			t.Errorf("ErrorOf(%v) lost the text: %v", code, err)
		}
	}
}

// TestRemoteCursorResumeAcrossReconnect is the acceptance test for
// remote snapshot streaming: a client reads one page, disconnects, a
// writer rewrites every object, and a NEW connection resumes the cursor
// — seeing exactly the first page's snapshot for the remainder, no
// skips, no phantoms, no torn generations.
func TestRemoteCursorResumeAcrossReconnect(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	c1 := dial(t, addr)
	oids := seedRain(t, c1, 30, 1)

	req := rainPred()
	req.Limit = 10
	st, err := c1.QueryStream(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[object.OID]bool{}
	for o, err := range st.All() {
		if err != nil {
			t.Fatal(err)
		}
		if mm := o.Attrs["mm"].(value.Float); mm != 1 {
			t.Fatalf("first page saw generation %v", mm)
		}
		seen[o.OID] = true
	}
	cursor := st.Cursor()
	if cursor == "" {
		t.Fatal("limited first page returned no cursor")
	}
	if len(seen) != 10 {
		t.Fatalf("first page saw %d objects, want 10", len(seen))
	}
	c1.Close() // the connection dies; the cursor's lease holds the snapshot

	// A writer rewrites every object and a checkpoint tries to GC the
	// old versions — the cursor lease must keep them reachable.
	emb := Embed(k)
	ws := emb.Begin(ctx)
	for _, oid := range oids {
		o := rainObject(2, 0)
		o.OID = oid
		got, err := k.Objects.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		o.Extent = got.Extent
		if err := ws.Update(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Fresh connection, same cursor: the rest of the ORIGINAL snapshot.
	c2 := dial(t, addr)
	resumeReq := rainPred()
	resumeReq.Cursor = cursor
	st2, err := c2.QueryStream(ctx, resumeReq)
	if err != nil {
		t.Fatal(err)
	}
	rest := 0
	for o, err := range st2.All() {
		if err != nil {
			t.Fatal(err)
		}
		if seen[o.OID] {
			t.Fatalf("object %d seen twice across resume", o.OID)
		}
		seen[o.OID] = true
		rest++
		if mm := o.Attrs["mm"].(value.Float); mm != 1 {
			t.Fatalf("resumed page saw generation %v, want the snapshot's 1", mm)
		}
	}
	if rest != 20 || len(seen) != 30 {
		t.Fatalf("resume saw %d objects (total %d), want 20 (total 30)", rest, len(seen))
	}
	if st2.Cursor() != "" {
		t.Fatalf("exhausted stream left cursor %q", st2.Cursor())
	}

	// A fresh read sees the new generation — the snapshot was the
	// cursor's, not the store's state.
	res, err := c2.Query(ctx, rainPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OIDs) != 30 {
		t.Fatalf("fresh query saw %d", len(res.OIDs))
	}
}

// TestRemoteStreamBreakMidPage: breaking out of iteration mid-page
// still yields an exact-resume cursor (synthesised client-side). The
// whole result fit in ONE page here, so the server had already
// released the page's pin — the client must have re-leased the epoch,
// and the cursor must survive a concurrent rewrite plus a GC
// checkpoint, resuming the original snapshot.
func TestRemoteStreamBreakMidPage(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)
	oids := seedRain(t, c, 12, 1)

	st, err := c.QueryStream(ctx, rainPred())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[object.OID]bool{}
	n := 0
	for o, err := range st.All() {
		if err != nil {
			t.Fatal(err)
		}
		seen[o.OID] = true
		n++
		if n == 5 {
			break // mid-page: the default page is larger than 5
		}
	}
	cursor := st.Cursor()
	if cursor == "" {
		t.Fatal("break mid-page left no cursor")
	}
	if pins := k.Objects.MVCC().Pins; pins == 0 {
		t.Fatal("no lease pin backs the synthesised cursor")
	}

	// Rewrite every object and checkpoint: without the re-lease the
	// cursor's epoch would be reclaimed here.
	ws := Embed(k).Begin(ctx)
	for i, oid := range oids {
		u := rainObject(2, float64(i)*20)
		u.OID = oid
		if err := ws.Update(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	resumeReq := rainPred()
	resumeReq.Cursor = cursor
	st2, err := c.QueryStream(ctx, resumeReq)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range drainAll(t, st2) {
		if seen[o.OID] {
			t.Fatalf("object %d seen twice after mid-page resume", o.OID)
		}
		if mm := o.Attrs["mm"].(value.Float); mm != 1 {
			t.Fatalf("resume saw generation %v, want the snapshot's 1", mm)
		}
		seen[o.OID] = true
	}
	if len(seen) != 12 {
		t.Fatalf("saw %d objects total, want 12", len(seen))
	}
}

// TestRemoteSnapshot: lease-backed snapshots serve repeatable reads
// while the store moves on, and Release is idempotent.
func TestRemoteSnapshot(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)
	oids := seedRain(t, c, 5, 1)

	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch() == 0 {
		t.Fatal("snapshot epoch 0")
	}
	// Concurrent commit after the snapshot.
	s := c.Begin(ctx)
	u := rainObject(9, 0)
	u.OID = oids[0]
	if err := s.Update(u); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(oids[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	o, err := snap.Get(oids[0])
	if err != nil {
		t.Fatal(err)
	}
	if mm := o.Attrs["mm"].(value.Float); mm != 1 {
		t.Fatalf("snapshot Get saw the new version: %v", mm)
	}
	res, err := snap.Query(ctx, rainPred())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OIDs) != 5 {
		t.Fatalf("snapshot query saw %d, want the original 5", len(res.OIDs))
	}
	sst, err := snap.QueryStream(ctx, rainPred())
	if err != nil {
		t.Fatal(err)
	}
	objs := drainAll(t, sst)
	if len(objs) != 5 {
		t.Fatalf("snapshot stream saw %d, want 5", len(objs))
	}
	for _, o := range objs {
		if mm := o.Attrs["mm"].(value.Float); mm != 1 {
			t.Fatalf("snapshot stream saw generation %v", mm)
		}
	}
	snap.Release()
	snap.Release() // idempotent
	if _, err := snap.Get(oids[0]); !errors.Is(err, gaea.ErrSnapshotGone) {
		t.Fatalf("released snapshot answered %v, want ErrSnapshotGone", err)
	}
}

// TestRemoteSnapshotLeaseExpiry: an abandoned snapshot's lease expires,
// its pin is released (the GC horizon moves), and later use answers
// ErrSnapshotGone. The expiry is visible in the server counters.
func TestRemoteSnapshotLeaseExpiry(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{SnapshotLease: 50 * time.Millisecond})
	c := dial(t, addr)
	seedRain(t, c, 3, 1)

	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pins := k.Objects.MVCC().Pins; pins != 1 {
		t.Fatalf("pins after snapshot = %d, want 1", pins)
	}
	deadline := time.Now().Add(5 * time.Second)
	for k.Objects.MVCC().Pins != 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired: pin still held")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := snap.Get(1); !errors.Is(err, gaea.ErrSnapshotGone) {
		t.Fatalf("expired snapshot answered %v, want ErrSnapshotGone", err)
	}
	ex, err := c.Observe()
	if err != nil {
		t.Fatal(err)
	}
	stats := gaea.ServerStatsOf(ex.Stats.Metrics)
	if stats.LeaseExpiries < 1 {
		t.Fatalf("lease expiries = %d, want >= 1", stats.LeaseExpiries)
	}
	if stats.ActiveLeases != 0 {
		t.Fatalf("active leases = %d, want 0", stats.ActiveLeases)
	}
}

// TestRemoteStats: the stats line combines kernel and server counters,
// and the CLI-visible string mentions both.
func TestRemoteStats(t *testing.T) {
	k := openKernel(t)
	srv, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)
	seedRain(t, c, 2, 1)
	line, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"objects=2", "mvcc[", "wal[", "server[conns=1", "lease_expiries=0"} {
		if !strings.Contains(line, want) {
			t.Fatalf("stats line %q missing %q", line, want)
		}
	}
	if got := srv.Stats().OpenConns; got != 1 {
		t.Fatalf("server stats conns = %d, want 1", got)
	}
}

// settleServer waits until srv has finished every request. A server
// counts a request out (and releases its pin) after queueing its last
// response, so its client can be a step ahead of it.
func settleServer(srv *gaea.Server) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if s := srv.Stats(); s.InFlight == 0 && s.ActiveStreams == 0 {
			return
		}
	}
}

// TestRemoteStatsGoldenLine pins the remote stats line byte for byte on
// a fresh served kernel at a fixed state: the kernel's golden line, then
// the server[...] block. The stats request itself is the one in flight.
// Server.Stats must then equal the server_* gauges of the export.
func TestRemoteStatsGoldenLine(t *testing.T) {
	k := openKernel(t)
	srv, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)
	// Settling between requests keeps any two from overlapping, and the
	// stats request the only one the line sees.
	settle := func() { settleServer(srv) }
	settle() // the handshake
	s := c.Begin(ctx)
	settle()
	for i := 0; i < 2; i++ {
		if _, err := s.Create(rainObject(1, float64(i)*20), "seed"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	settle()
	st, err := c.QueryStream(ctx, rainPred())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drainAll(t, st)); n != 2 {
		t.Fatalf("streamed %d objects, want 2", n)
	}
	settle()
	line, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	const want = "classes=1 processes=0 concepts=0 experiments=0 objects=2 tasks=1 " +
		"deriv[deps=0 stale=0 epoch=0 sweeps=0 invalidated=0 refreshed=0 dropped=0 policy=lazy] " +
		"mvcc[epoch=2 versions=2 reclaimed=0 pins=0 oldest_pin=0] wal[bytes=388 checkpoints=0] " +
		"server[conns=1 sessions=0 streams=0 leases=0 lease_expiries=0 inflight=1 max_inflight_conn=1 pushed_pages=1 bytes_avoided=216]"
	if line != want {
		t.Fatalf("remote stats line drifted from the golden line:\ngot  %q\nwant %q", line, want)
	}

	// The server's counters are its registry's server_* gauges, so the
	// export a client observes and Server.Stats agree. The export counts
	// the observe request itself in flight.
	settle()
	ex, err := c.Observe()
	if err != nil {
		t.Fatal(err)
	}
	remote := gaea.ServerStatsOf(ex.Stats.Metrics)
	if remote.InFlight != 1 {
		t.Fatalf("export in-flight = %d, want 1 (the observe request)", remote.InFlight)
	}
	remote.InFlight = 0
	settle()
	if local := srv.Stats(); local != remote {
		t.Fatalf("Server.Stats() = %+v, export's server_* gauges = %+v", local, remote)
	}
}

// TestRemoteConnLimit: over MaxConns, new connections are refused with
// ErrUnavailable saying why — on the wire, the magic echo and a
// connection-level (request ID 0) response carrying the limit text —
// and existing ones keep working.
func TestRemoteConnLimit(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{MaxConns: 1})
	c := dial(t, addr)
	if _, err := Dial(addr, Options{User: "second"}); !errors.Is(err, ErrUnavailable) ||
		!strings.Contains(err.Error(), "connection limit") {
		t.Fatalf("over-limit dial: %v, want ErrUnavailable naming the connection limit", err)
	}

	raw, err := net.DialTimeout("unix", strings.TrimPrefix(addr, "unix://"), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	var magic [len(wire.V2Magic)]byte
	if _, err := io.ReadFull(raw, magic[:]); err != nil || string(magic[:]) != wire.V2Magic {
		t.Fatalf("refusal opened with %q, %v; want the magic echo", magic, err)
	}
	ft, id, body, err := wire.NewFrameReader(raw, 0).Next()
	if err != nil || ft != wire.F2Resp || id != 0 {
		t.Fatalf("refusal frame type %d id %d, %v; want a connection-level Resp", ft, id, err)
	}
	resp, err := wire.DecodeResponse(body)
	if err != nil || resp.Code != wire.CodeUnavailable || !strings.Contains(resp.Err, "connection limit") {
		t.Fatalf("refusal %+v, %v; want unavailable with the connection-limit text", resp, err)
	}

	if _, err := c.Stats(); err != nil {
		t.Fatalf("surviving conn broken: %v", err)
	}
}

// TestRoundTripContextCancel: a context deadline interrupts an
// in-flight round trip against a stalled server instead of hanging, and
// the abandoned request is cancelled server-side with a Cancel frame
// under its own request ID (the connection itself is not poisoned: the
// multiplexing tests show it keeps serving).
func TestRoundTripContextCancel(t *testing.T) {
	path := sockPath(t)
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cancelled := make(chan error, 1)
	go func() {
		cancelled <- stallOneRequest(l)
	}()
	c, err := Dial("unix://"+path, Options{User: "stalled"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Query(cctx, rainPred())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled query: %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	select {
	case err := <-cancelled:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the abandoned request was never cancelled server-side")
	}
}

// stallOneRequest plays a server that completes the handshake, swallows
// one request, and answers nil once the client cancels that request.
func stallOneRequest(l net.Listener) error {
	conn, err := l.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	var magic [len(wire.V2Magic)]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return err
	}
	fr := wire.NewFrameReader(conn, 0)
	if _, _, _, err := fr.Next(); err != nil { // the Hello
		return err
	}
	f := wire.AcquireFrame(wire.F2HelloAck, 0)
	wire.EncodeHello(f, &wire.Hello2{Version: wire.V2Version})
	b, err := f.Finish()
	if err == nil {
		_, err = conn.Write(append([]byte(wire.V2Magic), b...))
	}
	wire.ReleaseFrame(f)
	if err != nil {
		return err
	}
	ft, reqID, _, err := fr.Next()
	if err != nil || ft != wire.F2Req {
		return fmt.Errorf("expected a request, got frame %d: %v", ft, err)
	}
	ft, id, _, err := fr.Next()
	if err != nil || ft != wire.F2Cancel || id != reqID {
		return fmt.Errorf("after request %d: frame %d for id %d, %v; want its Cancel", reqID, ft, id, err)
	}
	return nil
}

// TestMidStreamServerShutdown: a graceful shutdown between pages
// surfaces as an error on the next pull, never a hang, and in-flight
// requests drain first.
func TestMidStreamServerShutdown(t *testing.T) {
	k := openKernel(t)
	srv, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)
	seedRain(t, c, 20, 1)

	req := rainPred()
	st, err := c.QueryStream(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Small client page so the stream needs several round trips.
	c.opts.PageSize = 4
	got, wantErr := 0, false
	for _, err := range st.All() {
		if err != nil {
			wantErr = true
			break
		}
		got++
		if got == 4 {
			// Between pages: shut the server down.
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := srv.Shutdown(sctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			cancel()
		}
	}
	if !wantErr {
		t.Fatalf("stream survived server shutdown (saw %d objects)", got)
	}
	// The kernel is untouched by server shutdown: embedded reads work.
	res, err := Embed(k).Query(ctx, rainPred())
	if err != nil || len(res.OIDs) != 20 {
		t.Fatalf("kernel after shutdown: %v, %d objects", err, len(res.OIDs))
	}
	if pins := k.Objects.MVCC().Pins; pins != 0 {
		t.Fatalf("pins after shutdown = %d, want 0 (leases not released)", pins)
	}
}

// TestMVCCRemoteConcurrentSessions hammers the server with parallel
// remote sessions — disjoint creates plus deliberately conflicting
// updates — and checks the commit arithmetic: every batch lands
// entirely or not at all, and exactly one of each conflicting pair
// wins. Runs under -race -cpu 1,4 in CI (TestMVCC prefix).
func TestMVCCRemoteConcurrentSessions(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	seedConn := dial(t, addr)
	shared := seedRain(t, seedConn, 1, 0)[0]

	const workers = 4
	const rounds = 8
	const perBatch = 5
	var wg sync.WaitGroup
	conflicts := make([]int, workers)
	commits := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr, Options{User: fmt.Sprintf("w%d", w)})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				s := c.Begin(ctx)
				for i := 0; i < perBatch; i++ {
					if _, err := s.Create(rainObject(float64(r), float64(1000+w*100+r*10+i)), "w"); err != nil {
						t.Error(err)
						return
					}
				}
				// Everyone also bumps the shared object: first committer wins.
				u := rainObject(float64(w*rounds+r), 0)
				u.OID = shared
				if err := s.Update(u); err != nil {
					t.Error(err)
					return
				}
				err := s.Commit()
				switch {
				case err == nil:
					commits[w]++
				case errors.Is(err, gaea.ErrConflict):
					conflicts[w]++
				default:
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	totalCommits, totalConflicts := 0, 0
	for w := 0; w < workers; w++ {
		totalCommits += commits[w]
		totalConflicts += conflicts[w]
	}
	if totalCommits+totalConflicts != workers*rounds {
		t.Fatalf("commits %d + conflicts %d != %d attempts", totalCommits, totalConflicts, workers*rounds)
	}
	if totalCommits == 0 {
		t.Fatal("every session conflicted")
	}
	res, err := seedConn.Query(ctx, rainPred())
	if err != nil {
		t.Fatal(err)
	}
	// Atomicity: each committed batch contributes exactly perBatch
	// creates; conflicted batches contribute none. Plus the seed object.
	want := 1 + totalCommits*perBatch
	if len(res.OIDs) != want {
		t.Fatalf("stored objects = %d, want %d (batches must be all-or-nothing)", len(res.OIDs), want)
	}
}

// TestMVCCRemoteStreamsUnderWriters: remote readers drain paginated
// streams while remote writers commit whole-class updates; every drain
// must see one consistent generation (the remote restatement of the C4
// bench invariant). TestMVCC prefix: runs under -race -cpu 1,4.
func TestMVCCRemoteStreamsUnderWriters(t *testing.T) {
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	seedConn := dial(t, addr)
	const nObj = 24
	oids := seedRain(t, seedConn, nObj, 0)

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c, err := Dial(addr, Options{User: "writer"})
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		gen := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen++
			s := c.Begin(ctx)
			ok := true
			for i, oid := range oids {
				u := rainObject(gen, float64(i)*20)
				u.OID = oid
				if err := s.Update(u); err != nil {
					ok = false
					break
				}
			}
			if ok {
				_ = s.Commit() // conflicts with nobody; ignore transient errors
			} else {
				_ = s.Rollback()
			}
		}
	}()

	const readers = 3
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			c, err := Dial(addr, Options{User: fmt.Sprintf("r%d", r), PageSize: 7})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for drain := 0; drain < 6; drain++ {
				st, err := c.QueryStream(ctx, rainPred())
				if err != nil {
					t.Error(err)
					return
				}
				gen := -1.0
				n := 0
				for o, err := range st.All() {
					if err != nil {
						t.Error(err)
						return
					}
					mm := float64(o.Attrs["mm"].(value.Float))
					if gen < 0 {
						gen = mm
					} else if mm != gen {
						t.Errorf("drain straddled a commit: %v after %v", mm, gen)
						return
					}
					n++
				}
				if n != nObj {
					t.Errorf("drain saw %d objects, want %d", n, nObj)
					return
				}
			}
		}(r)
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}

// TestBackendParity runs one workload — batched ingest, query, paged
// stream with resume, snapshot reads, staleness listing, explain, and a
// request only a derivation answers — against the embedded kernel and a
// served endpoint, asserting the results agree. This is the acceptance criterion that client.Kernel
// code cannot tell the backends apart.
func TestBackendParity(t *testing.T) {
	type outcome struct {
		queried   int
		streamed  int
		pages     int
		snapCount int
		stale     int
		explain   bool
	}
	run := func(t *testing.T, b Kernel) outcome {
		t.Helper()
		var out outcome
		oids := seedRain(t, b, 17, 1)

		res, err := b.Query(ctx, rainPred())
		if err != nil {
			t.Fatal(err)
		}
		out.queried = len(res.OIDs)

		// Page through a limited stream via cursor resume.
		cursor := ""
		for {
			req := rainPred()
			req.Limit = 5
			req.Cursor = cursor
			st, err := b.QueryStream(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, err := range st.All() {
				if err != nil {
					t.Fatal(err)
				}
				n++
				out.streamed++
			}
			out.pages++
			cursor = st.Cursor()
			if cursor == "" {
				break
			}
			if n == 0 {
				t.Fatal("empty page with a live cursor")
			}
		}

		snap, err := b.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Release()
		s := b.Begin(ctx)
		if err := s.Delete(oids[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		sres, err := snap.Query(ctx, rainPred())
		if err != nil {
			t.Fatal(err)
		}
		out.snapCount = len(sres.OIDs)
		out.stale = len(b.Stale())
		out.explain = strings.Contains(b.Explain(oids[1]), "data_load")
		return out
	}

	embeddedOut := run(t, Embed(openKernel(t)))
	k := openKernel(t)
	_, addr := startServer(t, k, gaea.ServeOptions{})
	remoteOut := run(t, dial(t, addr))
	if embeddedOut != remoteOut {
		t.Fatalf("backends disagree:\nembedded: %+v\nremote:   %+v", embeddedOut, remoteOut)
	}
	want := outcome{queried: 17, streamed: 17, pages: 4, snapCount: 17, stale: 0, explain: true}
	if embeddedOut != want {
		t.Fatalf("workload outcome %+v, want %+v", embeddedOut, want)
	}

	// A request whose retrieval is empty and that a derivation answers:
	// refused by a snapshot query (a pinned reader must not derive),
	// derived by Query, and derived again by QueryStream once the first
	// answer is deleted, ending with no resume cursor.
	type fallback struct {
		snapErr  error
		queried  int
		how      gaea.Strategy
		streamed int
		cursor   string
	}
	derive := func(t *testing.T, b Kernel) fallback {
		t.Helper()
		var out fallback
		snap, err := b.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		_, err = snap.Query(ctx, landcoverReq())
		snap.Release()
		for _, class := range []error{gaea.ErrNoPlan, gaea.ErrClassUnknown, gaea.ErrNotFound} {
			if errors.Is(err, class) {
				out.snapErr = class
				break
			}
		}
		if out.snapErr == nil {
			t.Fatalf("snapshot query of a derivable request: %v, want a classified error", err)
		}
		res, err := b.Query(ctx, landcoverReq())
		if err != nil {
			t.Fatal(err)
		}
		out.queried, out.how = len(res.OIDs), res.How[0]
		s := b.Begin(ctx)
		if err := s.Delete(res.OIDs[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		st, err := b.QueryStream(ctx, landcoverReq())
		if err != nil {
			t.Fatal(err)
		}
		out.streamed = len(drainAll(t, st))
		out.cursor = st.Cursor()
		return out
	}
	embeddedFB := derive(t, Embed(openLandKernel(t)))
	_, landAddr := startServer(t, openLandKernel(t), gaea.ServeOptions{})
	remoteFB := derive(t, dial(t, landAddr))
	if embeddedFB != remoteFB {
		t.Fatalf("backends disagree on a derived answer:\nembedded: %+v\nremote:   %+v", embeddedFB, remoteFB)
	}
	if wantFB := (fallback{snapErr: gaea.ErrNoPlan, queried: 1, how: gaea.Derive, streamed: 1}); embeddedFB != wantFB {
		t.Fatalf("derived outcome %+v, want %+v", embeddedFB, wantFB)
	}
}

// TestTwoServersOneKernel: each server over one kernel reports its own
// counters, and the kernel's export totals those of the servers not yet
// shut down — first with one server after the other, then with two at
// once.
func TestTwoServersOneKernel(t *testing.T) {
	k := openKernel(t)
	exported := func() gaea.ServerStats { return gaea.ServerStatsOf(k.Observe().Stats.Metrics) }
	shutdown := func(srv *gaea.Server) {
		t.Helper()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}

	first, addr := startServer(t, k, gaea.ServeOptions{})
	c := dial(t, addr)
	seedRain(t, c, 2, 1)
	st, err := c.QueryStream(ctx, rainPred())
	if err != nil {
		t.Fatal(err)
	}
	drainAll(t, st)
	settleServer(first)
	if s := first.Stats(); s.OpenConns != 1 || s.PushedPages != 1 {
		t.Fatalf("first server: %+v, want 1 connection and 1 pushed page", s)
	}
	if s, e := first.Stats(), exported(); s != e {
		t.Fatalf("one server: Stats() = %+v, export = %+v", s, e)
	}
	shutdown(first)
	if s := first.Stats(); s.OpenConns != 0 || s.PushedPages != 1 {
		t.Fatalf("first server after shutdown: %+v, want no connection and its 1 pushed page", s)
	}
	if e := exported(); e != (gaea.ServerStats{}) {
		t.Fatalf("export with no server up: %+v, want zeros", e)
	}

	second, addr := startServer(t, k, gaea.ServeOptions{})
	dial(t, addr)
	settleServer(second)
	if s := second.Stats(); s.OpenConns != 1 || s.PushedPages != 0 {
		t.Fatalf("second server: %+v, want 1 connection and no pushed page", s)
	}
	if s, e := second.Stats(), exported(); s != e {
		t.Fatalf("second server alone: Stats() = %+v, export = %+v", s, e)
	}

	third, addr := startServer(t, k, gaea.ServeOptions{})
	dial(t, addr)
	dial(t, addr)
	settleServer(third)
	if s := second.Stats(); s.OpenConns != 1 {
		t.Fatalf("second server beside a third: %+v, want its 1 connection", s)
	}
	if s := third.Stats(); s.OpenConns != 2 {
		t.Fatalf("third server: %+v, want 2 connections", s)
	}
	if e := exported(); e.OpenConns != 3 {
		t.Fatalf("export of two servers: %+v, want 3 connections", e)
	}
	shutdown(third)
	if s, e := second.Stats(), exported(); s != e {
		t.Fatalf("second server after the third's shutdown: Stats() = %+v, export = %+v", s, e)
	}
}
