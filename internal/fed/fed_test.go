package fed

// Federation tests over real shard kernels served on unix sockets:
// OID tagging, scatter-gather query merge, vector-cursor stream resume
// across routers under a concurrent writer and GC, two-phase commit
// atomicity across shard and coordinator crashes (decision-log replay
// against durable prepares), presumed abort, heuristic outcomes, and
// the served-federation compatibility path (an unmodified client
// against a one-shard federation).
//
// Everything shares the TestFed name prefix so the CI race shard can
// re-run the lot under -race -cpu 1,4.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gaea"
	"gaea/client"
	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/query"
	"gaea/internal/server"
	"gaea/internal/sptemp"
	"gaea/internal/value"
	"gaea/internal/wire"
)

var tctx = context.Background()

func rainObj(mm float64, x float64) *object.Object {
	return &object.Object{
		Class:  "rain",
		Attrs:  map[string]value.Value{"mm": value.Float(mm)},
		Extent: sptemp.TimelessExtent(sptemp.DefaultFrame, sptemp.NewBox(x, 0, x+10, 10)),
	}
}

func rainReq() gaea.Request {
	return gaea.Request{Class: "rain", Pred: sptemp.Extent{Frame: sptemp.DefaultFrame, Space: sptemp.EmptyBox()}}
}

// sockPath returns a short unix socket path (sun_path is ~108 bytes).
func sockPath(t testing.TB) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "gaea-fed-*")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return filepath.Join(dir, "s")
}

// testShard is one shard kernel + server that tests can stop and
// restart (a restart from the same data dir is the "shard crash"
// simulation: in-memory prepare locks are gone, the prepare sidecars
// and WAL survive).
type testShard struct {
	t    testing.TB
	dir  string
	opts gaea.ServeOptions
	sync bool // fsync the WAL on commit; false opens the kernel NoSync

	k       *gaea.Kernel
	srv     *gaea.Server
	done    chan error
	addr    string
	stopped bool
}

func newShard(t testing.TB, opts gaea.ServeOptions) *testShard {
	t.Helper()
	return startShard(&testShard{t: t, dir: t.TempDir(), opts: opts})
}

// startShard starts a shard built by the caller and stops it at cleanup.
func startShard(s *testShard) *testShard {
	t := s.t
	t.Helper()
	s.start(true)
	t.Cleanup(func() {
		if !s.stopped {
			s.stop()
		}
	})
	return s
}

func (s *testShard) start(fresh bool) {
	s.t.Helper()
	k, err := gaea.Open(s.dir, gaea.Options{NoSync: !s.sync, User: "shard"})
	if err != nil {
		s.t.Fatal(err)
	}
	if fresh {
		if err := k.DefineClass(&catalog.Class{
			Name: "rain", Kind: catalog.KindBase,
			Attrs: []catalog.Attr{{Name: "mm", Type: value.TypeFloat}},
			Frame: sptemp.DefaultFrame, HasSpatial: true,
		}); err != nil {
			s.t.Fatal(err)
		}
	}
	sock := sockPath(s.t)
	l, err := net.Listen("unix", sock)
	if err != nil {
		s.t.Fatal(err)
	}
	s.k = k
	s.srv = k.NewServer(s.opts)
	s.done = make(chan error, 1)
	srv := s.srv
	done := s.done
	go func() { done <- srv.Serve(l) }()
	s.addr = "unix://" + sock
	s.stopped = false
}

func (s *testShard) stop() {
	s.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	if err := <-s.done; err != nil {
		s.t.Errorf("serve: %v", err)
	}
	_ = s.k.Close()
	s.stopped = true
}

// restart bounces the shard: same data dir (and prepare dir), new
// socket.
func (s *testShard) restart() {
	s.t.Helper()
	if !s.stopped {
		s.stop()
	}
	s.start(false)
}

func addrsOf(shards ...*testShard) []string {
	out := make([]string, len(shards))
	for i, s := range shards {
		out[i] = s.addr
	}
	return out
}

func openFed(t testing.TB, opts Options, shards ...*testShard) *Router {
	t.Helper()
	if opts.Client.User == "" {
		opts.Client.User = "fed-test"
	}
	r, err := Open(addrsOf(shards...), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// seedFed commits n rain objects through any Kernel-shaped backend and
// returns the stored OIDs.
func seedFed(t testing.TB, k client.Kernel, n int, mm float64) []object.OID {
	t.Helper()
	s := k.Begin(tctx)
	staged := make([]object.OID, n)
	for i := range staged {
		oid, err := s.Create(rainObj(mm, float64(i)*20), "seed")
		if err != nil {
			t.Fatal(err)
		}
		staged[i] = oid
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	out := make([]object.OID, n)
	for i, p := range staged {
		real, ok := s.Committed(p)
		if !ok {
			t.Fatalf("no committed OID for staged %d", p)
		}
		out[i] = real
	}
	return out
}

// drainN consumes up to n objects (0 = all), asserting no stream error.
func drainN(t testing.TB, st client.Stream, n int) []*object.Object {
	t.Helper()
	var out []*object.Object
	for o, err := range st.All() {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o)
		if n > 0 && len(out) == n {
			break
		}
	}
	return out
}

func countRows(t *testing.T, k client.Kernel) int {
	t.Helper()
	res, err := k.Query(tctx, rainReq())
	if errors.Is(err, gaea.ErrNoPlan) {
		return 0 // a class with no stored objects has no derivation plan
	}
	if err != nil {
		t.Fatal(err)
	}
	return len(res.OIDs)
}

func TestFedOIDTag(t *testing.T) {
	for _, shard := range []int{0, 1, 77, shardMax} {
		for _, oid := range []uint64{1, 500, rawOIDMask, wire.ProvisionalBit | 42} {
			tagged := tagOID(shard, oid)
			gotShard, gotDown := splitOID(tagged)
			if gotShard != shard || gotDown != oid&(wire.ProvisionalBit|rawOIDMask) {
				t.Fatalf("tag/split(%d, %#x) = (%d, %#x)", shard, oid, gotShard, gotDown)
			}
			if oid&wire.ProvisionalBit != tagged&wire.ProvisionalBit {
				t.Fatalf("provisional bit lost: %#x -> %#x", oid, tagged)
			}
		}
	}
	if tagOID(0, 99) != 99 {
		t.Fatal("shard 0 tag must be the identity")
	}
}

// TestFedCutCursorBudgetMessage: a page cut on a stream with no resume
// cursor is refused with an error naming the budget it overflowed.
func TestFedCutCursorBudgetMessage(t *testing.T) {
	cut := &object.Object{OID: object.OID(tagOID(1, 7)), Class: "rain"}
	_, err := patchCutCursor("", "", cut, map[int]shipPos{}, 4096)
	if !errors.Is(err, query.ErrBadRequest) || !strings.Contains(err.Error(), "page byte budget 4096 exceeded") {
		t.Fatalf("cut without a cursor: %v, want a bad-request naming the 4096-byte budget", err)
	}
}

func TestFedOwners(t *testing.T) {
	r := &Router{
		conns: make([]*client.Conn, 4),
		opts:  Options{Map: map[string][]int{"image": {2}, "grid": {0, 3}}},
	}
	if own := r.owners("image"); len(own) != 1 || own[0] != 2 {
		t.Fatalf("mapped class: %v", own)
	}
	if own := r.owners("grid"); len(own) != 2 || own[0] != 0 || own[1] != 3 {
		t.Fatalf("striped class: %v", own)
	}
	first := r.owners("unmapped")
	if len(first) != 1 || first[0] < 0 || first[0] >= 4 {
		t.Fatalf("hash fallback out of bounds: %v", first)
	}
	for range 10 {
		if again := r.owners("unmapped"); again[0] != first[0] {
			t.Fatal("hash fallback must be deterministic")
		}
	}
}

func TestFedDecisionLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions")
	l, err := openDecisionLog(path)
	if err != nil {
		t.Fatal(err)
	}
	token, err := l.mint()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.commit(token, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	l.ack(token, 0)
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	// Replay: shard 1 still owes its ack.
	l2, err := openDecisionLog(path)
	if err != nil {
		t.Fatal(err)
	}
	und := l2.undelivered()
	if len(und) != 1 || und[0].token != token || len(und[0].shards) != 1 || und[0].shards[0] != 1 {
		t.Fatalf("undelivered after replay: %+v", und)
	}
	token2, err := l2.mint()
	if err != nil {
		t.Fatal(err)
	}
	if token2&rawOIDMask <= token&rawOIDMask {
		t.Fatalf("sequence did not advance across reopen: %d then %d", token, token2)
	}
	l2.heuristic(token, 1)
	if l2.pendingCount() != 0 || l2.heuristicCount() != 1 {
		t.Fatalf("settle: pending=%d heuristics=%d", l2.pendingCount(), l2.heuristicCount())
	}
	if err := l2.close(); err != nil {
		t.Fatal(err)
	}

	l3, err := openDecisionLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.close()
	if n := l3.pendingCount(); n != 0 {
		t.Fatalf("pending after full settle: %d", n)
	}
	if n := l3.heuristicCount(); n != 1 {
		t.Fatalf("heuristics after replay: %d", n)
	}
}

func TestFedScatterGather(t *testing.T) {
	a, b := newShard(t, gaea.ServeOptions{}), newShard(t, gaea.ServeOptions{})
	r := openFed(t, Options{Map: map[string][]int{"rain": {0, 1}}}, a, b)

	oids := seedFed(t, r, 20, 1.0) // striped creates: a cross-shard 2PC commit
	if n := countRows(t, r); n != 20 {
		t.Fatalf("merged query: %d rows", n)
	}
	byShard := map[int]int{}
	seen := map[object.OID]bool{}
	for _, oid := range oids {
		shard, _ := splitOID(uint64(oid))
		byShard[shard]++
		if seen[oid] {
			t.Fatalf("duplicate OID %d", oid)
		}
		seen[oid] = true
	}
	if byShard[0] == 0 || byShard[1] == 0 {
		t.Fatalf("striped creates did not spread: %v", byShard)
	}

	// Point reads and mutations route by the OID's shard tag.
	sn, err := r.Snapshot(tctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sn.Get(oids[3])
	if err != nil {
		t.Fatal(err)
	}
	if got.OID != oids[3] || got.Class != "rain" {
		t.Fatalf("snapshot get: %+v", got)
	}
	sn.Release()

	got.Attrs["mm"] = value.Float(7.5)
	s := r.Begin(tctx)
	if err := s.Update(got); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(oids[4]); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, r); n != 19 {
		t.Fatalf("after delete: %d rows", n)
	}
	// Each shard recorded one load task for its stripe of the session;
	// every surviving object explains through its own shard's.
	for i, oid := range oids {
		if i == 4 {
			continue // deleted above
		}
		if ex := r.Explain(oid); !strings.Contains(ex, "(rain) <- ") || !strings.Contains(ex, "data_load") {
			t.Fatalf("explain(%d): %q", oid, ex)
		}
	}
	st, err := r.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st, "federation: 2 shards") || !strings.Contains(st, "shard 1") {
		t.Fatalf("stats: %q", st)
	}
}

func TestFedStreamVectorCursorResume(t *testing.T) {
	a, b := newShard(t, gaea.ServeOptions{}), newShard(t, gaea.ServeOptions{})
	r := openFed(t, Options{Map: map[string][]int{"rain": {0, 1}}}, a, b)
	oids := seedFed(t, r, 40, 1.0)

	st, err := r.QueryStream(tctx, rainReq())
	if err != nil {
		t.Fatal(err)
	}
	part1 := drainN(t, st, 15)
	cursor := st.Cursor()
	if cursor == "" {
		t.Fatal("mid-merge stop must yield a resume cursor")
	}
	if !wire.IsVectorCursor(cursor) {
		t.Fatalf("expected a vector cursor, got %q", cursor)
	}

	// A concurrent writer moves the grid past the stream's epochs, and
	// GC runs on every shard; the pinned cursor leases must keep the
	// stream's snapshots alive and exact.
	seen := map[object.OID]bool{}
	for _, o := range part1 {
		seen[o.OID] = true
	}
	w := r.Begin(tctx)
	touched := 0
	for _, oid := range oids {
		if seen[oid] || touched >= 5 {
			continue
		}
		sn, err := r.Snapshot(tctx)
		if err != nil {
			t.Fatal(err)
		}
		o, err := sn.Get(oid)
		sn.Release()
		if err != nil {
			t.Fatal(err)
		}
		o.Attrs["mm"] = value.Float(99.0)
		if err := w.Update(o); err != nil {
			t.Fatal(err)
		}
		touched++
	}
	if _, err := w.Create(rainObj(50, 2000), "late"); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.k.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.k.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Resume on a DIFFERENT router — the cursor is the whole state.
	r2 := openFed(t, Options{Map: map[string][]int{"rain": {0, 1}}}, a, b)
	st2, err := r2.QueryStream(tctx, gaea.Request{
		Class: "rain", Pred: rainReq().Pred, Cursor: cursor,
	})
	if err != nil {
		t.Fatal(err)
	}
	part2 := drainN(t, st2, 0)
	if cur := st2.Cursor(); cur != "" {
		t.Fatalf("drained stream still has cursor %q", cur)
	}

	if len(part1)+len(part2) != len(oids) {
		t.Fatalf("resume lost or duplicated rows: %d + %d != %d", len(part1), len(part2), len(oids))
	}
	for _, o := range part2 {
		if seen[o.OID] {
			t.Fatalf("object %d streamed twice across the resume", o.OID)
		}
		seen[o.OID] = true
		// Snapshot isolation: the writer's new values and new object
		// must be invisible to the resumed stream.
		if mm := float64(o.Attrs["mm"].(value.Float)); mm != 1.0 {
			t.Fatalf("resumed stream saw post-cursor write: mm=%v on %d", mm, o.OID)
		}
	}
	for _, oid := range oids {
		if !seen[oid] {
			t.Fatalf("object %d missing from the merged stream", oid)
		}
	}
}

// prepTwoShards stages one single-create batch per shard and prepares
// both under one freshly minted token, returning the token.
func prepTwoShards(t *testing.T, r *Router) uint64 {
	t.Helper()
	token, err := r.log.mint()
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 2; shard++ {
		resp, err := r.conns[shard].RoundTrip(tctx, &wire.Request{Op: wire.OpBegin})
		if err != nil {
			t.Fatal(err)
		}
		w, err := wire.FromObject(rainObj(3.0, float64(shard)*40))
		if err != nil {
			t.Fatal(err)
		}
		prov := wire.ProvisionalBit | 1
		w.OID = prov
		batch := &wire.BatchReq{
			Creates:   []wire.Create{{Prov: prov, Obj: w, Note: "2pc"}},
			ReadEpoch: resp.Epoch,
		}
		if _, err := r.conns[shard].RoundTrip(tctx, &wire.Request{Op: wire.OpPrepare, Lease: token, Batch: batch}); err != nil {
			t.Fatalf("prepare shard %d: %v", shard, err)
		}
	}
	return token
}

func TestFedTwoPhaseCrashRecovery(t *testing.T) {
	prepA, prepB := t.TempDir(), t.TempDir()
	a := newShard(t, gaea.ServeOptions{PrepareDir: prepA})
	b := newShard(t, gaea.ServeOptions{PrepareDir: prepB})
	logPath := filepath.Join(t.TempDir(), "decisions")

	r1, err := Open(addrsOf(a, b), Options{DecisionLog: logPath, Client: client.Options{User: "coord"}})
	if err != nil {
		t.Fatal(err)
	}
	token := prepTwoShards(t, r1)
	// The commit point: decision durable, decide fan-out NOT sent.
	if err := r1.log.commit(token, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	r1.Close() // coordinator "crash" after the commit point

	// Shard B crashes between prepare and decide. Its durable vote
	// must survive the restart; its in-memory locks do not.
	b.restart()

	// Nothing may be visible anywhere yet: prepared is not committed.
	for i, s := range []*testShard{a, b} {
		c, err := client.Dial(s.addr, client.Options{User: "check"})
		if err != nil {
			t.Fatal(err)
		}
		if n := countRows(t, c); n != 0 {
			t.Fatalf("shard %d shows %d rows before the decision was delivered", i, n)
		}
		c.Close()
	}

	// Recovery: a new coordinator over the same decision log replays
	// the decide fan-out; both shards commit.
	r2 := openFed(t, Options{DecisionLog: logPath, Map: map[string][]int{"rain": {0, 1}}}, a, b)
	if n := r2.log.pendingCount(); n != 0 {
		t.Fatalf("decisions still pending after replay: %d", n)
	}
	if n := r2.log.heuristicCount(); n != 0 {
		t.Fatalf("heuristic outcomes on a clean recovery: %d", n)
	}
	if n := countRows(t, r2); n != 2 {
		t.Fatalf("after recovery: %d rows, want 2 (one per shard, nothing partial)", n)
	}
	for i, s := range []*testShard{a, b} {
		c, err := client.Dial(s.addr, client.Options{User: "check"})
		if err != nil {
			t.Fatal(err)
		}
		if n := countRows(t, c); n != 1 {
			t.Fatalf("shard %d has %d rows after recovery, want exactly 1", i, n)
		}
		c.Close()
	}
}

func TestFedTwoPhasePresumedAbort(t *testing.T) {
	// Short lease TTL: prepared votes a vanished coordinator never
	// decides are presumed aborted by the shard janitor.
	opts := gaea.ServeOptions{SnapshotLease: 200 * time.Millisecond, PrepareDir: t.TempDir()}
	a, b := newShard(t, opts), newShard(t, gaea.ServeOptions{SnapshotLease: 200 * time.Millisecond, PrepareDir: t.TempDir()})
	r := openFed(t, Options{}, a, b)

	token := prepTwoShards(t, r)
	// The coordinator goes silent. Wait well past the 200ms prepare TTL
	// (the shard janitor runs every TTL/4), then probe with a late
	// commit decision: an expired vote answers not-found — the signal
	// the coordinator classifies as a heuristic outcome. The probe is
	// destructive (it would commit a live vote), so it cannot poll.
	time.Sleep(1500 * time.Millisecond)
	for shard := 0; shard < 2; shard++ {
		_, err := r.conns[shard].RoundTrip(tctx, &wire.Request{Op: wire.OpDecide, Lease: token, Epoch: 1})
		if err == nil {
			t.Fatalf("shard %d: decide(commit) succeeded; the prepare TTL never expired the vote", shard)
		}
		if !errors.Is(err, gaea.ErrNotFound) {
			t.Fatalf("shard %d: late decide: %v, want not-found", shard, err)
		}
	}
	if n := countRows(t, r); n != 0 {
		t.Fatalf("presumed abort left %d rows", n)
	}
}

func TestFedTwoPhaseHeuristic(t *testing.T) {
	// Shard B runs WITHOUT a prepare dir: its yes-vote dies with it.
	a := newShard(t, gaea.ServeOptions{PrepareDir: t.TempDir()})
	b := newShard(t, gaea.ServeOptions{})
	logPath := filepath.Join(t.TempDir(), "decisions")

	r1, err := Open(addrsOf(a, b), Options{DecisionLog: logPath, Client: client.Options{User: "coord"}})
	if err != nil {
		t.Fatal(err)
	}
	token := prepTwoShards(t, r1)
	if err := r1.log.commit(token, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	r1.Close()
	b.restart() // vote gone

	r2 := openFed(t, Options{DecisionLog: logPath, Map: map[string][]int{"rain": {0, 1}}}, a, b)
	if n := r2.log.pendingCount(); n != 0 {
		t.Fatalf("heuristic outcome left the decision pending: %d", n)
	}
	if n := r2.log.heuristicCount(); n != 1 {
		t.Fatalf("heuristic outcomes: %d, want 1", n)
	}
	if n := countRows(t, r2); n != 1 {
		t.Fatalf("rows after heuristic outcome: %d (shard A committed, shard B lost its vote)", n)
	}
	stats, err := r2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "1 heuristic") {
		t.Fatalf("stats must surface the heuristic outcome: %q", stats)
	}
}

func TestFedSingleShardFastPath(t *testing.T) {
	a := newShard(t, gaea.ServeOptions{})
	r := openFed(t, Options{}, a)
	if r.Shards() != 1 {
		t.Fatal("one shard expected")
	}
	seedFed(t, r, 5, 1.0)
	if got := r.twoPhase.Load(); got != 0 {
		t.Fatalf("single-shard commit ran 2PC %d times", got)
	}
	if got := r.commits.Load(); got != 1 {
		t.Fatalf("commits counter: %d", got)
	}
}

// serveFed exposes a router over the wire protocol, like `gaea fed`.
func serveFed(t *testing.T, r *Router) string {
	t.Helper()
	return serveBackend(t, NewBackend(r))
}

// serveBackend serves any Backend on a unix socket until cleanup.
func serveBackend(t *testing.T, b server.Backend) string {
	t.Helper()
	sock := sockPath(t)
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(b, server.Options{})
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
	return "unix://" + sock
}

// TestFedServedCompat runs an unmodified client against a ONE-shard
// federation served over the ordinary wire server — the compatibility
// bar: everything a plain kernel serves, the federation serves.
func TestFedServedCompat(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		shard := newShard(t, gaea.ServeOptions{})
		r := openFed(t, Options{}, shard)
		addr := serveFed(t, r)

		c, err := client.Dial(addr, client.Options{User: "compat"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })

		oids := seedFed(t, c, 12, 2.0)
		if n := countRows(t, c); n != 12 {
			t.Fatalf("query: %d rows", n)
		}

		// Stream with a mid-stream stop and resume on a NEW
		// connection (the client synthesises the cursor itself).
		st, err := c.QueryStream(tctx, rainReq())
		if err != nil {
			t.Fatal(err)
		}
		part1 := drainN(t, st, 5)
		cur := st.Cursor()
		if cur == "" {
			t.Fatal("stopped stream must be resumable")
		}
		c2, err := client.Dial(addr, client.Options{User: "compat"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c2.Close() })
		st2, err := c2.QueryStream(tctx, gaea.Request{Class: "rain", Pred: rainReq().Pred, Cursor: cur})
		if err != nil {
			t.Fatal(err)
		}
		part2 := drainN(t, st2, 0)
		if len(part1)+len(part2) != 12 {
			t.Fatalf("stream resume: %d + %d rows", len(part1), len(part2))
		}
		dup := map[object.OID]bool{}
		for _, o := range append(part1, part2...) {
			if dup[o.OID] {
				t.Fatalf("object %d streamed twice", o.OID)
			}
			dup[o.OID] = true
		}

		// Snapshot point reads.
		sn, err := c.Snapshot(tctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sn.Get(oids[0])
		if err != nil {
			t.Fatal(err)
		}
		if got.Class != "rain" {
			t.Fatalf("snapshot get: %+v", got)
		}
		sn.Release()

		// Mutations round-trip (update routes by OID, delete too).
		got.Attrs["mm"] = value.Float(4.5)
		s := c.Begin(tctx)
		if err := s.Update(got); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(oids[1]); err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := countRows(t, c); n != 11 {
			t.Fatalf("after delete: %d rows", n)
		}

		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(stats, "federation") {
			t.Fatalf("served stats must identify the federation: %q", stats)
		}
	})
}

// TestFedServedMultiShard drives a plain v2 client against a SERVED
// two-shard federation: remote commits split across shards (2PC behind
// the wire), merged queries and streams come back tagged.
func TestFedServedMultiShard(t *testing.T) {
	a, b := newShard(t, gaea.ServeOptions{}), newShard(t, gaea.ServeOptions{})
	r := openFed(t, Options{Map: map[string][]int{"rain": {0, 1}}}, a, b)
	addr := serveFed(t, r)

	c, err := client.Dial(addr, client.Options{User: "multi", PageSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	oids := seedFed(t, c, 30, 1.0)
	byShard := map[int]int{}
	for _, oid := range oids {
		shard, _ := splitOID(uint64(oid))
		byShard[shard]++
	}
	if byShard[0] == 0 || byShard[1] == 0 {
		t.Fatalf("served creates did not spread across shards: %v", byShard)
	}
	if r.twoPhase.Load() == 0 {
		t.Fatal("cross-shard served commit did not run 2PC")
	}
	if n := countRows(t, c); n != 30 {
		t.Fatalf("merged query over the wire: %d rows", n)
	}

	st, err := c.QueryStream(tctx, rainReq())
	if err != nil {
		t.Fatal(err)
	}
	objs := drainN(t, st, 0)
	if len(objs) != 30 {
		t.Fatalf("served merged stream: %d rows", len(objs))
	}
	seen := map[object.OID]bool{}
	for _, o := range objs {
		if seen[o.OID] {
			t.Fatalf("object %d streamed twice", o.OID)
		}
		seen[o.OID] = true
	}

	sn, err := c.Snapshot(tctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Release()
	for _, oid := range []object.OID{oids[0], oids[len(oids)-1]} {
		o, err := sn.Get(oid)
		if err != nil {
			t.Fatalf("snapshot get %d: %v", oid, err)
		}
		if o.OID != oid {
			t.Fatalf("snapshot get %d returned OID %d", oid, o.OID)
		}
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
