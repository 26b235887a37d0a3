package fed

import (
	"context"
	"errors"
	"strings"
	"testing"

	"gaea"
	"gaea/client"
	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/server"
)

// TestFedErrorTaxonomy runs the client's remote error cases through a
// served one-shard federation: each error a shard answers crosses the
// router with its meaning intact. Cross-shard outcomes the router
// mints itself (heuristic, undelivered decision) reach the client as
// internal, and a shard that is down as unavailable.
func TestFedErrorTaxonomy(t *testing.T) {
	shard := newShard(t, gaea.ServeOptions{})
	r := openFed(t, Options{StatsInterval: -1}, shard)
	addr := serveFed(t, r)
	dialFed := func() *client.Conn {
		c, err := client.Dial(addr, client.Options{User: "taxonomy"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c := dialFed()

	if _, err := c.Query(tctx, gaea.Request{Class: "nope", Pred: rainReq().Pred}); !errors.Is(err, gaea.ErrClassUnknown) {
		t.Fatalf("unknown class: %v, want ErrClassUnknown", err)
	}
	if _, err := c.Query(tctx, rainReq()); !errors.Is(err, gaea.ErrNoPlan) {
		t.Fatalf("empty base class: %v, want ErrNoPlan", err)
	}
	snap, err := c.Snapshot(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Get(9999); !errors.Is(err, gaea.ErrNotFound) {
		t.Fatalf("missing oid: %v, want ErrNotFound", err)
	}
	snap.Release()

	// First-committer-wins across two connections to the router.
	oids := seedFed(t, c, 1, 1.0)
	s1, s2 := c.Begin(tctx), dialFed().Begin(tctx)
	u1, u2 := rainObj(5, 0), rainObj(6, 0)
	u1.OID, u2.OID = oids[0], oids[0]
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

	// A malformed cursor is a bad request, reported with the router's text.
	st, err := c.QueryStream(tctx, gaea.Request{Class: "rain", Pred: rainReq().Pred, Cursor: "garbage"})
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
	if streamErr == nil || !strings.Contains(streamErr.Error(), "cursor") || !strings.Contains(streamErr.Error(), "(bad-request)") {
		t.Fatalf("malformed cursor: %v, want an untyped bad request naming the cursor", streamErr)
	}

	// A shard that is down answers unavailable through the router.
	shard.stop()
	if _, err := c.Query(tctx, rainReq()); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("shard down: %v, want ErrUnavailable", err)
	}
}

// TestFedErrorTaxonomyTwoPhase drives a served two-shard commit whose
// second shard fails the decide, and checks the client gets the
// router's own outcome as an internal error: ErrHeuristic when the
// shard lost its vote (it answers not-found), ErrDecideUnacked when it
// failed otherwise.
func TestFedErrorTaxonomyTwoPhase(t *testing.T) {
	for _, c := range []struct {
		decideErr error
		want      string
	}{
		{gaea.ErrNotFound, "heuristic outcome"},
		{errors.New("shard disk on fire"), "decision delivery incomplete"},
	} {
		t.Run(c.want, func(t *testing.T) {
			a := newShard(t, gaea.ServeOptions{})
			b := serveBackend(t, &decideFault{err: c.decideErr, reg: obs.NewRegistry()})
			r, err := Open([]string{a.addr, b}, Options{
				Map: map[string][]int{"rain": {0, 1}}, StatsInterval: -1, Client: client.Options{User: "coord"}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			cl, err := client.Dial(serveFed(t, r), client.Options{User: "taxonomy"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })

			s := cl.Begin(tctx)
			for i := range 2 { // round-robin placement: one create per shard
				if _, err := s.Create(rainObj(1, float64(i)*20), "2pc"); err != nil {
					t.Fatal(err)
				}
			}
			err = s.Commit()
			if err == nil || !strings.Contains(err.Error(), "(internal)") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("commit: %v, want an internal error naming the %s", err, c.want)
			}
			for _, sentinel := range []error{gaea.ErrNotFound, gaea.ErrClassUnknown, gaea.ErrNoPlan, gaea.ErrStale,
				gaea.ErrConflict, gaea.ErrSnapshotGone, gaea.ErrClosed, context.Canceled, client.ErrUnavailable} {
				if errors.Is(err, sentinel) {
					t.Fatalf("commit: %v typed as %v, want internal", err, sentinel)
				}
			}
		})
	}
}

// decideFault is a shard that prepares every batch and fails the commit
// decision with err. Only the methods a prepare and a decide reach are
// implemented.
type decideFault struct {
	server.Backend
	err error
	reg *obs.Registry
}

func (f *decideFault) Begin(context.Context, uint64, string) server.Session {
	return &faultSession{err: f.err}
}
func (f *decideFault) Epoch() uint64          { return 1 }
func (f *decideFault) Metrics() *obs.Registry { return f.reg }
func (f *decideFault) Tracer() *obs.Tracer    { return nil }
func (f *decideFault) Events() *obs.EventLog  { return nil }

type faultSession struct {
	err error
	n   object.OID
}

func (s *faultSession) Create(*object.Object, string) (object.OID, error) { s.n++; return s.n, nil }
func (s *faultSession) Update(*object.Object) error                       { return nil }
func (s *faultSession) Delete(object.OID) error                           { return nil }
func (s *faultSession) Prepare() error                                    { return nil }
func (s *faultSession) Commit() error                                     { return s.err }
func (s *faultSession) Rollback() error                                   { return nil }
