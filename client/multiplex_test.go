package client

// Multiplexing tests: per-request deadlines (a slow query must not
// poison or delay an interleaved fast one on the same connection), a
// torture run of concurrent unary requests, push streams, and
// cancellations over ONE connection (TestMVCC prefix so the CI shard
// repeats it under -race -cpu 1,4), and mid-stream disconnect.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gaea"
	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/query"
	"gaea/internal/server"
	"gaea/internal/wire"
)

// blockingBackend parks Query until its context is cancelled; every
// other op answers instantly. It isolates the transport's concurrency
// behaviour from kernel timing.
type blockingBackend struct {
	queryStarted chan struct{}
	reg          *obs.Registry
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{queryStarted: make(chan struct{}, 8), reg: obs.NewRegistry()}
}

func (f *blockingBackend) Query(ctx context.Context, req query.Request) (*query.Result, error) {
	f.queryStarted <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

func (f *blockingBackend) Begin(ctx context.Context, readEpoch uint64, user string) server.Session {
	return nil
}
func (f *blockingBackend) Epoch() uint64 { return 1 }
func (f *blockingBackend) QueryAt(ctx context.Context, req query.Request, epoch uint64) (*query.Result, error) {
	return &query.Result{}, nil
}
func (f *blockingBackend) StreamPage(ctx context.Context, req query.Request, epoch uint64, retrieveOnly bool, maxBytes int) ([]wire.RawObject, string, bool, error) {
	return nil, "", false, nil
}
func (f *blockingBackend) GetRawAt(oid object.OID, epoch uint64) (wire.RawObject, error) {
	return wire.RawObject{}, nil
}
func (f *blockingBackend) Pin() uint64                 { return 1 }
func (f *blockingBackend) PinEpoch(epoch uint64) error { return nil }
func (f *blockingBackend) Unpin(epoch uint64)          {}
func (f *blockingBackend) CursorEpoch(c string) (uint64, error) {
	return query.CursorEpoch(c)
}
func (f *blockingBackend) Stale() []object.OID                           { return nil }
func (f *blockingBackend) RefreshStale(ctx context.Context) (int, error) { return 0, nil }
func (f *blockingBackend) Explain(oid object.OID) string                 { return "" }
func (f *blockingBackend) ExplainQuery(ctx context.Context, req query.Request) (string, error) {
	return "", nil
}
func (f *blockingBackend) Stats() string            { return "blocking" }
func (f *blockingBackend) Code(err error) wire.Code { return wire.CodeFor(err) }
func (f *blockingBackend) Metrics() *obs.Registry   { return f.reg }
func (f *blockingBackend) Tracer() *obs.Tracer      { return nil }
func (f *blockingBackend) Events() *obs.EventLog    { return nil }
func (f *blockingBackend) ObsJSON() []byte {
	b, _ := json.Marshal(gaea.ObsExport{Stats: gaea.StatsSnapshot{Metrics: f.reg.Snapshot()}})
	return b
}

// startBackendServer serves an arbitrary Backend on a unix socket.
func startBackendServer(t *testing.T, b server.Backend) string {
	t.Helper()
	path := sockPath(t)
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(b, server.Options{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return "unix://" + path
}

// TestPerRequestDeadline: deadlines bound individual requests, not the
// connection. A stalled query must not delay an interleaved fast
// request on the same connection, and its expiry must not poison the
// connection for later traffic.
func TestPerRequestDeadline(t *testing.T) {
	b := newBlockingBackend()
	addr := startBackendServer(t, b)
	c, err := Dial(addr, Options{User: "deadline"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A slow query parks in the backend…
	slowCtx, cancelSlow := context.WithTimeout(ctx, 10*time.Second)
	defer cancelSlow()
	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Query(slowCtx, rainPred())
		slowDone <- err
	}()
	select {
	case <-b.queryStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("slow query never reached the backend")
	}

	// …while a fast request on the SAME connection completes immediately.
	start := time.Now()
	if _, err := c.Stats(); err != nil {
		t.Fatalf("fast request behind a slow one: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("fast request queued %v behind the slow one", elapsed)
	}
	if st := gaea.ServerStatsOf(b.reg.Snapshot()); st.MaxInFlightPerConn < 2 {
		t.Fatalf("max in-flight per conn = %d, want >= 2 (requests did not overlap)", st.MaxInFlightPerConn)
	}

	// Cancelling the slow request surfaces its context error…
	cancelSlow()
	select {
	case err := <-slowDone:
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled slow query: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled slow query never returned")
	}

	// …and a per-request timeout is just that: the request fails with
	// DeadlineExceeded, the connection keeps working.
	tctx, cancel := context.WithTimeout(ctx, 150*time.Millisecond)
	defer cancel()
	if _, err := c.Query(tctx, rainPred()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out query: %v, want DeadlineExceeded", err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("connection poisoned by a per-request timeout: %v", err)
	}
}

// TestMVCCMultiplexTorture hammers ONE v2 connection: concurrent unary
// queries, full-drain push streams, streams abandoned mid-flight, and
// pre-cancelled requests, all interleaved. Everything must stay
// correct and the connection healthy. The CI MVCC shard re-runs this
// under -race -cpu 1,4.
func TestMVCCMultiplexTorture(t *testing.T) {
	k := openKernel(t)
	srv, addr := startServer(t, k, gaea.ServeOptions{PageSize: 8})
	c, err := Dial(addr, Options{User: "torture", StreamWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 48
	seedRain(t, c, n, 1)

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	fail := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Unary query workers.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := c.Query(ctx, rainPred())
				if err != nil {
					fail("unary query: %v", err)
					return
				}
				if len(res.OIDs) != n {
					fail("unary query saw %d objects, want %d", len(res.OIDs), n)
					return
				}
			}
		}()
	}
	// Full-drain stream workers (6 pages each at PageSize 8).
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				st, err := c.QueryStream(ctx, rainPred())
				if err != nil {
					fail("stream start: %v", err)
					return
				}
				got := 0
				for _, err := range st.All() {
					if err != nil {
						fail("stream drain: %v", err)
						return
					}
					got++
				}
				if got != n {
					fail("stream drained %d objects, want %d", got, n)
					return
				}
			}
		}()
	}
	// Abandoning stream workers: pull a few objects, then break — the
	// client must cancel the push stream without disturbing the rest.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				st, err := c.QueryStream(ctx, rainPred())
				if err != nil {
					fail("abandoned stream start: %v", err)
					return
				}
				pulled := 0
				for _, err := range st.All() {
					if err != nil {
						fail("abandoned stream: %v", err)
						return
					}
					if pulled++; pulled == 5 {
						break
					}
				}
			}
		}()
	}
	// Pre-cancelled requests: must fail fast with the context error and
	// never poison the shared connection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			if _, err := c.Query(cctx, rainPred()); err != nil && !errors.Is(err, context.Canceled) {
				fail("pre-cancelled query: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The connection survived all of it.
	if _, err := c.Stats(); err != nil {
		t.Fatalf("connection unhealthy after torture: %v", err)
	}
	st := srv.Stats()
	if st.PushedPages == 0 {
		t.Fatal("no pages were server-pushed; streams did not use the v2 path")
	}
	if st.MaxInFlightPerConn < 2 {
		t.Fatalf("max in-flight per conn = %d; requests never overlapped", st.MaxInFlightPerConn)
	}

	// Mid-stream disconnect: killing the connection under an active
	// stream surfaces an error on the next pull, never a hang.
	c2, err := Dial(addr, Options{User: "drop", PageSize: 8, StreamWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c2.QueryStream(ctx, rainPred())
	if err != nil {
		t.Fatal(err)
	}
	pulled := 0
	var streamErr error
	for _, err := range st2.All() {
		if err != nil {
			streamErr = err
			break
		}
		if pulled++; pulled == 1 {
			c2.Close()
		}
	}
	if streamErr == nil {
		t.Fatal("stream drained cleanly across a dead connection")
	}
}
