package gaea

// The service surface: Kernel.NewServer exposes the whole kernel —
// sessions, snapshots, streaming queries, derivation — over the
// internal/wire protocol on any net.Listener (TCP or unix socket).
// Package gaea/client dials it back with a Kernel-shaped API, so the
// same workload runs unchanged embedded or remote.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/query"
	"gaea/internal/server"
	"gaea/internal/wire"
)

// ServeOptions tunes a network Server.
type ServeOptions struct {
	// MaxConns caps concurrently open client connections (0 = unlimited);
	// connections over the cap are refused with an "unavailable" error.
	MaxConns int
	// SnapshotLease bounds how long a remote snapshot pin — or the pin
	// behind a stream resume cursor — survives without a touch
	// (0 = 30s). Expired leases release their pins, so an abandoned
	// client can never wedge the MVCC GC horizon; the abandoned snapshot
	// or cursor then answers ErrSnapshotGone.
	SnapshotLease time.Duration
	// PageSize caps (and defaults) the objects shipped per stream page
	// (0 = 256).
	PageSize int
	// MaxFrame bounds one wire frame (0 = 64 MiB).
	MaxFrame int
	// PrepareDir, when non-empty, makes two-phase-commit yes-votes
	// durable: each prepared transaction is fsynced there before the
	// vote is answered, and a restarted server re-stages the surviving
	// votes so a federation coordinator replaying its decision log
	// still finds them. Leave empty on kernels never serving as a
	// federation shard (prepares then live in memory only).
	PrepareDir string
	// DebugAddr, when non-empty, serves a plaintext HTTP debug endpoint
	// on that address (started with the first Serve): /metrics (the
	// registry as text), /traces (the full observability export as
	// JSON), /events (the structured event ring as JSON), /timeseries
	// (the periodic metrics samples as JSON), and net/http/pprof under
	// /debug/pprof/. The endpoint is
	// unauthenticated and exposes operational detail — bind it to
	// loopback (e.g. "127.0.0.1:6060") or protect it externally; never
	// expose it on the service listener's network.
	DebugAddr string
}

// ServerStats reports a Server's own counters (the kernel's counters
// come from Kernel.Stats). They live in the served backend's metrics
// registry as server_* gauges; ServerStatsOf reads them out of a
// snapshot, local or remote.
type ServerStats struct {
	// OpenConns is the number of currently accepted connections.
	OpenConns int64
	// ActiveSessions counts in-flight remote session commits.
	ActiveSessions int64
	// ActiveStreams counts in-flight stream page requests.
	ActiveStreams int64
	// ActiveLeases counts live snapshot and cursor leases (pinned epochs
	// held on behalf of remote clients).
	ActiveLeases int64
	// LeaseExpiries counts leases expired by the janitor — abandoned
	// remote pins that were reclaimed.
	LeaseExpiries int64
	// InFlight counts requests currently executing (a connection
	// multiplexes many).
	InFlight int64
	// MaxInFlightPerConn is the high-water mark of concurrent requests
	// observed on any single connection.
	MaxInFlightPerConn int64
	// PushedPages counts server-push stream pages sent.
	PushedPages int64
	// BytesAvoided counts stored record bytes shipped without a value in
	// them being decoded and re-encoded.
	BytesAvoided int64
}

// ServerStatsOf reads a server's counters out of a metrics snapshot:
// the kernel's (Server.Stats) or the one a remote export carries
// (client.Conn.Observe).
func ServerStatsOf(m MetricsSnapshot) ServerStats {
	g := m.Gauges
	return ServerStats{
		OpenConns:          g["server_open_conns"],
		ActiveSessions:     g["server_active_sessions"],
		ActiveStreams:      g["server_active_streams"],
		ActiveLeases:       g["server_active_leases"],
		LeaseExpiries:      g["server_lease_expiries_total"],
		InFlight:           g["server_in_flight"],
		MaxInFlightPerConn: g["server_max_in_flight_per_conn"],
		PushedPages:        g["server_pushed_pages_total"],
		BytesAvoided:       g["server_bytes_avoided_total"],
	}
}

// String renders the server[...] block a remote stats line appends to
// the backend's line. The format is frozen (golden-tested).
func (s ServerStats) String() string {
	return fmt.Sprintf("server[conns=%d sessions=%d streams=%d leases=%d lease_expiries=%d inflight=%d max_inflight_conn=%d pushed_pages=%d bytes_avoided=%d]",
		s.OpenConns, s.ActiveSessions, s.ActiveStreams, s.ActiveLeases, s.LeaseExpiries,
		s.InFlight, s.MaxInFlightPerConn, s.PushedPages, s.BytesAvoided)
}

// Server serves this kernel over the wire protocol. Start it on one or
// more listeners with Serve; stop it with Shutdown (graceful: stops
// accepting, drains in-flight requests, then releases every remote
// lease).
type Server struct {
	inner *server.Server
	k     *Kernel

	debugAddrOpt string
	debugOnce    sync.Once
	debugErr     error
	debugMu      sync.Mutex
	debugSrv     *http.Server
	debugAddr    string // bound address, once listening
}

// NewServer builds a network server over the kernel. The kernel stays
// fully usable in-process while being served; Close the kernel only
// after Shutdown.
func (k *Kernel) NewServer(opts ServeOptions) *Server {
	return &Server{
		k:            k,
		debugAddrOpt: opts.DebugAddr,
		inner: server.New(kernelBackend{k}, server.Options{
			MaxConns:   opts.MaxConns,
			LeaseTTL:   opts.SnapshotLease,
			PageSize:   opts.PageSize,
			MaxFrame:   opts.MaxFrame,
			PrepareDir: opts.PrepareDir,
		})}
}

// Serve accepts and serves connections on l until Shutdown. It returns
// nil after a clean shutdown. The first Serve also starts the debug
// endpoint when ServeOptions.DebugAddr is set; failing to bind it is a
// startup error, not a silent omission.
func (s *Server) Serve(l net.Listener) error {
	if err := s.startDebug(); err != nil {
		return err
	}
	return classify(s.inner.Serve(l))
}

// startDebug binds and serves the HTTP debug endpoint, once.
func (s *Server) startDebug() error {
	s.debugOnce.Do(func() {
		if s.debugAddrOpt == "" {
			return
		}
		ln, err := net.Listen("tcp", s.debugAddrOpt)
		if err != nil {
			s.debugErr = fmt.Errorf("gaea: debug endpoint: %w", err)
			return
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			s.k.Metrics.Snapshot().WriteText(w)
		})
		mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			b, err := s.k.ObsJSON()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			_, _ = w.Write(b)
		})
		mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(struct {
				Events  []Event `json:"events"`
				Dropped int64   `json:"dropped"`
			}{Events: s.k.Events.Since(0), Dropped: s.k.Events.Dropped()})
		})
		mux.HandleFunc("/timeseries", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(struct {
				Points []SeriesPoint `json:"points"`
			}{Points: s.k.Series.Points()})
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		hs := &http.Server{Handler: mux}
		s.debugMu.Lock()
		s.debugSrv = hs
		s.debugAddr = ln.Addr().String()
		s.debugMu.Unlock()
		go func() { _ = hs.Serve(ln) }()
	})
	return s.debugErr
}

// DebugAddr reports the bound debug-endpoint address ("" when disabled
// or not yet started) — useful with a ":0" DebugAddr.
func (s *Server) DebugAddr() string {
	s.debugMu.Lock()
	defer s.debugMu.Unlock()
	return s.debugAddr
}

// Shutdown stops the server gracefully: stop accepting, drain in-flight
// requests (a stream stops at its next page under a resume lease),
// release every remote snapshot and cursor lease. If ctx expires before
// the drain completes, in-flight kernel work is cancelled and
// connections are closed anyway. The debug endpoint, if any, closes
// with it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.debugMu.Lock()
	hs := s.debugSrv
	s.debugSrv = nil
	s.debugMu.Unlock()
	if hs != nil {
		_ = hs.Close()
	}
	return classify(s.inner.Shutdown(ctx))
}

// Stats reads this server's counters. The kernel's registry, and so its
// export, carries the server_* gauges totalled over the kernel's
// servers that are not shut down.
func (s *Server) Stats() ServerStats {
	return ServerStatsOf(MetricsSnapshot{Gauges: s.inner.Gauges()})
}

// kernelBackend adapts *Kernel onto the narrow interface internal/server
// is written against.
type kernelBackend struct{ k *Kernel }

func (b kernelBackend) Begin(ctx context.Context, readEpoch uint64, user string) server.Session {
	if readEpoch == 0 {
		readEpoch = b.k.Objects.CurrentEpoch()
	}
	return b.k.beginAt(ctx, readEpoch, user)
}

func (b kernelBackend) Epoch() uint64 { return b.k.Objects.CurrentEpoch() }

func (b kernelBackend) Query(ctx context.Context, req query.Request) (*query.Result, error) {
	return b.k.Query(ctx, req)
}

// QueryAt answers a retrieve-only request at a pinned epoch: the remote
// snapshot read path is Snapshot.Query over the lease's pin.
func (b kernelBackend) QueryAt(ctx context.Context, req query.Request, epoch uint64) (*query.Result, error) {
	return (&Snapshot{k: b.k, epoch: epoch}).Query(ctx, req)
}

// StreamPage drains one page of a streaming query at an epoch the caller
// has pinned, as raw records: no value is decoded — each object ships as
// the GOB3 record object.Store.GetRawAt re-assembles around the value
// bytes the storage engine holds, plus the payloads of any referenced
// blobs. The page stops at half the frame limit (the cut object is the
// only over-read, and the cursor is re-minted at the last object
// shipped), so image-heavy classes page by bytes. A fresh stream whose
// retrieval served nothing runs the fallback chain instead (see
// fallbackPage).
func (b kernelBackend) StreamPage(ctx context.Context, req query.Request, epoch uint64, retrieveOnly bool, maxBytes int) ([]wire.RawObject, string, bool, error) {
	if err := b.k.request(&req, retrieveOnly); err != nil {
		return nil, "", false, err
	}
	pg := server.NewPage(req.Limit, maxBytes)
	cursor, served, err := b.k.Queries.PageRawAt(ctx, req, epoch, func(class string, oid object.OID) (bool, error) {
		rec, blobs, err := b.k.Objects.GetRawAt(oid, epoch)
		if err != nil {
			return false, err
		}
		return pg.Take(oid, wire.RawObject{Rec: rec, Blobs: blobs})
	})
	if err != nil {
		return nil, "", false, classify(err)
	}
	if served || req.Cursor != "" {
		return pg.Raws, cursor, false, nil
	}
	return b.fallbackPage(ctx, req, maxBytes)
}

// fallbackPage answers a fresh stream whose retrieval served nothing
// with the fallback chain (for a retrieval-only request, the unsatisfied
// error). Its objects ship re-encoded with object.EncodeWire under the
// same byte budget; one that overflows is an error, since the results
// are committed at newer epochs and have no cursor to resume from.
func (b kernelBackend) fallbackPage(ctx context.Context, req query.Request, maxBytes int) ([]wire.RawObject, string, bool, error) {
	res, err := b.k.Queries.Fallback(ctx, req)
	if err != nil {
		return nil, "", false, classify(err)
	}
	pg := server.NewPage(len(res.OIDs), maxBytes)
	for _, oid := range res.OIDs {
		o, err := b.k.Objects.Get(oid)
		if err != nil {
			return nil, "", false, classify(err)
		}
		rec, err := object.EncodeWire(o)
		if err != nil {
			return nil, "", false, err
		}
		take, err := pg.Take(oid, wire.RawObject{Rec: rec})
		if err != nil {
			return nil, "", false, err
		}
		if !take {
			return nil, "", false, fmt.Errorf("%w: fallback result exceeds the page byte budget %d; "+
				"the derived objects are committed — re-issue the query to retrieve them", query.ErrBadRequest, pg.Budget)
		}
	}
	return pg.Raws, "", true, nil
}

// GetRawAt loads the version visible at a pinned epoch as a GOB3 record
// holding its stored value bytes, to ship as it is (OpSnapGet).
func (b kernelBackend) GetRawAt(oid object.OID, epoch uint64) (wire.RawObject, error) {
	if err := b.k.checkOpen(); err != nil {
		return wire.RawObject{}, err
	}
	rec, blobs, err := b.k.Objects.GetRawAt(oid, epoch)
	if err != nil {
		return wire.RawObject{}, classify(err)
	}
	return wire.RawObject{Rec: rec, Blobs: blobs}, nil
}

// The server's counters land in the kernel registry, its request spans
// in the kernel tracer (under the client's trace ID when one came over
// the wire) and its events in the kernel's log; OpStats carries the
// export.
func (b kernelBackend) Metrics() *obs.Registry { return b.k.Metrics }
func (b kernelBackend) Tracer() *obs.Tracer    { return b.k.Tracer }
func (b kernelBackend) Events() *obs.EventLog  { return b.k.Events }
func (b kernelBackend) ObsJSON() []byte {
	j, err := b.k.ObsJSON()
	if err != nil {
		return nil
	}
	return j
}

func (b kernelBackend) Pin() uint64                 { return b.k.Objects.Pin() }
func (b kernelBackend) PinEpoch(e uint64) error     { return classify(b.k.Objects.PinEpoch(e)) }
func (b kernelBackend) Unpin(e uint64)              { b.k.Objects.Unpin(e) }
func (b kernelBackend) Stale() []object.OID         { return b.k.Stale() }
func (b kernelBackend) Explain(o object.OID) string { return b.k.Explain(o) }
func (b kernelBackend) Stats() string               { return b.k.Stats() }

func (b kernelBackend) CursorEpoch(cursor string) (uint64, error) {
	e, err := query.CursorEpoch(cursor)
	return e, classify(err)
}

func (b kernelBackend) RefreshStale(ctx context.Context) (int, error) {
	return b.k.RefreshStale(ctx)
}

func (b kernelBackend) ExplainQuery(ctx context.Context, req query.Request) (string, error) {
	return b.k.ExplainQuery(ctx, req)
}
