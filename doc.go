// Package gaea is the public API of the Gaea scientific DBMS
// reproduction: a spatio-temporal database kernel whose distinguishing
// capability is the management of derived data (Hachem, Qiu, Gennert,
// Ward: "Managing Derived Data in the Gaea Scientific DBMS", VLDB 1993).
//
// A Kernel wires together the three semantic layers of the paper:
//
//   - the system level: primitive classes (ADTs) and their operators,
//     including compound dataflow operators (Figure 4);
//   - the derivation level: processes (class-level derivation templates
//     with assertions and mappings, Figure 3), tasks (concrete
//     instantiations with full lineage), and Petri-net derivation
//     diagrams with backward-chaining planning (§2.1.6);
//   - the high level: concepts (sets of classes under one imprecise
//     scientific notion, §2.1.1) and experiments (reproducible bundles of
//     tasks).
//
// Quick start (API v2 — sessions, streams, typed errors):
//
//	k, err := gaea.Open(dir, gaea.Options{})
//	...
//	k.DefineClass(&catalog.Class{...})
//	k.DefineProcess(`DEFINE PROCESS ndvi_map ( ... )`)
//
//	// Batch ingest: one WAL commit, one invalidation sweep, and one
//	// data_load task per class and note listing every OID created (a
//	// record of ~40 bytes when the OIDs run back to back, ≤ 16 bytes as
//	// a delta against an earlier load of the same class and note).
//	s := k.Begin(ctx)
//	for _, obj := range scene {
//		s.Create(obj, "EOSAT tape 42")
//	}
//	if err := s.Commit(); err != nil { ... } // or s.Rollback()
//
//	// Single-op calls still work (implicit one-op sessions):
//	oid, _ := k.CreateObject(ctx, &object.Object{...}, "source note")
//
//	// Streaming retrieval with pagination.
//	st, _ := k.QueryStream(ctx, gaea.Request{Class: "ndvi", Pred: pred, Limit: 100})
//	for o, err := range st.All() { ... }
//	next := st.Cursor() // resume the next page via Request.Cursor
//
//	fmt.Print(k.Explain(oid)) // full derivation history
//
// Every read runs against an MVCC snapshot: queries and streams pin a
// commit epoch, stream cursors carry it across pages, and sessions
// validate first-committer-wins at Commit. A derivation reads its inputs
// at one pinned epoch and commits them as a read set, so a derived
// version always matches its inputs at its commit epoch; which derived
// objects are stale then follows from lineage alone, and the kernel
// judges it again at every open rather than storing it. For a
// long-lived consistent view, pin one explicitly:
//
//	snap, _ := k.Snapshot(ctx)     // read-only view at one commit epoch
//	defer snap.Release()           // lets the GC horizon advance
//	o, _ := snap.Get(oid)          // concurrent commits never show here
//	res, _ := snap.Query(ctx, gaea.Request{Class: "ndvi", Pred: pred})
//
// Failures classify into a small typed taxonomy matched with errors.Is:
// ErrNotFound, ErrClassUnknown, ErrNoPlan (the request cannot be
// satisfied or derived), ErrStale (operation refuses stale inputs),
// ErrConflict (a concurrent session committed first, or a derivation's
// inputs kept changing under it), ErrSnapshotGone
// (a cursor's snapshot epoch was reclaimed by GC), ErrClosed (kernel or
// session already closed), and ErrFormat (Open found a directory in
// another on-disk format, and changed nothing in it). All but ErrFormat
// are rows of one table in internal/wire that also names each one's
// wire code.
//
// The kernel is safe for concurrent use: queries, process runs, and
// compound derivations may be issued from many goroutines. Independent
// steps of one derivation also run in parallel on a worker pool sized by
// Options.Workers (per-run override: RunOptions.Parallelism), identical
// concurrent derivations collapse into one execution (single-flight
// memoisation), and every execution entry point takes a context for
// cancellation and deadlines.
//
// The kernel is also servable: Kernel.NewServer exposes everything over
// TCP or a unix socket (the `gaea serve` subcommand wraps it), and the
// gaea/client package dials it back with a Kernel-shaped API — the
// backend-neutral client.Kernel interface runs the same code embedded
// (client.Embed) or remote (client.Dial):
//
//	// Server side (or just: gaea serve -db DIR -listen unix:///run/g.sock)
//	l, _ := net.Listen("unix", "/run/g.sock")
//	srv := k.NewServer(gaea.ServeOptions{})
//	go srv.Serve(l)
//	defer srv.Shutdown(ctx) // graceful: drain requests, release leases
//
//	// Client side
//	c, _ := client.Dial("unix:///run/g.sock", client.Options{User: "ana"})
//	defer c.Close()
//	s := c.Begin(ctx)                   // read epoch: one small round trip
//	prov, _ := s.Create(obj, "note")    // staged locally (provisional OID)
//	_ = s.Commit()                      // whole batch: ONE round trip
//	oid, _ := s.Committed(prov)         // the stored OID
//	st, _ := c.QueryStream(ctx, gaea.Request{Class: "ndvi", Pred: pred})
//	for o, err := range st.All() { ... }    // server-push pages, credited
//	cursor := st.Cursor()               // resumes this exact snapshot on
//	                                    // any later connection
//
// Connections speak one multiplexed binary protocol: many requests in
// flight per connection with out-of-order completion (a Conn is safe
// for concurrent use and deadlines bound individual requests, never the
// connection), streaming queries as server-pushed pages under a credit
// window (client.Options.StreamWindow), and query results shipped from
// the stored attribute values — encoded once at commit, never decoded per
// request: the stored record leaves what its class says (name, frame,
// attribute names and types) to the catalog (the layout of every stored
// byte is README's "On-disk format 6"), and the read path splices the
// class's part back per shipped record, writing each typed value's
// value.Encode form straight from its stored bytes. An image blob ships
// as stored, in byte planes, and the client unpacks it as the embedded
// read does. A peer of another protocol revision (this is revision 4) is
// refused at the handshake.
//
// Remote snapshots and stream cursors hold their MVCC pins under
// server-side leases (ServeOptions.SnapshotLease): every touch renews,
// abandoned leases expire and release their pins, so a crashed client
// can never wedge the GC horizon. Remote errors classify into the same
// taxonomy — errors.Is works identically against either backend —
// through internal/wire's one table: the server maps an error to its
// code with it and the client maps the code back.
//
// Served kernels also scale out: internal/fed routes one client.Kernel
// surface across N served shards, partitioned by class — scattered
// queries merge under vector cursors, cross-shard sessions commit via
// two-phase commit (durable votes in ServeOptions.PrepareDir, the
// coordinator decision log as the commit point), and a one-shard
// federation is byte-compatible with a plain kernel:
//
//	r, _ := fed.Open([]string{"db1:7411", "db2:7411"}, fed.Options{
//		Map:         map[string][]int{"image": {0}, "grid": {0, 1}},
//		DecisionLog: "/var/gaea/fed.decisions",
//	})
//	defer r.Close()
//	var k client.Kernel = r // same sessions, streams, snapshots
//
// (or the `gaea fed` subcommand to serve the router itself; see the
// README's "Scaling out: federation" for the partition map, the
// vector-cursor resume rules, and the 2PC failure matrix).
//
// Every kernel is observable without configuration: a metrics registry
// (counters, gauges, latency histograms) and a request tracer run from
// Open, and Kernel.StatsSnapshot returns both alongside the model
// counts. The legacy Kernel.Stats string is now a frozen rendering of
// the same snapshot:
//
//	snap := k.StatsSnapshot()
//	fmt.Println(snap.Objects, snap.Tasks)                     // model counts
//	fmt.Println(snap.Metrics.Counters["query_total"])         // cumulative counters
//	h := snap.Metrics.Histograms["query_ns"]
//	fmt.Println(h.Count, h.P50, h.P99, h.Max)                 // latency profile
//	for _, slow := range k.Tracer.Slow() {                    // ops past SlowOpThreshold
//		fmt.Print(slow.Format())                          // indented span tree
//	}
//
// Traces cross the wire: a client dialled with Options.Tracer stamps
// its trace ID into v2 request frames, the server adopts it, and one
// remote query becomes one span tree covering client, server, and
// kernel (inspect it with `gaea trace -connect ADDR`). Metrics and
// traces are also served over HTTP — /metrics, /traces, and pprof —
// when ServeOptions.DebugAddr is set.
//
// There is one stats path. A Server's counters (connections, sessions,
// streams, leases, in-flight requests, pushed pages, bytes shipped
// undecoded) are read only as server_* gauges, which each Server adds
// to the kernel's registry until Shutdown; the registry totals them
// over the kernel's servers. The wire's stats request answers with the
// backend's stats line and the ObsExport as JSON. client.Conn.Stats
// renders the server[...] block from the export's gauges,
// Conn.Observe returns the export, and Server.Stats reads that one
// server's gauges through ServerStatsOf.
//
// On top of the registry runs a flight recorder. Kernel.Events is a
// bounded ring of structured events (commit groups, checkpoints,
// derivation sweeps, lease expiries, 2PC outcomes, shard health,
// stalls) with contiguous sequence numbers. Kernel.Series samples the
// registry every Options.StatsInterval into a time-series ring, so
// rates and p99 movement are answerable after the fact, and the same
// tick runs a stall watchdog: an operation open past
// Options.StallThreshold emits one `stall` event carrying its trace ID
// and a goroutine profile.
// Remote observers subscribe rather than poll — client
// Conn.SubscribeStats pushes windowed StatsDelta frames (rates, gauges,
// event backlog) on a period, resumable across reconnects via the
// delta's NextSeq — and a federation router holds one subscription per
// shard, folding them into an up/degraded/down fleet view. Watch it
// live with `gaea top -connect A,B -watch`, tail events with `gaea
// events -connect ADDR -follow`, or curl /events and /timeseries on
// the debug endpoint.
package gaea
