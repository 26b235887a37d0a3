package gaea

import (
	"context"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"gaea/internal/adt"
	"gaea/internal/catalog"
	"gaea/internal/concept"
	"gaea/internal/deriv"
	"gaea/internal/experiment"
	"gaea/internal/interp"
	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/petri"
	"gaea/internal/process"
	"gaea/internal/query"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/task"
)

// Re-exported request/strategy types so callers need only this package
// plus the model packages.
type (
	// Request is a spatio-temporal query against a class or concept.
	Request = query.Request
	// Result is a query answer.
	Result = query.Result
	// Strategy orders the §2.1.5 fallback steps.
	Strategy = query.Strategy
	// RunOptions tunes process executions.
	RunOptions = task.RunOptions
	// RefreshPolicy governs when stale derived objects are recomputed.
	RefreshPolicy = deriv.Policy
)

// Query strategies.
const (
	Retrieve    = query.Retrieve
	Interpolate = query.Interpolate
	Derive      = query.Derive
)

// Refresh policies for derived data invalidated by updates (see
// Options.RefreshPolicy).
const (
	// LazyRefresh (the default): queries skip stale objects and
	// transparently re-derive them on touch.
	LazyRefresh = deriv.Lazy
	// EagerRefresh: a background refresher recomputes stale objects as
	// soon as they are invalidated.
	EagerRefresh = deriv.Eager
	// ManualRefresh: stale objects stay stale (queries return them
	// flagged) until RefreshStale is called.
	ManualRefresh = deriv.Manual
)

// Options tunes a Kernel.
type Options struct {
	// NoSync disables the per-write WAL fsync and the fsync of each blob
	// file (for tests and benchmarks).
	NoSync bool
	// User is the default user recorded on tasks.
	User string
	// Workers caps the goroutines used per derivation for independent
	// compound steps and plan stages (0 = GOMAXPROCS). Individual runs
	// may override it with RunOptions.Parallelism.
	Workers int
	// RefreshPolicy governs how stale derived objects (dependents of
	// updated or deleted data) are brought up to date: LazyRefresh
	// (default), EagerRefresh, or ManualRefresh.
	RefreshPolicy RefreshPolicy
	// CheckpointEveryBytes bounds WAL growth under sustained ingest: when
	// the log exceeds this many bytes since the last checkpoint, a
	// background worker runs Checkpoint (heap flush + log truncation +
	// version GC). 0 takes the default (64 MiB); negative disables
	// auto-checkpointing (Checkpoint can still be called manually).
	CheckpointEveryBytes int64
	// SlowOpThreshold routes completed request traces whose root span ran
	// at least this long into the slow-op log (Kernel.Observe, the debug
	// endpoint, gaea top). 0 takes the default (100ms); negative disables
	// the slow-op log. Tracing is always on but rate-limited: locally
	// minted traces are admitted through a token bucket (a burst of
	// 512, refilled at 512/s), so every request is traced — and the
	// slow-op log is complete — below that rate, while bulk loads past it
	// skip span construction and pay only a few atomics per request.
	// Remote-stamped traces (a client that asked to trace) are always
	// admitted.
	SlowOpThreshold time.Duration
	// StatsInterval is the flight recorder's cadence: once per interval
	// the metrics registry is snapshotted into the time-series ring
	// (Kernel.Series) and the stall watchdog scans open operations. 0
	// takes the default (1s); negative disables background sampling and
	// the watchdog (the event log still records).
	StatsInterval time.Duration
	// StallThreshold is the watchdog cutoff: an operation open longer
	// than this emits one `stall` event carrying a goroutine profile. 0
	// takes the default (30s); negative disables the watchdog.
	StallThreshold time.Duration
	// EventRing sizes the structured event ring (Kernel.Events): 0 takes
	// the default (1024); negative disables the event log entirely.
	EventRing int
}

// defaultStatsInterval is the flight recorder's sampling period when
// Options.StatsInterval is zero.
const defaultStatsInterval = time.Second

// defaultSlowOpThreshold is the slow-op log cutoff when
// Options.SlowOpThreshold is zero.
const defaultSlowOpThreshold = 100 * time.Millisecond

// defaultCheckpointBytes is the auto-checkpoint threshold when
// Options.CheckpointEveryBytes is zero.
const defaultCheckpointBytes = 64 << 20

// Kernel is an open Gaea database. Its methods are the API. The
// sub-manager fields serve the repository's own commands, examples and
// benchmarks; a manager method nothing in the repository calls is
// deleted, not kept for outside callers.
type Kernel struct {
	dir  string
	user string

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	// Auto-checkpoint state: the WAL-growth threshold, a single-flight
	// guard so at most one background checkpoint runs, and a WaitGroup so
	// Close can drain it.
	checkpointEvery int64
	checkpointing   atomic.Bool
	checkpoints     atomic.Int64
	bg              sync.WaitGroup

	// Open snapshots, released by Close if the caller leaked them (a
	// leaked pin must not outlive the kernel that minted it).
	snapMu sync.Mutex
	snaps  map[*Snapshot]struct{}

	// Session-commit instruments (see session.go).
	commits, commitConflicts *obs.Counter
	commitNS                 *obs.Histogram

	// Metrics is the kernel-wide instrument registry: every layer
	// (storage, MVCC, derivation, query, service) registers into it, and
	// StatsSnapshot/Observe export it.
	Metrics *obs.Registry
	// Tracer records request span trees (queries, commits, remote
	// requests) plus the slow-op log.
	Tracer *obs.Tracer
	// Events is the structured event log: commit groups, checkpoints,
	// deriv sweeps, lease expiries, 2PC outcomes, stalls. Nil when
	// Options.EventRing is negative (all methods are nil-safe).
	Events *obs.EventLog
	// Series is the time-series ring of periodic metrics samples. Nil
	// when Options.StatsInterval is negative.
	Series *obs.TimeSeries

	// obsStop ends the flight-recorder ticker goroutine (nil when
	// background sampling is disabled).
	obsStop chan struct{}

	Store       *storage.Store
	Catalog     *catalog.Catalog
	Registry    *adt.Registry
	Objects     *object.Store
	Processes   *process.Manager
	Tasks       *task.Executor
	Concepts    *concept.Manager
	Experiments *experiment.Manager
	Planner     *petri.Planner
	Interp      *interp.Interpolator
	Queries     *query.Executor
	Deriv       *deriv.Manager
}

// Open opens (or creates) a Gaea database in dir, recovering from the WAL
// if the previous session crashed.
func Open(dir string, opts Options) (*Kernel, error) {
	reg := obs.NewRegistry()
	slow := opts.SlowOpThreshold
	switch {
	case slow < 0:
		slow = 0 // disabled
	case slow == 0:
		slow = defaultSlowOpThreshold
	}
	st, err := storage.Open(dir, storage.Options{NoSync: opts.NoSync, Metrics: reg})
	if err != nil {
		return nil, classify(err)
	}
	k := &Kernel{dir: dir, user: opts.User, Store: st,
		Metrics: reg, Tracer: obs.NewTracer(slow)}
	if opts.EventRing >= 0 {
		k.Events = obs.NewEventLog(opts.EventRing)
	}
	k.commits = reg.Counter("session_commits_total")
	k.commitConflicts = reg.Counter("session_conflicts_total")
	k.commitNS = reg.Histogram("session_commit_ns")
	if k.Catalog, err = catalog.Open(st); err != nil {
		st.Close()
		return nil, classify(err)
	}
	k.Registry = adt.NewStandardRegistry()
	if k.Objects, err = object.Open(st, k.Catalog); err != nil {
		st.Close()
		return nil, classify(err)
	}
	k.Objects.RegisterMetrics(reg)
	if k.Processes, err = process.OpenManager(st, k.Catalog, k.Registry); err != nil {
		st.Close()
		return nil, classify(err)
	}
	if k.Tasks, err = task.OpenExecutor(st, k.Catalog, k.Registry, k.Objects, k.Processes); err != nil {
		st.Close()
		return nil, classify(err)
	}
	k.Tasks.Workers = opts.Workers
	if k.Concepts, err = concept.OpenManager(st, k.Catalog); err != nil {
		st.Close()
		return nil, classify(err)
	}
	if k.Experiments, err = experiment.OpenManager(st, k.Tasks); err != nil {
		st.Close()
		return nil, classify(err)
	}
	// The derived-data manager wires the executor's staleness hooks and
	// must open after the task log, before the planning/query layers.
	if k.Deriv, err = deriv.Open(k.Objects, k.Tasks, deriv.Config{
		Policy:  opts.RefreshPolicy,
		Workers: opts.Workers,
		Metrics: reg,
	}); err != nil {
		st.Close()
		return nil, classify(err)
	}
	k.Planner = &petri.Planner{Cat: k.Catalog, Mgr: k.Processes, Obj: k.Objects, Stale: k.Deriv.IsStale}
	k.Interp = &interp.Interpolator{Cat: k.Catalog, Obj: k.Objects, Reg: k.Registry, Exec: k.Tasks, Stale: k.Deriv.IsStale}
	k.Queries = &query.Executor{
		Cat:        k.Catalog,
		Obj:        k.Objects,
		Concepts:   k.Concepts,
		Planner:    k.Planner,
		Interp:     k.Interp,
		Exec:       k.Tasks,
		Stale:      k.Deriv.IsStaleAt,
		ServeStale: k.Deriv.Policy() == ManualRefresh,
		Tracer:     k.Tracer,
	}
	k.Queries.RegisterMetrics(reg)
	switch {
	case opts.CheckpointEveryBytes < 0:
		k.checkpointEvery = 0 // disabled
	case opts.CheckpointEveryBytes == 0:
		k.checkpointEvery = defaultCheckpointBytes
	default:
		k.checkpointEvery = opts.CheckpointEveryBytes
	}
	if k.checkpointEvery > 0 {
		k.Objects.AfterCommit = k.maybeAutoCheckpoint
	}
	if opts.StatsInterval >= 0 {
		interval := opts.StatsInterval
		if interval == 0 {
			interval = defaultStatsInterval
		}
		k.Series = obs.NewTimeSeries(reg, 0)
		// Sample once immediately so observers (the /timeseries endpoint)
		// see a point before the first tick.
		k.Series.Sample(time.Now())
		var wd *obs.Watchdog
		if opts.StallThreshold >= 0 {
			wd = obs.NewWatchdog(k.Tracer, k.Events, opts.StallThreshold)
		}
		k.obsStop = make(chan struct{})
		k.bg.Add(1)
		go k.flightRecorder(interval, wd)
	}
	return k, nil
}

// flightRecorder is the observability ticker: one registry sample into
// the time-series ring and one watchdog scan per interval, off every
// hot path.
func (k *Kernel) flightRecorder(interval time.Duration, wd *obs.Watchdog) {
	defer k.bg.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-k.obsStop:
			return
		case now := <-tick.C:
			k.Series.Sample(now)
			wd.Scan(now)
		}
	}
}

// Checkpoint flushes all heaps and the meta snapshot and truncates the
// WAL. First it reclaims the superseded object versions no snapshot can
// see that no commit has reclaimed yet — those a released pin left with
// no commit after it (every commit reclaims the rest itself) — and it
// returns how many. Safe to call at any time; commits proceed again as
// soon as it releases the storage lock.
func (k *Kernel) Checkpoint() (int, error) {
	if err := k.checkOpen(); err != nil {
		return 0, err
	}
	n, err := k.Objects.GC()
	if err != nil {
		return n, classify(err)
	}
	if err := k.Store.Checkpoint(); err != nil {
		return n, classify(err)
	}
	k.checkpoints.Add(1)
	if k.Events != nil {
		k.Events.Emit("checkpoint", SevInfo, "versions reclaimed, heaps flushed, WAL truncated",
			map[string]string{"reclaimed": fmt.Sprint(n)})
	}
	return n, nil
}

// maybeAutoCheckpoint is the object store's AfterCommit hook: when the
// WAL has outgrown the configured threshold, it hands a Checkpoint to a
// background worker (single-flight — a running checkpoint absorbs
// concurrent triggers).
func (k *Kernel) maybeAutoCheckpoint() {
	if k.Store.WALBytes() < k.checkpointEvery || k.closed.Load() {
		return
	}
	if !k.checkpointing.CompareAndSwap(false, true) {
		return
	}
	k.bg.Add(1)
	go func() {
		defer k.bg.Done()
		defer k.checkpointing.Store(false)
		if k.closed.Load() {
			return
		}
		// Errors surface through Stats (the WAL keeps growing) and on the
		// next explicit Checkpoint; the trigger itself must not crash the
		// committer that fired it.
		_, _ = k.Checkpoint()
	}()
}

// Close releases any snapshots still pinned (so a leaked pin cannot
// survive the kernel), stops the derived-data refresher, then closes the
// database. Close is idempotent — repeated calls return the first call's
// result — and operations issued after it fail with ErrClosed instead of
// touching closed storage. Close does not drain: the caller must let
// in-flight operations finish before closing, as with most file-like
// resources. (Pure in-memory reads — Stale, Explain, Stats — keep
// answering from the last known state.)
func (k *Kernel) Close() error {
	k.closeOnce.Do(func() {
		k.closed.Store(true)
		if k.obsStop != nil {
			close(k.obsStop) // stop the flight-recorder ticker
		}
		k.bg.Wait() // drain any in-flight background checkpoint
		// Release snapshots the caller leaked, so the pin table (and
		// with it the GC horizon) ends clean. Collect under the lock,
		// release outside it — Release re-takes snapMu to deregister.
		k.snapMu.Lock()
		leaked := make([]*Snapshot, 0, len(k.snaps))
		for s := range k.snaps {
			leaked = append(leaked, s)
		}
		k.snapMu.Unlock()
		for _, s := range leaked {
			s.Release()
		}
		k.Deriv.Close()
		k.closeErr = k.Store.Close()
	})
	return k.closeErr
}

// checkOpen gates every operation that would touch storage.
func (k *Kernel) checkOpen() error {
	if k.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Dir returns the database directory.
func (k *Kernel) Dir() string { return k.dir }

// DefineClass registers a non-primitive class.
func (k *Kernel) DefineClass(cls *catalog.Class) error {
	if err := k.checkOpen(); err != nil {
		return err
	}
	return classify(k.Catalog.Define(cls))
}

// DefineProcess parses, checks, and registers a process definition
// (primitive or compound) written in the Figure 3 definition language.
func (k *Kernel) DefineProcess(src string) (string, error) {
	if err := k.checkOpen(); err != nil {
		return "", err
	}
	name, err := k.Processes.Define(src)
	return name, classify(err)
}

// RedefineProcess registers a new version of an existing process; old
// versions are preserved (§2.1.4 observation 3).
func (k *Kernel) RedefineProcess(src string) (string, int, error) {
	if err := k.checkOpen(); err != nil {
		return "", 0, err
	}
	name, v, err := k.Processes.Redefine(src)
	return name, v, classify(err)
}

// DefineConcept registers a concept.
func (k *Kernel) DefineConcept(c *concept.Concept) error {
	if err := k.checkOpen(); err != nil {
		return err
	}
	return classify(k.Concepts.Define(c))
}

// CreateObject stores a new scientific data object (base data), recording
// a load task so even base data appears in lineage with its source note
// (an empty note still records the load — every object is visible to
// Explain and Reproduce). It is an implicit single-op session; batch
// loads should use Begin.
func (k *Kernel) CreateObject(ctx context.Context, obj *object.Object, note string) (object.OID, error) {
	s := k.Begin(ctx)
	oid, err := s.Create(obj, note)
	if err != nil {
		s.Rollback()
		return 0, err
	}
	if err := s.Commit(); err != nil {
		return 0, err
	}
	return oid, nil
}

// UpdateObject replaces the stored state of an existing object in place
// (same OID, same class) and propagates the change: every transitive
// dependent recorded in the derivation graph is marked stale under a
// fresh epoch. What happens next depends on Options.RefreshPolicy —
// stale objects are re-derived on query touch (lazy), recomputed in the
// background (eager), or left to RefreshStale (manual) — and on the
// cost-based rematerialisation decision, which may drop dependents that
// are cheaper to re-derive than to keep. It is an implicit single-op
// session; batch mutations should use Begin.
func (k *Kernel) UpdateObject(ctx context.Context, obj *object.Object) error {
	s := k.Begin(ctx)
	if err := s.Update(obj); err != nil {
		s.Rollback()
		return err
	}
	return s.Commit()
}

// DeleteObject removes an object and propagates the deletion: its memo
// entries are dropped (so identical instantiations re-execute) and every
// transitive dependent is marked stale. It is an implicit single-op
// session; batch mutations should use Begin.
func (k *Kernel) DeleteObject(ctx context.Context, oid object.OID) error {
	s := k.Begin(ctx)
	if err := s.Delete(oid); err != nil {
		s.Rollback()
		return err
	}
	return s.Commit()
}

// RefreshStale recomputes every stale derived object in place (ancestors
// first, independent objects in parallel), returning how many were
// refreshed. Stale objects that cannot be recomputed (external
// derivations such as interpolations) are dropped and left to re-derive.
func (k *Kernel) RefreshStale(ctx context.Context) (int, error) {
	if err := k.checkOpen(); err != nil {
		return 0, err
	}
	n, err := k.Deriv.RefreshStale(ctx)
	if err == nil && k.Events != nil {
		k.Events.Emit("deriv_sweep", SevInfo, "stale derived objects refreshed",
			map[string]string{"refreshed": fmt.Sprint(n)})
	}
	return n, classify(err)
}

// Stale lists the OIDs currently marked stale, ascending.
func (k *Kernel) Stale() []object.OID { return k.Deriv.Stale() }

// RunProcess instantiates a primitive process over stored objects,
// returning the recorded task; identical instantiations are memoised
// (single-flight: concurrent identical runs execute once).
func (k *Kernel) RunProcess(ctx context.Context, name string, inputs map[string][]object.OID, opts RunOptions) (*task.Task, bool, error) {
	if err := k.checkOpen(); err != nil {
		return nil, false, err
	}
	if opts.User == "" {
		opts.User = k.user
	}
	t, reused, err := k.Tasks.Run(ctx, name, inputs, opts)
	return t, reused, classify(err)
}

// RunCompound expands and executes a compound process (Figure 5),
// running independent steps in parallel.
func (k *Kernel) RunCompound(ctx context.Context, name string, inputs map[string][]object.OID, opts RunOptions) ([]*task.Task, object.OID, error) {
	if err := k.checkOpen(); err != nil {
		return nil, 0, err
	}
	if opts.User == "" {
		opts.User = k.user
	}
	tasks, out, err := k.Tasks.RunCompound(ctx, name, inputs, opts)
	return tasks, out, classify(err)
}

// Query answers a spatio-temporal request per the §2.1.5 sequence,
// buffering every answering object. For incremental consumption or
// pagination over large extents use QueryStream.
func (k *Kernel) Query(ctx context.Context, req Request) (*Result, error) {
	if err := k.request(&req, false); err != nil {
		return nil, err
	}
	res, err := k.Queries.Run(ctx, req)
	return res, classify(err)
}

// request is the preamble of every query entry point: the open check,
// strategy validation, the default user, and retrieval only for a reader
// pinned to an epoch (a derivation would write at epochs it cannot see).
func (k *Kernel) request(req *Request, pinned bool) error {
	if err := k.checkOpen(); err != nil {
		return err
	}
	if err := query.CheckStrategies(req.Strategies); err != nil {
		return err
	}
	if req.User == "" {
		req.User = k.user
	}
	if pinned {
		req.Strategies = []Strategy{Retrieve}
	}
	return nil
}

// Stream is a single-use cursor over streamed query results: range over
// All, then resume a later page by passing Cursor as Request.Cursor.
type Stream struct {
	k     *Kernel
	inner *query.Stream
}

// All returns the result sequence. Objects load lazily as the consumer
// pulls; errors arrive in the second position, classified against the
// package sentinels. Because the work is lazy, each pull re-checks that
// the kernel is still open — draining a stream after Close yields
// ErrClosed instead of touching closed storage.
func (s *Stream) All() iter.Seq2[*object.Object, error] {
	return func(yield func(*object.Object, error) bool) {
		next, stop := iter.Pull2(s.inner.All())
		defer stop()
		for {
			if err := s.k.checkOpen(); err != nil {
				yield(nil, err)
				return
			}
			o, err, ok := next()
			if !ok {
				return
			}
			if !yield(o, classify(err)) {
				return
			}
		}
	}
}

// Cursor reports where the iteration stopped: pass it as Request.Cursor
// to resume. Empty means the results were exhausted.
func (s *Stream) Cursor() string { return s.inner.Cursor() }

// QueryStream answers a request incrementally: the returned Stream
// yields objects one at a time instead of materialising the whole
// extent, honouring Request.Limit (page size) and Request.Cursor
// (resume). The §2.1.5 fallback chain (interpolation, derivation) runs
// lazily, only if the consumer drains an empty retrieval.
func (k *Kernel) QueryStream(ctx context.Context, req Request) (*Stream, error) {
	return k.stream(ctx, req, false, 0)
}

// stream is the one streaming path: Kernel.QueryStream's (epoch 0: the
// current one at the first pull) and Snapshot.QueryStream's (pinned).
func (k *Kernel) stream(ctx context.Context, req Request, pinned bool, epoch uint64) (*Stream, error) {
	if err := k.request(&req, pinned); err != nil {
		return nil, err
	}
	st, err := k.Queries.StreamAt(ctx, req, epoch)
	if err != nil {
		return nil, classify(err)
	}
	return &Stream{k: k, inner: st}, nil
}

// ExplainQuery previews how a request would be satisfied.
func (k *Kernel) ExplainQuery(ctx context.Context, req Request) (string, error) {
	if err := k.request(&req, false); err != nil {
		return "", err
	}
	text, err := k.Queries.Explain(ctx, req)
	return text, classify(err)
}

// Explain renders the derivation history of an object.
func (k *Kernel) Explain(oid object.OID) string { return k.Tasks.Explain(oid) }

// Reproduce re-runs a recorded task in memory and reports whether the
// result matches the recorded output. It records nothing — no task, no
// object, no memo entry, no WAL write — and returns an unrecorded task
// (ID and Output 0) describing the re-run. A stale input fails with
// ErrStale; a load or other external derivation cannot be reproduced.
func (k *Kernel) Reproduce(ctx context.Context, id task.ID) (*task.Task, bool, error) {
	if err := k.checkOpen(); err != nil {
		return nil, false, err
	}
	t, same, err := k.Tasks.Reproduce(ctx, id, task.RunOptions{User: k.user})
	return t, same, classify(err)
}

// Net builds the current derivation diagram (places = classes,
// transitions = processes).
func (k *Kernel) Net() (*petri.Net, error) {
	if err := k.checkOpen(); err != nil {
		return nil, err
	}
	n, err := petri.BuildNet(k.Catalog, k.Processes)
	return n, classify(err)
}

// CanDerive answers the §2.1.6 reachability question for a class under a
// predicate: could an object of this class be derived from stored data?
func (k *Kernel) CanDerive(class string, pred sptemp.Extent) (bool, error) {
	if err := k.checkOpen(); err != nil {
		return false, err
	}
	n, err := k.Net()
	if err != nil {
		return false, classify(err)
	}
	m, err := petri.CurrentMarking(k.Catalog, k.Objects, pred)
	if err != nil {
		return false, classify(err)
	}
	return n.CanDerive(m, class), nil
}

// Stats summarises the database for the CLI and reports, including MVCC
// health: the current commit epoch, stored versions (live + awaiting
// reclamation), versions reclaimed, the oldest pinned snapshot epoch (0 = none),
// and WAL growth since the last checkpoint.
//
// Deprecated-in-spirit but frozen: the line is golden-tested and kept
// stable for scrapers. New code should read StatsSnapshot (structured)
// — this is now just its String form.
func (k *Kernel) Stats() string {
	return k.StatsSnapshot().String()
}
