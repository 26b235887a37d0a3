// Package deriv is the derived-data manager — the subsystem that makes
// derivation relationships actionable, not just recorded. The paper's
// premise is that derived data must be *managed*: the system knows which
// derived objects depend on which base data (§2.1.5's derivation
// relationship), so when base data changes it can invalidate, recompute,
// or discard the dependents instead of silently serving outdated results.
//
// Staleness is a function of lineage: a derived object is stale when an
// input of its producer task has a newest version, a tombstone or no
// version at all newer than the object's own version, or is itself
// stale. The executor commits a derived version at the epoch it read its
// inputs at, so the rule needs only what is durable already — the task
// log (which also yields the dependency graph, input → outputs) and the
// version chains. The stale set is kept in memory, judged afresh at open
// and updated as mutations are swept, tasks recorded and objects
// refreshed; nothing about it is written. Three refresh policies govern
// recovery:
//
//   - Lazy: queries skip stale objects and transparently re-derive them
//     on touch through the §2.1.5 fallback chain (stale memo hits are
//     refreshed in place).
//   - Eager: a background refresher recomputes stale objects on the
//     worker pool as soon as they are invalidated.
//   - Manual: nothing happens until Kernel.RefreshStale; queries return
//     stale objects flagged as such.
//
// Orthogonally, a cost-based rematerialisation decision weighs each
// invalidated object's recorded derivation cost against its stored size:
// objects that are trivial to recompute but expensive to keep are dropped
// (re-derived on demand), objects that are expensive to recompute are
// refreshed in the background even under Lazy, and the middle band
// follows the policy.
package deriv

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/sflight"
	"gaea/internal/task"
)

// Policy names a refresh policy.
type Policy string

// The three refresh policies. The zero value defaults to Lazy.
const (
	Lazy   Policy = "lazy"
	Eager  Policy = "eager"
	Manual Policy = "manual"
)

// ErrUnrefreshable marks stale objects that cannot be recomputed in
// place: external derivations (interpolations, loads) and objects whose
// producer task is unknown.
var ErrUnrefreshable = errors.New("deriv: object cannot be recomputed in place")

// The rematerialisation decision's thresholds (decide): an invalidated
// object that took at least recomputeMicros to derive is refreshed in the
// background even under Lazy; one cheaper than dropMicros and at least
// dropBytes large is dropped, since storing it costs more than deriving
// it again.
const (
	recomputeMicros = 200_000  // 200ms
	dropMicros      = 2_000    // 2ms
	dropBytes       = 64 << 10 // 64KiB
)

// costModel holds the thresholds decide applies: the constants above,
// except in a test that makes drops happen.
type costModel struct {
	RecomputeMicros, DropMicros, DropBytes int64
}

// action is the per-object rematerialisation decision.
type action int

const (
	actionKeep action = iota
	actionRecompute
	actionDrop
)

// Config tunes a Manager.
type Config struct {
	// Policy is the refresh policy (default Lazy).
	Policy Policy
	// Workers caps the goroutines used to refresh independent stale
	// objects in parallel (0 = GOMAXPROCS, via the task scheduler).
	Workers int
	// Metrics is the registry the manager reports into (nil =
	// unobserved): invalidation sweeps, refresh decisions, and the
	// cost-model's keep/recompute/drop outcomes.
	Metrics *obs.Registry
}

// Counters reports the manager's activity for Kernel.Stats.
type Counters struct {
	// Deps is the number of tracked dependency edges (input → output).
	Deps int
	// Stale is the number of objects currently stale.
	Stale int
	// Epoch is the highest commit epoch an invalidation has been found
	// at (stale marks are epoch-qualified for snapshot readers).
	Epoch uint64
	// Invalidations counts stale markings propagated since open.
	Invalidations int64
	// Refreshes counts objects recomputed in place since open.
	Refreshes int64
	// Drops counts invalidated objects dropped by the cost model.
	Drops int64
	// Sweeps counts invalidation passes over the dependency graph: a
	// session commit propagates all of its mutations in ONE sweep, so N
	// batched updates cost one graph walk, not N.
	Sweeps int64
}

// Manager tracks derivation dependencies and staleness.
type Manager struct {
	obj    *object.Store
	exec   *task.Executor
	policy Policy
	cost   costModel

	workers int

	mu sync.RWMutex
	// deps maps an input OID to the set of output OIDs directly derived
	// from it, distilled from task lineage.
	deps  map[object.OID]map[object.OID]bool
	edges int
	// stale maps each stale OID to its invalidation epochs.
	stale map[object.OID]staleMark
	epoch uint64
	// pending queues OIDs for the background refresher.
	pending map[object.OID]bool

	invalidations atomic.Int64
	refreshes     atomic.Int64
	drops         atomic.Int64
	sweeps        atomic.Int64

	// flights deduplicates concurrent refreshes of the same object.
	flights sflight.Group[struct{}]

	// Background refresher lifecycle.
	ctx    context.Context
	cancel context.CancelFunc
	kick   chan struct{}
	done   sync.WaitGroup

	// Registry instruments (orphans when Config.Metrics was nil).
	sweepNS      *obs.Histogram
	refreshNS    *obs.Histogram
	decKeep      *obs.Counter
	decRecompute *obs.Counter
	decDrop      *obs.Counter
}

// staleMark records when an object went stale: `first`, the EARLIEST
// outstanding invalidation, answers snapshot visibility (IsStaleAt);
// `last`, the latest, guards refresh races — a refresh clears the mark
// only if the version it wrote is no older than last.
type staleMark struct {
	first, last uint64
}

// widen extends a mark to cover the epochs of another.
func (mk staleMark) widen(o staleMark) staleMark {
	return staleMark{first: min(mk.first, o.first), last: max(mk.last, o.last)}
}

// Open builds the dependency graph from the recorded task log, judges
// every derived object by the lineage rule to rebuild the stale set,
// wires the executor's staleness hooks, and (for policies that refresh
// automatically) starts the background refresher.
func Open(obj *object.Store, exec *task.Executor, cfg Config) (*Manager, error) {
	if cfg.Policy == "" {
		cfg.Policy = Lazy
	}
	switch cfg.Policy {
	case Lazy, Eager, Manual:
	default:
		return nil, fmt.Errorf("deriv: unknown refresh policy %q", cfg.Policy)
	}
	m := &Manager{
		obj:     obj,
		exec:    exec,
		policy:  cfg.Policy,
		cost:    costModel{RecomputeMicros: recomputeMicros, DropMicros: dropMicros, DropBytes: dropBytes},
		workers: cfg.Workers,
		deps:    make(map[object.OID]map[object.OID]bool),
		stale:   make(map[object.OID]staleMark),
		pending: make(map[object.OID]bool),
		kick:    make(chan struct{}, 1),
	}
	m.sweepNS = cfg.Metrics.Histogram("deriv_sweep_ns")
	m.refreshNS = cfg.Metrics.Histogram("deriv_refresh_ns")
	m.decKeep = cfg.Metrics.Counter("deriv_decide_keep_total")
	m.decRecompute = cfg.Metrics.Counter("deriv_decide_recompute_total")
	m.decDrop = cfg.Metrics.Counter("deriv_decide_drop_total")
	if reg := cfg.Metrics; reg != nil {
		reg.GaugeFunc("deriv_sweeps_total", m.sweeps.Load)
		reg.GaugeFunc("deriv_invalidations_total", m.invalidations.Load)
		reg.GaugeFunc("deriv_refreshes_total", m.refreshes.Load)
		reg.GaugeFunc("deriv_drops_total", m.drops.Load)
		reg.GaugeFunc("deriv_stale", func() int64 {
			m.mu.RLock()
			defer m.mu.RUnlock()
			return int64(len(m.stale))
		})
		reg.GaugeFunc("deriv_deps", func() int64 {
			m.mu.RLock()
			defer m.mu.RUnlock()
			return int64(m.edges)
		})
	}
	var derived []object.OID
	for _, t := range exec.All() {
		if len(t.Inputs) > 0 {
			m.addEdges(t)
			derived = append(derived, t.Output)
		}
	}
	m.judgeLocked(derived, 0)
	for _, mk := range m.stale {
		m.epoch = max(m.epoch, mk.last)
	}
	exec.OnRecord = m.taskRecorded
	exec.Stale = m.IsStale
	if m.policy != Manual {
		// Manual promises that nothing recomputes until RefreshStale, so
		// stale memo hits derive a fresh object instead of refreshing the
		// recorded one in place.
		exec.Refresh = m.RefreshObject
	}

	//lint:gaea-allow ctxflow background refresher lifecycle is owned by Close, not the opener
	m.ctx, m.cancel = context.WithCancel(context.Background())
	if m.policy != Manual {
		m.done.Add(1)
		go m.refresher()
	}
	// A crash may have left stale objects behind under Eager; pick them
	// up immediately.
	if m.policy == Eager {
		m.enqueue(m.Stale()...)
	}
	return m, nil
}

// Close stops the background refresher. It must be called before the
// underlying store is closed.
func (m *Manager) Close() {
	m.cancel()
	m.done.Wait()
}

// Policy returns the active refresh policy.
func (m *Manager) Policy() Policy { return m.policy }

// taskRecorded extends the dependency graph with a fresh task's lineage
// and judges its output (the executor's OnRecord hook): a derivation over
// a stale input is stale, and a refreshed output is fresh again unless an
// input changed since it was read. What was computed from a version a
// refresh superseded, and is not stale yet, is judged too.
func (m *Manager) taskRecorded(t *task.Task) {
	if len(t.Inputs) == 0 {
		return // a load: base data is never stale
	}
	m.addEdges(t)
	m.mu.Lock()
	oids := []object.OID{t.Output}
	for _, d := range m.multiClosureLocked(map[object.OID]bool{t.Output: true}) {
		if _, was := m.stale[d]; !was {
			oids = append(oids, d)
		}
	}
	marked := m.judgeLocked(oids, 0)
	m.invalidations.Add(int64(len(marked)))
	m.mu.Unlock()
	if m.policy == Eager {
		m.enqueue(marked...)
	}
}

// addEdges makes every output of a task a dependent of every input. A
// load has no inputs, so its whole set of outputs costs nothing here.
func (m *Manager) addEdges(t *task.Task) {
	if len(t.Inputs) == 0 {
		return
	}
	outputs := t.Outputs()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, oids := range t.Inputs {
		for _, in := range oids {
			outs := m.deps[in]
			if outs == nil {
				outs = make(map[object.OID]bool)
				m.deps[in] = outs
			}
			for _, out := range outputs {
				if !outs[out] {
					outs[out] = true
					m.edges++
				}
			}
		}
	}
}

// staleLocked applies the lineage rule to one object, and returns the
// epochs of the causes it finds as its mark. A sweep passes the epoch its
// roots changed at as at: an object it reaches whose version is no newer
// was computed before the change. Base data, and an object that is gone,
// is never stale. Callers hold mu.
func (m *Manager) staleLocked(oid object.OID, at uint64) (staleMark, bool) {
	t, ok := m.exec.Producer(oid)
	if !ok || len(t.Inputs) == 0 {
		return staleMark{}, false
	}
	v, live := m.obj.Head(oid)
	if !live {
		return staleMark{}, false
	}
	mk, stale := staleMark{first: ^uint64(0)}, false
	cause := func(c staleMark) { mk, stale = mk.widen(c), true }
	if v <= at {
		cause(staleMark{at, at})
	}
	for _, ins := range t.Inputs {
		for _, in := range ins {
			if h, live := m.obj.Head(in); !live || h > v {
				cause(staleMark{max(h, v), max(h, v)})
			}
			if im, ok := m.stale[in]; ok {
				cause(im)
			}
		}
	}
	return mk, stale
}

// judgeLocked judges each of oids by the rule (staleLocked with at) and
// returns those it finds stale, whose marks it sets or widens. One it
// finds fresh loses its mark unless an invalidation newer than its
// version is outstanding. An input is always older than what was derived
// from it, and OIDs are reserved in order, so judging oids sorted in
// place, ascending, judges inputs first. Callers hold mu (Open owns the
// manager alone).
func (m *Manager) judgeLocked(oids []object.OID, at uint64) []object.OID {
	slices.Sort(oids)
	var stale []object.OID
	for _, oid := range slices.Compact(oids) {
		cur, was := m.stale[oid]
		if mk, ok := m.staleLocked(oid, at); ok {
			if was {
				mk = mk.widen(cur)
			}
			m.stale[oid] = mk
			stale = append(stale, oid)
		} else if v, live := m.obj.Head(oid); was && (!live || cur.last <= v) {
			delete(m.stale, oid)
		}
	}
	return stale
}

// IsStale reports whether an object is stale.
func (m *Manager) IsStale(oid object.OID) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.stale[oid]
	return ok
}

// IsStaleAt reports whether an object was already stale at a snapshot
// epoch: the EARLIEST outstanding invalidation happened at or before it.
// An object invalidated only by LATER commits is fresh in that
// snapshot's world — the reader sees the pre-mutation inputs, which the
// object still matches.
func (m *Manager) IsStaleAt(oid object.OID, epoch uint64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	mk, ok := m.stale[oid]
	return ok && mk.first <= epoch
}

// Stale returns the OIDs currently stale, ascending.
func (m *Manager) Stale() []object.OID {
	m.mu.RLock()
	out := make([]object.OID, 0, len(m.stale))
	for oid := range m.stale {
		out = append(out, oid)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// multiClosureLocked walks the dependency graph breadth-first from a set
// of roots at once: the union of their transitive dependents (excluding
// the roots themselves), each visited exactly once in BFS order, so
// direct dependents precede deeper ones.
func (m *Manager) multiClosureLocked(roots map[object.OID]bool) []object.OID {
	seen := make(map[object.OID]bool, len(roots))
	queue := make([]object.OID, 0, len(roots))
	for root := range roots {
		seen[root] = true
		queue = append(queue, root)
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	var order []object.OID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		outs := make([]object.OID, 0, len(m.deps[cur]))
		for out := range m.deps[cur] {
			outs = append(outs, out)
		}
		sort.Slice(outs, func(i, j int) bool { return outs[i] < outs[j] })
		for _, out := range outs {
			if !seen[out] {
				seen[out] = true
				order = append(order, out)
				queue = append(queue, out)
			}
		}
	}
	return order
}

// ObjectsChanged propagates a batch of mutations in ONE invalidation
// sweep under the batch's COMMIT EPOCH: every transitive dependent of an
// updated or deleted object that the lineage rule finds stale — one whose
// version is no newer than the epoch, or computed from a stale input — is
// marked, and the rematerialisation decision is applied to it once,
// however many roots reach it. A dependent derived after the commit read
// the new state and stays fresh, and a snapshot pinned before the commit
// still sees the dependents as fresh (IsStaleAt). The roots are judged
// anew: an updated object is as fresh as its inputs, a deleted one is
// gone (its memo entries are dropped so identical instantiations
// re-execute). Session commits call this once per batch. It writes
// nothing.
func (m *Manager) ObjectsChanged(updated, deleted []object.OID, epoch uint64) error {
	if len(updated)+len(deleted) == 0 {
		return nil
	}
	sweepStart := time.Now()
	defer m.sweepNS.ObserveSince(sweepStart)
	for _, oid := range deleted {
		m.exec.ForgetOutput(oid)
	}
	changed := slices.Concat(updated, deleted)
	roots := make(map[object.OID]bool, len(changed))
	for _, oid := range changed {
		roots[oid] = true
	}
	m.sweeps.Add(1)
	m.mu.Lock()
	m.epoch = max(m.epoch, epoch)
	marked := m.judgeLocked(m.multiClosureLocked(roots), epoch)
	// The roots after their dependents: one may be computed from
	// another's dependent.
	marked = append(marked, m.judgeLocked(changed, 0)...)
	m.invalidations.Add(int64(len(marked)))
	m.mu.Unlock()

	var firstErr error
	var recompute []object.OID
	for _, d := range marked {
		act := m.decide(d)
		switch act {
		case actionKeep:
			m.decKeep.Inc()
		case actionRecompute:
			m.decRecompute.Inc()
		case actionDrop:
			m.decDrop.Inc()
		}
		if act == actionDrop {
			if err := m.drop(d); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		if act == actionRecompute || m.policy == Eager {
			recompute = append(recompute, d)
		}
	}
	m.enqueue(recompute...)
	return firstErr
}

// decide applies the cost model to one invalidated object.
func (m *Manager) decide(oid object.OID) action {
	t, ok := m.exec.Producer(oid)
	if !ok || t.Version == 0 {
		// External derivations cannot be recomputed in place; keep them
		// stale (queries re-derive around them, RefreshStale drops them).
		return actionKeep
	}
	size, err := m.obj.RecordSize(oid)
	if err != nil {
		return actionKeep
	}
	if t.Micros < m.cost.DropMicros && size >= m.cost.DropBytes {
		return actionDrop
	}
	if t.Micros >= m.cost.RecomputeMicros {
		return actionRecompute
	}
	return actionKeep
}

// drop discards an invalidated derived object whose storage costs more
// than its recomputation: the object and its stale marking go away, the
// memo entry is forgotten, and the §2.1.5 chain re-derives on demand.
func (m *Manager) drop(oid object.OID) error {
	err := m.obj.Delete(oid)
	if err != nil && !errors.Is(err, object.ErrNotFound) {
		return err
	}
	m.exec.ForgetOutput(oid)
	if err == nil {
		m.drops.Add(1)
	}
	m.mu.Lock()
	delete(m.stale, oid)
	m.mu.Unlock()
	return nil
}

// RefreshObject recomputes a stale object in place, refreshing stale
// ancestors first (a refresh against stale inputs would launder stale
// data into a fresh-looking object). Refreshing a non-stale object is a
// no-op. Concurrent refreshes of the same object collapse into one.
func (m *Manager) RefreshObject(ctx context.Context, oid object.OID) error {
	_, err := m.refreshObject(ctx, oid, map[object.OID]bool{})
	return err
}

func (m *Manager) refreshObject(ctx context.Context, oid object.OID, onPath map[object.OID]bool) (bool, error) {
	if !m.IsStale(oid) {
		return false, nil
	}
	if onPath[oid] {
		return false, fmt.Errorf("deriv: cyclic lineage at object %d", oid)
	}
	onPath[oid] = true
	defer delete(onPath, oid)

	_, _, err := m.flights.Do(ctx, strconv.FormatUint(uint64(oid), 10), func() (struct{}, error) {
		if !m.IsStale(oid) {
			return struct{}{}, nil // refreshed while we were electing
		}
		t, ok := m.exec.Producer(oid)
		if !ok {
			return struct{}{}, fmt.Errorf("%w: object %d has no producer task", ErrUnrefreshable, oid)
		}
		if t.Version == 0 {
			return struct{}{}, fmt.Errorf("%w: object %d was produced by external derivation %q", ErrUnrefreshable, oid, t.Process)
		}
		for name, oids := range t.Inputs {
			for _, in := range oids {
				if !m.IsStale(in) {
					continue
				}
				if _, err := m.refreshObject(ctx, in, onPath); err != nil {
					return struct{}{}, fmt.Errorf("refreshing input %s=%d of object %d: %w", name, in, oid, err)
				}
			}
		}
		if _, err := m.exec.RecomputeTask(ctx, t.ID, task.RunOptions{User: t.User}); err != nil {
			return struct{}{}, err
		}
		// taskRecorded judged it again: fresh, unless an input changed
		// after the recompute read it.
		if !m.IsStale(oid) {
			m.refreshes.Add(1)
		}
		return struct{}{}, nil
	})
	// The object was stale on entry and the flight succeeded, so a
	// refresh ran within this call — by us as leader, by a flight we
	// joined, or by a dependent's recursive ancestor refresh. (It may be
	// stale again already if an invalidation raced the recompute.)
	return err == nil, err
}

// RefreshStale recomputes every stale object (Manual policy's refresh
// entry point; also used by the background refresher). Independent
// objects refresh in parallel on the worker pool; dependency order is
// honoured by refreshing ancestors first. Stale objects that cannot be
// recomputed in place (external derivations) are dropped — they cannot
// be brought up to date, and dropping leaves re-derivation to the
// standard query chain. Returns the number of objects refreshed.
func (m *Manager) RefreshStale(ctx context.Context) (int, error) {
	return m.refreshSet(ctx, m.Stale())
}

func (m *Manager) refreshSet(ctx context.Context, oids []object.OID) (int, error) {
	if len(oids) == 0 {
		return 0, nil
	}
	refreshStart := time.Now()
	defer m.refreshNS.ObserveSince(refreshStart)
	var (
		refreshed atomic.Int64
		mu        sync.Mutex
		firstErr  error
	)
	fns := make([]func(context.Context) error, 0, len(oids))
	for _, oid := range oids {
		oid := oid
		fns = append(fns, func(ctx context.Context) error {
			did, err := m.refreshObject(ctx, oid, map[object.OID]bool{})
			switch {
			case err == nil:
				// Not did: already refreshed since the snapshot — by a
				// sibling's recursive ancestor pass or a concurrent caller.
				// It was stale when this set was taken, so it counts
				// (unless it was dropped rather than refreshed).
				if did || m.obj.Exists(oid) {
					refreshed.Add(1)
				}
			case errors.Is(err, ErrUnrefreshable), errors.Is(err, object.ErrNotFound):
				// External derivations and objects whose recorded inputs
				// were deleted can never be brought up to date in place;
				// drop them so the stale set converges and re-derivation
				// goes through the standard query chain.
				if derr := m.drop(oid); derr != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = derr
					}
					mu.Unlock()
				}
			case errors.Is(err, object.ErrConflict):
				// An input kept changing under the recompute: the object
				// stays stale, and the change's own sweep judges it again.
			case ctx.Err() != nil:
				return ctx.Err() // cancelled: stop the pool
			default:
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
			return nil // best effort: one failure doesn't stop the rest
		})
	}
	if err := task.Parallel(ctx, m.workers, fns); err != nil {
		return int(refreshed.Load()), err
	}
	return int(refreshed.Load()), firstErr
}

// enqueue queues objects for the background refresher and wakes it.
func (m *Manager) enqueue(oids ...object.OID) {
	if len(oids) == 0 || m.policy == Manual {
		return
	}
	m.mu.Lock()
	for _, oid := range oids {
		m.pending[oid] = true
	}
	m.mu.Unlock()
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// takePending drains the refresh queue.
func (m *Manager) takePending() []object.OID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) == 0 {
		return nil
	}
	out := make([]object.OID, 0, len(m.pending))
	for oid := range m.pending {
		out = append(out, oid)
	}
	m.pending = make(map[object.OID]bool)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refresher is the background recomputation loop (Eager policy, and the
// expensive-to-recompute band under Lazy).
func (m *Manager) refresher() {
	defer m.done.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-m.kick:
			for {
				oids := m.takePending()
				if len(oids) == 0 {
					break
				}
				// Errors are reflected in the counters (objects stay
				// stale); the refresher itself must not die.
				m.refreshSet(m.ctx, oids)
			}
		}
	}
}

// Counters returns the manager's activity counters.
func (m *Manager) Counters() Counters {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return Counters{
		Deps:          m.edges,
		Stale:         len(m.stale),
		Epoch:         m.epoch,
		Invalidations: m.invalidations.Load(),
		Refreshes:     m.refreshes.Load(),
		Drops:         m.drops.Load(),
		Sweeps:        m.sweeps.Load(),
	}
}

// String renders the counters for Kernel.Stats.
func (c Counters) String() string {
	return fmt.Sprintf("deps=%d stale=%d epoch=%d sweeps=%d invalidated=%d refreshed=%d dropped=%d",
		c.Deps, c.Stale, c.Epoch, c.Sweeps, c.Invalidations, c.Refreshes, c.Drops)
}
