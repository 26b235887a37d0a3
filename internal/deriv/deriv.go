// Package deriv is the derived-data manager — the subsystem that makes
// derivation relationships actionable, not just recorded. The paper's
// premise is that derived data must be *managed*: the system knows which
// derived objects depend on which base data (§2.1.5's derivation
// relationship), so when base data changes it can invalidate, recompute,
// or discard the dependents instead of silently serving outdated results.
//
// The manager maintains a dependency graph distilled from task lineage
// (input OID → output OIDs), rebuilt on open from the persistent task log
// and extended on every fresh task. Updating or deleting an object marks
// every transitive dependent stale under a monotonically increasing
// epoch, persisted through the storage layer so staleness survives
// restarts. Three refresh policies govern recovery:
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
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/sflight"
	"gaea/internal/storage"
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

// CostModel tunes the rematerialisation decision. Zero fields take the
// defaults.
type CostModel struct {
	// RecomputeMicros: an invalidated object whose recorded derivation
	// cost is at or above this is refreshed in the background even under
	// the Lazy policy (too expensive to leave to query time).
	RecomputeMicros int64
	// DropMicros/DropBytes: an invalidated object cheaper than DropMicros
	// to re-derive and at least DropBytes large is dropped — storage costs
	// more than recomputation.
	DropMicros int64
	DropBytes  int64
}

func (c CostModel) withDefaults() CostModel {
	if c.RecomputeMicros == 0 {
		c.RecomputeMicros = 200_000 // 200ms: worth refreshing ahead of queries
	}
	if c.DropMicros == 0 {
		c.DropMicros = 2_000 // 2ms: cheaper to re-derive than to keep…
	}
	if c.DropBytes == 0 {
		c.DropBytes = 64 << 10 // …when at least 64KiB would be kept
	}
	return c
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
	// Cost tunes the rematerialisation decision.
	Cost CostModel
	// Metrics is the registry the manager reports into (nil =
	// unobserved): invalidation sweeps, refresh decisions, and the
	// cost-model's keep/recompute/drop outcomes.
	Metrics *obs.Registry
}

// Counters reports the manager's activity for Kernel.Stats.
type Counters struct {
	// Deps is the number of tracked dependency edges (input → output).
	Deps int
	// Stale is the number of objects currently marked stale.
	Stale int
	// Epoch is the highest commit epoch an invalidation sweep has marked
	// staleness at (stale marks are epoch-qualified for snapshot readers).
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
	st     *storage.Store
	obj    *object.Store
	exec   *task.Executor
	policy Policy
	cost   CostModel

	workers int

	mu sync.RWMutex
	// deps maps an input OID to the set of output OIDs directly derived
	// from it, distilled from task lineage.
	deps  map[object.OID]map[object.OID]bool
	edges int
	// stale maps an OID to its invalidation epochs.
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

const staleKeyPrefix = "deriv/stale/"

func staleKey(oid object.OID) string {
	return staleKeyPrefix + strconv.FormatUint(uint64(oid), 10)
}

// staleMark records when an object was invalidated. Both ends of the
// range matter: `first` (the EARLIEST outstanding invalidation) answers
// snapshot visibility — a reader pinned at or after it must see the
// object as stale; `last` (the latest) guards refresh races — a
// recompute that started before a newer invalidation landed must not
// clear the mark (clearStaleIf compares against last). Keeping only one
// of the two breaks the other property.
type staleMark struct {
	first, last uint64
}

func encodeStaleMark(m staleMark) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, m.first)
	binary.LittleEndian.PutUint64(buf[8:], m.last)
	return buf
}

func decodeStaleMark(raw []byte) (staleMark, bool) {
	if len(raw) != 16 {
		return staleMark{}, false
	}
	return staleMark{
		first: binary.LittleEndian.Uint64(raw),
		last:  binary.LittleEndian.Uint64(raw[8:]),
	}, true
}

// Open builds the dependency graph from the recorded task log, loads the
// persisted stale set, wires the executor's staleness hooks, and (for
// policies that refresh automatically) starts the background refresher.
func Open(st *storage.Store, obj *object.Store, exec *task.Executor, cfg Config) (*Manager, error) {
	if cfg.Policy == "" {
		cfg.Policy = Lazy
	}
	switch cfg.Policy {
	case Lazy, Eager, Manual:
	default:
		return nil, fmt.Errorf("deriv: unknown refresh policy %q", cfg.Policy)
	}
	m := &Manager{
		st:      st,
		obj:     obj,
		exec:    exec,
		policy:  cfg.Policy,
		cost:    cfg.Cost.withDefaults(),
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
	for _, t := range exec.All() {
		m.addEdges(t)
	}
	for _, key := range st.MetaKeys(staleKeyPrefix) {
		raw, ok := st.MetaGet(key)
		if !ok {
			continue
		}
		mark, ok := decodeStaleMark(raw)
		if !ok {
			return nil, fmt.Errorf("deriv: corrupt stale mark %q: %d bytes", key, len(raw))
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(key, staleKeyPrefix), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("deriv: corrupt stale key %q", key)
		}
		m.stale[object.OID(n)] = mark
		if mark.last > m.epoch {
			m.epoch = mark.last
		}
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
// (the executor's OnRecord hook).
func (m *Manager) taskRecorded(t *task.Task) { m.addEdges(t) }

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

// IsStale reports whether an object is marked stale.
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

// Stale returns the OIDs currently marked stale, ascending.
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

// Dependents returns the transitive derived OIDs of an object per the
// tracked graph, ascending.
func (m *Manager) Dependents(oid object.OID) []object.OID {
	m.mu.RLock()
	order := m.closureLocked(oid)
	m.mu.RUnlock()
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return order
}

// closureLocked walks the dependency graph breadth-first from root,
// returning the transitive dependents (excluding root) in BFS order, so
// direct dependents precede deeper ones.
func (m *Manager) closureLocked(root object.OID) []object.OID {
	return m.multiClosureLocked(map[object.OID]bool{root: true})
}

// multiClosureLocked is closureLocked from a set of roots at once: the
// union of their transitive dependents (excluding the roots themselves),
// each visited exactly once in BFS order.
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

// ObjectUpdated propagates an update of an object: every transitive
// dependent is marked stale (at the store's latest PUBLISHED epoch —
// callers that know the exact commit epoch should use ObjectsChanged)
// and the rematerialisation decision is applied to each. The object
// itself stays fresh — its new state is the truth.
func (m *Manager) ObjectUpdated(oid object.OID) error {
	return m.ObjectsChanged([]object.OID{oid}, nil, m.obj.CurrentEpoch())
}

// ObjectDeleted propagates a deletion: the object's memo/producer entries
// are dropped and every transitive dependent is invalidated.
func (m *Manager) ObjectDeleted(oid object.OID) error {
	return m.ObjectsChanged(nil, []object.OID{oid}, m.obj.CurrentEpoch())
}

// ObjectsChanged propagates a batch of mutations in ONE invalidation
// sweep: the transitive dependents of every updated or deleted object are
// marked stale under the COMMIT EPOCH of the mutating batch, and the
// rematerialisation decision is applied to each dependent once, however
// many roots reach it. Epoch-qualifying the marks gives snapshot readers
// the right answer: a reader pinned before the mutation committed sees
// the dependents as fresh (IsStaleAt), because in its world they are.
// The roots themselves stay fresh — an updated object's new state is
// the truth of the batch, a deleted one is gone (its memo entries are
// dropped so identical instantiations re-execute). Session commits call
// this once, amortising the graph walk that per-op mutation would repeat
// N times over a shared subtree.
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
	// Updating a previously-stale object makes it fresh by definition; a
	// deleted one is gone.
	firstErr := m.clearStale(changed...)
	m.sweeps.Add(1)
	m.mu.Lock()
	if epoch > m.epoch {
		m.epoch = epoch
	}
	order := m.multiClosureLocked(roots)
	m.mu.Unlock()

	var marked, recompute []object.OID
	for _, d := range order {
		if !m.obj.Exists(d) {
			continue // already dropped or deleted
		}
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
			// No point durably marking an object we discard right away.
			m.invalidations.Add(1)
			if err := m.drop(d); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		marked = append(marked, d)
		if act == actionRecompute || m.policy == Eager {
			recompute = append(recompute, d)
		}
	}
	if err := m.markStale(marked, epoch); err != nil {
		if firstErr == nil {
			firstErr = err
		}
		recompute = nil // nothing was marked
	}
	m.enqueue(recompute...)
	return firstErr
}

// markStale records oids as stale at the given epoch, durably, in one
// batch: a fresh mark takes the epoch as both ends, a repeat invalidation
// widens the range (first stays at the earliest, last advances to the
// newest). The batch commits under the manager lock and memory changes
// only once it has, so memory and disk cannot disagree about a marking.
func (m *Manager) markStale(oids []object.OID, epoch uint64) error {
	if len(oids) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	marks := make([]staleMark, len(oids))
	b := m.st.NewBatch()
	for i, oid := range oids {
		marks[i] = staleMark{first: epoch, last: epoch}
		if cur, ok := m.stale[oid]; ok {
			marks[i] = staleMark{first: min(cur.first, epoch), last: max(cur.last, epoch)}
		}
		b.MetaSet(staleKey(oid), encodeStaleMark(marks[i]))
	}
	if _, err := b.Commit(); err != nil {
		return err
	}
	for i, oid := range oids {
		m.stale[oid] = marks[i]
	}
	m.invalidations.Add(int64(len(oids)))
	return nil
}

// staleEpoch returns the NEWEST epoch oid was invalidated at, if stale
// (the value clearStaleIf must match for a refresh to clear the mark).
func (m *Manager) staleEpoch(oid object.OID) (uint64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	mk, ok := m.stale[oid]
	return mk.last, ok
}

// clearStale removes the stale markings of those of oids that have one,
// durably, in one batch; memory changes only once the batch commits.
func (m *Manager) clearStale(oids ...object.OID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := m.st.NewBatch()
	var cleared []object.OID
	for _, oid := range oids {
		if _, was := m.stale[oid]; was {
			b.MetaDelete(staleKey(oid))
			cleared = append(cleared, oid)
		}
	}
	if len(cleared) == 0 {
		return nil
	}
	if _, err := b.Commit(); err != nil {
		return err
	}
	for _, oid := range cleared {
		delete(m.stale, oid)
	}
	return nil
}

// clearStaleIf removes oid's stale marking only if its newest
// invalidation is still the given epoch, and reports whether it did. A
// refresh that raced with a newer invalidation must not wipe the newer
// marking — the recompute may have read pre-invalidation inputs, so the
// object stays stale and is refreshed again. Memory changes only once
// the removal is durable.
func (m *Manager) clearStaleIf(oid object.OID, epoch uint64) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur, was := m.stale[oid]; !was || cur.last != epoch {
		return false, nil
	}
	if err := m.st.MetaDelete(staleKey(oid)); err != nil {
		return false, err
	}
	delete(m.stale, oid)
	return true, nil
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
	return m.clearStale(oid)
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
		// Snapshot the invalidation epoch before touching any inputs: an
		// invalidation landing during the recompute must survive it.
		epoch, stale := m.staleEpoch(oid)
		if !stale {
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
		cleared, err := m.clearStaleIf(oid, epoch)
		if cleared {
			m.refreshes.Add(1)
		}
		return struct{}{}, err
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
