// Package task implements the Task construct of §2.1.2: "the instantiation
// of a process with input data objects is called a task. Every task will
// generate a set of objects (most of the time just one) for the output
// class." Tasks are the data-object-level derivation records (§2.1.5 item
// 2): each one stores which process version ran, over which input OIDs,
// producing which output OIDs — the derivation history that makes shared
// data interpretable and experiments reproducible. A derivation has one
// output; a base-data load has the whole set a session created for one
// class under one note, so provenance is kept at the coarsest grain that
// is still exact (one record per load, not one per object).
//
// A task is persisted only with its outputs: a derivation's output object
// and its task record commit as one storage batch — one WAL group — and
// so does a session's load group, so after a crash an object exists if
// and only if its producer task does.
//
// The executor also provides memoisation (an identical instantiation is
// answered from the recorded task instead of recomputed) and lineage
// queries (ancestors, descendants, and a human-readable derivation
// explanation).
//
// Execution is concurrent: independent steps of a compound process run in
// parallel on a bounded worker pool (see scheduler.go), memoisation is
// single-flight (N identical concurrent instantiations execute once; the
// other N−1 callers receive the memoised task), and every entry point
// takes a context for cancellation and deadlines.
package task

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gaea/internal/adt"
	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/process"
	"gaea/internal/sflight"
	"gaea/internal/sptemp"
	"gaea/internal/storage"
	"gaea/internal/value"
)

// ID identifies a task.
type ID uint64

// Errors returned by the executor.
var (
	ErrTaskNotFound = errors.New("task: not found")
	ErrExec         = errors.New("task: execution failed")
	// ErrStaleInput is returned by Reproduce when a recorded input object
	// is marked stale: re-running the task would not reproduce the
	// recorded input state, so the mismatch is reported up front.
	ErrStaleInput = errors.New("task: input is stale")
	// ErrCorruptLog is returned by OpenExecutor when a record of the task
	// log does not decode, or is a delta whose base is not in the log.
	ErrCorruptLog = errors.New("task: corrupt record")
)

// Task is one recorded derivation. The log stores it as a binary record
// (record.go), whole or as a delta against an earlier task.
type Task struct {
	ID      ID
	Process string
	Version int
	User    string
	// Inputs maps argument names to the OIDs bound to them, in binding
	// order.
	Inputs map[string][]object.OID
	// Output is the object the task generated — the first of them when it
	// generated a set.
	Output object.OID
	// OutputRuns lists every output of a task that generated a set (a
	// session's load group), Output included, as ascending disjoint runs.
	// It is empty for single-output tasks.
	OutputRuns []Run
	// OutClass denormalises the output class for lineage display.
	OutClass string
	// Micros is the execution wall time in microseconds.
	Micros int64
	// Note is free-form provenance commentary (e.g. the experiment name).
	Note string

	// base is the earlier task the record is a delta against (0: the
	// record is whole).
	base ID
}

// Run is a contiguous range of output OIDs, encoded as [first, count]: a
// 1,024-create session whose OIDs were reserved back to back is one run.
type Run [2]uint64

// Outputs returns every object the task generated, ascending.
func (t *Task) Outputs() []object.OID {
	if len(t.OutputRuns) == 0 {
		return []object.OID{t.Output}
	}
	out := make([]object.OID, 0, t.NumOutputs())
	for _, r := range t.OutputRuns {
		for i := uint64(0); i < r[1]; i++ {
			out = append(out, object.OID(r[0]+i))
		}
	}
	return out
}

// NumOutputs is len(t.Outputs()) without building the slice.
func (t *Task) NumOutputs() int {
	if len(t.OutputRuns) == 0 {
		return 1
	}
	n := 0
	for _, r := range t.OutputRuns {
		n += int(r[1])
	}
	return n
}

// runs returns the task's outputs as runs.
func (t *Task) runs() []Run {
	if len(t.OutputRuns) == 0 {
		return []Run{{uint64(t.Output), 1}}
	}
	return t.OutputRuns
}

// setOutputs records runs as the task's outputs, in the single-output
// form when there is just one.
func (t *Task) setOutputs(runs []Run) {
	t.Output, t.OutputRuns = object.OID(runs[0][0]), runs
	if len(runs) == 1 && runs[0][1] == 1 {
		t.OutputRuns = nil
	}
}

// Key canonicalises (process, version, inputs) for memoisation.
func memoKey(proc string, version int, inputs map[string][]object.OID) string {
	names := make([]string, 0, len(inputs))
	for n := range inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d", proc, version)
	for _, n := range names {
		fmt.Fprintf(&b, "|%s=", n)
		for i, oid := range inputs[n] {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", oid)
		}
	}
	return b.String()
}

// Executor runs processes and records tasks.
type Executor struct {
	// Workers caps the goroutines used per compound/plan run when the
	// RunOptions carry no Parallelism override (0 = GOMAXPROCS). Set it
	// before issuing concurrent runs.
	Workers int

	// Hooks wired by the derived-data manager at open time, before any
	// concurrent use. All may be nil.
	//
	// OnRecord is called (without executor locks held) after every task is
	// recorded, so the dependency graph can grow with fresh lineage.
	OnRecord func(*Task)
	// Stale reports whether an output object is marked stale; a memoised
	// task whose output is stale is refreshed (or re-executed) instead of
	// being served as-is.
	Stale func(object.OID) bool
	// Refresh brings a stale output object up to date in place (ancestors
	// first). It is invoked on memo hits whose output is stale.
	Refresh func(context.Context, object.OID) error

	mu  sync.RWMutex
	st  *storage.Store
	cat *catalog.Catalog
	reg *adt.Registry
	obj *object.Store
	mgr *process.Manager

	byID map[ID]*Task
	// byOutput maps a single-output task's object to its newest producer;
	// byRun does the same for the members of load groups, as disjoint
	// ranges ascending by first OID, so 131,072 loaded objects cost a few
	// hundred entries, not a map entry each.
	byOutput map[object.OID]ID
	byRun    []outRun
	byInput  map[object.OID][]ID
	// memo maps a process instantiation to its newest task. External
	// derivations (version 0) are not process instantiations and are
	// never entered.
	memo map[string]ID
	// external maps the process, user, out-class and note of an external
	// derivation to its newest published task, the base the next one's
	// record is a delta against.
	external map[externalKey]ID
	// flights deduplicates executions in progress per memo key
	// (single-flight): concurrent identical instantiations wait for the
	// leader instead of re-deriving.
	flights sflight.Group[flightVal]
}

// flightVal is what one execution publishes to its single-flight
// waiters; fresh distinguishes an actual execution from a memo hit the
// leader discovered on entry.
type flightVal struct {
	task  *Task
	fresh bool
}

// externalKey is what an external derivation shares with the base of
// its record.
type externalKey struct{ process, user, outClass, note string }

// outRun is one range of byRun: OIDs [first, first+count) were generated
// by task id.
type outRun struct {
	first, count uint64
	id           ID
}

const tasksHeap = "tasks"

// OpenExecutor loads the task log and rebuilds the lineage indexes.
func OpenExecutor(st *storage.Store, cat *catalog.Catalog, reg *adt.Registry, obj *object.Store, mgr *process.Manager) (*Executor, error) {
	e := &Executor{
		st: st, cat: cat, reg: reg, obj: obj, mgr: mgr,
		byID:     make(map[ID]*Task),
		byOutput: make(map[object.OID]ID),
		byInput:  make(map[object.OID][]ID),
		memo:     make(map[string]ID),
		external: make(map[externalKey]ID),
	}
	// Delta records wait for the scan to end: a delta's base is below it,
	// so in ID order every base is indexed before the deltas against it.
	type delta struct {
		id, base ID
		rec      []byte
	}
	var deltas []delta
	var scanErr error
	err := st.Scan(tasksHeap, func(rid storage.RID, rec []byte) bool {
		id, base, isDelta, err := deltaIDs(rec)
		if isDelta && err == nil {
			deltas = append(deltas, delta{id, base, rec})
			return true
		}
		var t *Task
		if err == nil {
			t, err = decodeTask(rec, nil)
		}
		if err != nil {
			scanErr = fmt.Errorf("%w %s: %w", ErrCorruptLog, rid, err)
			return false
		}
		e.indexLocked(t)
		return true
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	slices.SortFunc(deltas, func(a, b delta) int { return cmp.Compare(a.id, b.id) })
	for _, d := range deltas {
		base, ok := e.byID[d.base]
		if !ok {
			return nil, fmt.Errorf("%w: task %d is a delta against task %d, which is not in the log", ErrCorruptLog, d.id, d.base)
		}
		t, err := decodeTask(d.rec, base)
		if err != nil {
			return nil, fmt.Errorf("%w: task %d: %w", ErrCorruptLog, d.id, err)
		}
		e.indexLocked(t)
	}
	return e, nil
}

// indexLocked enters a task into the lineage indexes. The newest task
// (highest ID) wins an output or a memo key, whatever order records are
// indexed in: a refresh re-records its output under a later ID, and the
// open-time scan visits records in heap order, which is not quite ID
// order.
func (e *Executor) indexLocked(t *Task) {
	e.byID[t.ID] = t
	if len(t.OutputRuns) == 0 {
		if cur, ok := e.byOutput[t.Output]; !ok || cur < t.ID {
			e.byOutput[t.Output] = t.ID
		}
	}
	for _, r := range t.OutputRuns {
		e.byRun = slices.Insert(e.byRun, e.runAboveLocked(r[0]), outRun{first: r[0], count: r[1], id: t.ID})
	}
	for _, oids := range t.Inputs {
		for _, oid := range oids {
			e.byInput[oid] = append(e.byInput[oid], t.ID)
		}
	}
	if t.Version != 0 {
		key := memoKey(t.Process, t.Version, t.Inputs)
		if cur, ok := e.memo[key]; !ok || cur < t.ID {
			e.memo[key] = t.ID
		}
		return
	}
	key := externalKey{t.Process, t.User, t.OutClass, t.Note}
	if cur, ok := e.external[key]; !ok || cur < t.ID {
		e.external[key] = t.ID
	}
}

// runAboveLocked returns the index of the first byRun entry that starts
// above oid.
func (e *Executor) runAboveLocked(oid uint64) int {
	return sort.Search(len(e.byRun), func(i int) bool { return e.byRun[i].first > oid })
}

// runIndexLocked finds the byRun entry holding oid.
func (e *Executor) runIndexLocked(oid object.OID) (int, bool) {
	i := e.runAboveLocked(uint64(oid)) - 1
	if i < 0 || uint64(oid)-e.byRun[i].first >= e.byRun[i].count {
		return 0, false
	}
	return i, true
}

// producerLocked resolves an object to its newest producer task.
func (e *Executor) producerLocked(oid object.OID) (ID, bool) {
	id, ok := e.byOutput[oid]
	if i, inRun := e.runIndexLocked(oid); inRun && (!ok || e.byRun[i].id > id) {
		return e.byRun[i].id, true
	}
	return id, ok
}

// RunOptions tunes one execution.
type RunOptions struct {
	User string
	Note string
	// NoMemo forces re-execution even when an identical task exists.
	NoMemo bool
	// Parallelism caps the worker pool for this run's independent steps
	// (compound steps, plan stages). 0 falls back to Executor.Workers,
	// then GOMAXPROCS.
	Parallelism int
}

// Run instantiates the latest version of a primitive process over the
// given input objects, creating (or reusing) the output object. Memoised
// hits return the previously recorded task with Reused=true.
func (e *Executor) Run(ctx context.Context, procName string, inputs map[string][]object.OID, opts RunOptions) (*Task, bool, error) {
	pr, err := e.mgr.Lookup(procName)
	if err != nil {
		return nil, false, err
	}
	return e.runVersion(ctx, pr, inputs, opts)
}

// RunVersion instantiates a specific process version (a plan step runs
// the version it was planned with).
func (e *Executor) RunVersion(ctx context.Context, procName string, version int, inputs map[string][]object.OID, opts RunOptions) (*Task, bool, error) {
	pr, err := e.mgr.LookupVersion(procName, version)
	if err != nil {
		return nil, false, err
	}
	return e.runVersion(ctx, pr, inputs, opts)
}

// runVersion answers from the memo, joins an in-progress identical
// execution (single-flight), or executes and records a fresh task.
func (e *Executor) runVersion(ctx context.Context, pr *process.Process, inputs map[string][]object.OID, opts RunOptions) (*Task, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if opts.NoMemo {
		t, err := e.execute(ctx, pr, inputs, opts)
		if err != nil {
			return nil, false, err
		}
		return t, false, nil
	}
	key := memoKey(pr.Name, pr.Version, inputs)
	// Fast path: memo hits are answered under the shared lock so
	// concurrent memoised lookups proceed in parallel. A hit only counts
	// when its output object still resolves and is not stale.
	if t, ok := e.memoised(key); ok && e.outputLive(t) {
		return t, true, nil
	}
	v, joined, err := e.flights.Do(ctx, key, func() (flightVal, error) {
		// Re-check as leader: a previous leader may have published the
		// memo between our fast-path miss and the flight election.
		if t, ok := e.memoised(key); ok {
			switch {
			case e.outputLive(t):
				return flightVal{task: t}, nil
			case !e.obj.Exists(t.Output):
				// The memoised output is gone: drop the dangling entries
				// and derive anew.
				e.ForgetOutput(t.Output)
			case e.Refresh != nil:
				// Output present but stale: recompute it in place so the
				// caller gets fresh data under the recorded OID. On
				// failure (external derivation, missing input, …) fall
				// through to a fresh execution.
				if err := e.Refresh(ctx, t.Output); err == nil {
					if t2, ok := e.memoised(key); ok {
						return flightVal{task: t2, fresh: true}, nil
					}
				}
			default:
				// Stale with no refresher (Manual policy): derive a fresh
				// object. Recording it repoints the memo at the new task
				// while the stale object keeps its producer entry, so a
				// later RefreshStale can still recompute it in place.
			}
		}
		t, err := e.execute(ctx, pr, inputs, opts)
		return flightVal{task: t, fresh: true}, err
	})
	if err != nil {
		return nil, false, err
	}
	return v.task, joined || !v.fresh, nil
}

// outputLive reports whether a memoised task's output can be served
// as-is: it must still resolve and must not be marked stale.
func (e *Executor) outputLive(t *Task) bool {
	if !e.obj.Exists(t.Output) {
		return false
	}
	return e.Stale == nil || !e.Stale(t.Output)
}

// ForgetOutput drops the memo and producer entries pointing at an output
// object that no longer resolves, so future identical instantiations
// re-execute instead of returning a dangling task. The task itself stays
// in the log (byID, byInput) as history.
func (e *Executor) ForgetOutput(oid object.OID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i, ok := e.runIndexLocked(oid); ok {
		// Cut oid out of its load group's range; the other members keep
		// their producer.
		r := e.byRun[i]
		before := uint64(oid) - r.first
		parts := make([]outRun, 0, 2)
		if before > 0 {
			parts = append(parts, outRun{first: r.first, count: before, id: r.id})
		}
		if after := r.count - before - 1; after > 0 {
			parts = append(parts, outRun{first: uint64(oid) + 1, count: after, id: r.id})
		}
		e.byRun = slices.Replace(e.byRun, i, i+1, parts...)
	}
	id, ok := e.byOutput[oid]
	if !ok {
		return
	}
	t := e.byID[id]
	delete(e.byOutput, oid)
	if t.Version == 0 {
		return
	}
	key := memoKey(t.Process, t.Version, t.Inputs)
	if e.memo[key] == id {
		delete(e.memo, key)
	}
}

// memoised answers a memo lookup under the shared lock.
func (e *Executor) memoised(key string) (*Task, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	id, ok := e.memo[key]
	if !ok {
		return nil, false
	}
	return e.byID[id], true
}

// derive binds and evaluates one process instantiation, returning the
// computed output attributes/extent, the canonical input OIDs, and the
// execution wall time. It does not store anything.
func (e *Executor) derive(ctx context.Context, pr *process.Process, inputs map[string][]object.OID) (map[string]value.Value, sptemp.Extent, map[string][]object.OID, time.Duration, error) {
	var zero sptemp.Extent
	// Materialise the input objects.
	bound := make(map[string][]*object.Object, len(inputs))
	for name, oids := range inputs {
		objs := make([]*object.Object, len(oids))
		for i, oid := range oids {
			o, err := e.obj.Get(oid)
			if err != nil {
				// Double %w keeps both the ErrExec classification and the
				// cause (object.ErrNotFound for deleted inputs) matchable.
				return nil, zero, nil, 0, fmt.Errorf("%w: input %s[%d]: %w", ErrExec, name, i, err)
			}
			objs[i] = o
		}
		bound[name] = objs
	}
	b, err := pr.Bind(bound)
	if err != nil {
		return nil, zero, nil, 0, err
	}
	start := Clock()
	if err := b.CheckAssertions(e.reg); err != nil {
		return nil, zero, nil, 0, err
	}
	outClass, err := e.cat.Class(pr.OutClass)
	if err != nil {
		return nil, zero, nil, 0, err
	}
	// Last cancellation point before the (possibly expensive) mapping
	// evaluation; past here the derivation runs to completion so the
	// output object and the task record stay consistent.
	if err := ctx.Err(); err != nil {
		return nil, zero, nil, 0, err
	}
	attrs, ext, err := b.EvalMappings(e.reg, outClass)
	if err != nil {
		return nil, zero, nil, 0, err
	}
	return attrs, ext, b.InputOIDs(), Clock().Sub(start), nil
}

// Clock is what a derivation's Micros is measured with. Only a test
// replaces it, to make the task records it writes reproducible byte for
// byte.
var Clock = time.Now

// execute performs one derivation unconditionally and commits its output
// object with its task record.
func (e *Executor) execute(ctx context.Context, pr *process.Process, inputs map[string][]object.OID, opts RunOptions) (*Task, error) {
	attrs, ext, inOIDs, elapsed, err := e.derive(ctx, pr, inputs)
	if err != nil {
		return nil, err
	}
	out := &object.Object{Class: pr.OutClass, Attrs: attrs, Extent: ext}
	if _, err := e.obj.Reserve(out); err != nil {
		return nil, fmt.Errorf("%w: storing output: %v", ErrExec, err)
	}
	t, err := e.commit(pr, inOIDs, elapsed, opts, nil, out.OID, object.BatchOps{Inserts: []*object.Object{out}})
	if err != nil {
		return nil, fmt.Errorf("%w: storing output: %v", ErrExec, err)
	}
	return t, nil
}

// commit stages the task of one run of pr that generated output and
// commits it in one batch with ops, which insert or update the output.
// The task's record is a delta against base unless base is nil.
func (e *Executor) commit(pr *process.Process, inputs map[string][]object.OID, elapsed time.Duration, opts RunOptions, base *Task, output object.OID, ops object.BatchOps) (*Task, error) {
	tasks := e.stage(Task{
		Process:  pr.Name,
		Version:  pr.Version,
		User:     opts.User,
		Inputs:   inputs,
		OutClass: pr.OutClass,
		Micros:   elapsed.Microseconds(),
		Note:     opts.Note,
	}, base, []Run{{uint64(output), 1}})
	if _, err := e.Apply(ops, tasks); err != nil {
		return nil, err
	}
	return tasks[0], nil
}

// RecomputeTask re-executes a recorded task with its recorded process
// version and inputs, writing the result over the existing output object
// in place (same OID) in one batch with a refresh task, whose record is a
// delta against the recomputed task. The derived-data manager uses it to
// bring stale objects up to date without changing their identity;
// external derivations (version 0) cannot be recomputed.
func (e *Executor) RecomputeTask(ctx context.Context, id ID, opts RunOptions) (*Task, error) {
	orig, err := e.Get(id)
	if err != nil {
		return nil, err
	}
	if orig.Version == 0 {
		return nil, fmt.Errorf("%w: external derivation %q cannot be recomputed", ErrExec, orig.Process)
	}
	pr, err := e.mgr.LookupVersion(orig.Process, orig.Version)
	if err != nil {
		return nil, err
	}
	attrs, ext, inOIDs, elapsed, err := e.derive(ctx, pr, orig.Inputs)
	if err != nil {
		return nil, err
	}
	out := &object.Object{OID: orig.Output, Class: pr.OutClass, Attrs: attrs, Extent: ext}
	if err := e.obj.CheckUpdate(out); err != nil {
		return nil, fmt.Errorf("%w: refreshing output %d: %v", ErrExec, orig.Output, err)
	}
	if opts.Note == "" {
		opts.Note = refreshNoteOf(id)
	}
	if maps.EqualFunc(inOIDs, orig.Inputs, slices.Equal) {
		inOIDs = orig.Inputs
	}
	t, err := e.commit(pr, inOIDs, elapsed, opts, orig, orig.Output, object.BatchOps{Updates: []*object.Object{out}})
	if err != nil {
		return nil, fmt.Errorf("%w: refreshing output %d: %v", ErrExec, orig.Output, err)
	}
	return t, nil
}

// RunCompound expands a compound process (Figure 5) and executes its
// primitive steps, memoising each step. Steps that do not consume each
// other's results — concurrently enabled transitions of the derivation
// diagram — run in parallel on the worker pool, one topological level at
// a time. It returns the step tasks in expansion order and the OID of
// the compound's output.
func (e *Executor) RunCompound(ctx context.Context, name string, inputs map[string][]object.OID, opts RunOptions) ([]*Task, object.OID, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	steps, outputName, err := e.mgr.Expand(name)
	if err != nil {
		return nil, 0, err
	}
	c, err := e.mgr.LookupCompound(name)
	if err != nil {
		return nil, 0, err
	}
	// Validate compound-level bindings.
	bindings := make(map[string][]object.OID, len(inputs))
	for _, a := range c.Args {
		oids, ok := inputs[a.Name]
		if !ok {
			return nil, 0, fmt.Errorf("%w: compound argument %q not bound", ErrExec, a.Name)
		}
		if !a.IsSet && len(oids) != 1 {
			return nil, 0, fmt.Errorf("%w: scalar compound argument %q bound to %d objects", ErrExec, a.Name, len(oids))
		}
		bindings[a.Name] = oids
	}
	// Stage the steps: step i depends on step j when it consumes j's
	// result (expansion emits steps in topological order).
	producer := make(map[string]int, len(steps))
	for i, s := range steps {
		producer[s.Result] = i
	}
	levels := Levels(len(steps), func(i int) []int {
		var deps []int
		for _, a := range steps[i].Args {
			if j, ok := producer[a]; ok {
				deps = append(deps, j)
			}
		}
		return deps
	})
	tasks := make([]*Task, len(steps))
	workers := e.parallelism(opts)
	for _, level := range levels {
		fns := make([]func(context.Context) error, 0, len(level))
		for _, idx := range level {
			i, s := idx, steps[idx]
			fns = append(fns, func(ctx context.Context) error {
				pr, err := e.mgr.Lookup(s.Process)
				if err != nil {
					return err
				}
				if len(pr.Args) != len(s.Args) {
					return fmt.Errorf("%w: step %s arity mismatch", ErrExec, s.Result)
				}
				stepInputs := make(map[string][]object.OID, len(s.Args))
				for j, argName := range s.Args {
					oids, ok := bindings[argName]
					if !ok {
						return fmt.Errorf("%w: step %s: unbound name %q", ErrExec, s.Result, argName)
					}
					stepInputs[pr.Args[j].Name] = oids
				}
				stepOpts := opts
				if stepOpts.Note == "" {
					stepOpts.Note = "step " + s.Result + " of " + name
				}
				t, _, err := e.runVersion(ctx, pr, stepInputs, stepOpts)
				if err != nil {
					// Double %w keeps both the ErrExec classification and
					// the cause (context.Canceled, assertion errors, …)
					// visible to errors.Is.
					return fmt.Errorf("%w: step %s (%s): %w", ErrExec, s.Result, s.Process, err)
				}
				tasks[i] = t
				return nil
			})
		}
		if err := Parallel(ctx, workers, fns); err != nil {
			return nil, 0, err
		}
		// Publish the level's results before the next level reads them.
		for _, idx := range level {
			bindings[steps[idx].Result] = []object.OID{tasks[idx].Output}
		}
	}
	out, ok := bindings[outputName]
	if !ok || len(out) != 1 {
		return nil, 0, fmt.Errorf("%w: compound %s produced no output", ErrExec, name)
	}
	return tasks, out[0], nil
}

// Get returns a recorded task.
func (e *Executor) Get(id ID) (*Task, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrTaskNotFound, id)
	}
	return t, nil
}

// All returns every recorded task, by id ascending.
func (e *Executor) All() []*Task {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Task, 0, len(e.byID))
	for _, t := range e.byID {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Producer returns the task that generated the given object, if any. Base
// data has no producer.
func (e *Executor) Producer(oid object.OID) (*Task, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	id, ok := e.producerLocked(oid)
	if !ok {
		return nil, false
	}
	return e.byID[id], true
}

// Consumers returns the tasks that used the given object as input.
func (e *Executor) Consumers(oid object.OID) []*Task {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ids := e.byInput[oid]
	out := make([]*Task, 0, len(ids))
	for _, id := range ids {
		out = append(out, e.byID[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Explain renders the derivation history of an object as an indented
// tree — the "derivation history | how they are produced" the paper argues
// shared data must carry (§1).
func (e *Executor) Explain(oid object.OID) string {
	var b strings.Builder
	e.explain(&b, oid, 0, map[object.OID]bool{})
	return b.String()
}

func (e *Executor) explain(b *strings.Builder, oid object.OID, depth int, onPath map[object.OID]bool) {
	indent := strings.Repeat("  ", depth)
	t, ok := e.Producer(oid)
	if !ok {
		fmt.Fprintf(b, "%sobject %d: base data\n", indent, oid)
		return
	}
	fmt.Fprintf(b, "%sobject %d (%s) <- task %d: %s v%d", indent, oid, t.OutClass, t.ID, t.Process, t.Version)
	if t.User != "" {
		fmt.Fprintf(b, " by %s", t.User)
	}
	b.WriteByte('\n')
	if onPath[oid] {
		fmt.Fprintf(b, "%s  (cycle)\n", indent)
		return
	}
	onPath[oid] = true
	names := make([]string, 0, len(t.Inputs))
	for n := range t.Inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b, "%s  %s:\n", indent, n)
		for _, in := range t.Inputs[n] {
			e.explain(b, in, depth+2, onPath)
		}
	}
	delete(onPath, oid)
}

// Reproduce re-evaluates a recorded task in memory — the same process
// version over the same input OIDs — and reports whether the result
// equals the recorded output attribute-for-attribute and in extent: the
// paper's "reproducibility of experiments" capability. A check is a read
// and records nothing: no task, no object, no memo entry, no WAL group.
// The task it returns is unrecorded (ID and Output 0) and describes the
// re-run: process, version, user, inputs read, wall time and note.
// External derivations (version 0) cannot be reproduced.
func (e *Executor) Reproduce(ctx context.Context, id ID, opts RunOptions) (*Task, bool, error) {
	orig, err := e.Get(id)
	if err != nil {
		return nil, false, err
	}
	if orig.Version == 0 {
		return nil, false, fmt.Errorf("%w: external derivation %q cannot be reproduced", ErrExec, orig.Process)
	}
	// Reproduction re-runs over the recorded input OIDs, so their current
	// state must be trustworthy: a stale input would silently change what
	// is being reproduced. (An updated *base* input is not stale — the
	// update is the new truth — and surfaces as a mismatch instead.)
	if e.Stale != nil {
		for name, oids := range orig.Inputs {
			for _, in := range oids {
				if e.Stale(in) {
					return nil, false, fmt.Errorf("%w: input %s=%d of task %d; refresh it first", ErrStaleInput, name, in, id)
				}
			}
		}
	}
	pr, err := e.mgr.LookupVersion(orig.Process, orig.Version)
	if err != nil {
		return nil, false, err
	}
	attrs, ext, inOIDs, elapsed, err := e.derive(ctx, pr, orig.Inputs)
	if err != nil {
		return nil, false, err
	}
	recorded, err := e.obj.Get(orig.Output)
	if err != nil {
		return nil, false, fmt.Errorf("%w: recorded output %d of task %d: %w", ErrExec, orig.Output, id, err)
	}
	if opts.Note == "" {
		opts.Note = fmt.Sprintf("reproduction of task %d", id)
	}
	t := &Task{
		Process:  pr.Name,
		Version:  pr.Version,
		User:     opts.User,
		Inputs:   inOIDs,
		OutClass: pr.OutClass,
		Micros:   elapsed.Microseconds(),
		Note:     opts.Note,
	}
	return t, matches(recorded, pr.OutClass, attrs, ext), nil
}

// matches reports whether a stored object equals a derivation's output
// attribute-for-attribute and in extent.
func matches(o *object.Object, class string, attrs map[string]value.Value, ext sptemp.Extent) bool {
	if o.Class != class || len(o.Attrs) != len(attrs) || !o.Extent.Equal(ext) {
		return false
	}
	for name, v := range attrs {
		if w, ok := o.Attrs[name]; !ok || !value.Equal(v, w) {
			return false
		}
	}
	return true
}

// StageExternal prepares the tasks of an external derivation — a
// session's creates of one class under one note, an interpolation — for
// the batch that commits its outputs, which Apply runs. The outputs are
// given as ascending runs, which the tasks keep. Version 0 marks
// external derivations: they take part in lineage but are not memoised
// as process instantiations. Each task's record is a delta against the
// newest published external derivation with the same process, user,
// out-class and note, if there is one.
func (e *Executor) StageExternal(procName string, inputs map[string][]object.OID, outputs []Run, outClass string, opts RunOptions) []*Task {
	e.mu.RLock()
	base := e.byID[e.external[externalKey{procName, opts.User, outClass, opts.Note}]]
	e.mu.RUnlock()
	return e.stage(Task{
		Process:  procName,
		User:     opts.User,
		Inputs:   inputs,
		OutClass: outClass,
		Note:     opts.Note,
	}, base, outputs)
}

// stage prepares the tasks recording one derivation of outputs, described
// by proto, for the batch that commits the outputs: each task ID is
// reserved in memory, to become durable with that batch, which pins the
// "task" sequence. Each record is a delta against base, a published task,
// unless base is nil. The outputs are ascending (first, count) runs, and
// recorded so, so OIDs reserved back to back cost one record of ~40
// bytes (≤ 16 as a delta) however many they are; only a set scattered
// into more runs than a heap record holds is split over several tasks,
// each taking the runs that fit its record.
func (e *Executor) stage(proto Task, base *Task, outputs []Run) []*Task {
	if base != nil {
		proto.base = base.ID
	}
	var tasks []*Task
	for runs := outputs; len(runs) > 0; {
		t := proto
		t.ID = ID(e.st.AllocID("task"))
		// Take runs while they fit, the run count at its widest; the first
		// is taken regardless. The record sized holds a placeholder output
		// in their place.
		n, size, end := 0, len(appendTask(make([]byte, 0, recordCap), &t, base))+binary.MaxVarintLen64, uint64(0)
		for ; n < len(runs); n++ {
			if size += runSize(runs[n], end); size > storage.MaxRecordLen && n > 0 {
				break
			}
			end = runs[n][0] + runs[n][1]
		}
		t.setOutputs(runs[:n])
		tasks = append(tasks, &t)
		runs = runs[n:]
	}
	return tasks
}

// Apply commits a batch of object mutations together with the records of
// staged tasks — one storage batch, so one WAL group: after a crash the
// outputs and their producer tasks exist together or not at all — and
// then publishes the tasks to the lineage indexes and the OnRecord hook.
// It returns the batch's commit epoch. It is the only way a task is
// persisted.
func (e *Executor) Apply(ops object.BatchOps, tasks []*Task) (uint64, error) {
	e.mu.RLock()
	for _, t := range tasks {
		// Task IDs start at 1, so a whole record's base, 0, is nil.
		ops.Extra = append(ops.Extra, object.ExtraRec{Heap: tasksHeap, Rec: appendTask(make([]byte, 0, recordCap), t, e.byID[t.base])})
	}
	e.mu.RUnlock()
	if len(tasks) > 0 {
		ops.PinSeqs = append(ops.PinSeqs, "task")
	}
	epoch, err := e.obj.ApplyBatch(ops)
	if err != nil {
		return 0, err
	}
	for _, t := range tasks {
		e.mu.Lock()
		e.indexLocked(t)
		e.mu.Unlock()
		if e.OnRecord != nil {
			e.OnRecord(t)
		}
	}
	return epoch, nil
}
