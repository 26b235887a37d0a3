// Package query implements the §2.1.5 query sequence over derived
// spatio-temporal concepts:
//
//  1. Direct data retrieval from the non-primitive classes corresponding
//     to the concept of interest.
//  2. Data interpolation (temporal or spatial) when data are missing.
//  3. Data computed from the derivation relationship (Petri-net backward
//     chaining, then plan execution).
//
// "Steps 2 and 3 are prioritized according to the user's needs" — the
// request carries an ordered strategy list.
//
// Step 1 is walk and steps 2–3 are Fallback, each written once. Run walks
// in one shot, then falls back if nothing was served; Stream walks page
// by page and falls back only when a fresh stream served nothing;
// PageRawAt walks one page and leaves Fallback to its caller; Explain
// walks in one shot and previews a plan instead of falling back.
package query

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"gaea/internal/catalog"
	"gaea/internal/concept"
	"gaea/internal/interp"
	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/petri"
	"gaea/internal/sptemp"
	"gaea/internal/task"
)

// Strategy names one step of the §2.1.5 sequence.
type Strategy string

// The three strategies. Retrieval always runs first; the request orders
// the other two.
const (
	Retrieve    Strategy = "retrieve"
	Interpolate Strategy = "interpolate"
	Derive      Strategy = "derive"
)

// Request is one query against a class or a concept.
type Request struct {
	// Class or Concept must be set (not both). A concept fans out to its
	// member classes, including specializations.
	Class   string
	Concept string
	// Pred is the spatio-temporal predicate. An empty-space predicate
	// matches everywhere.
	Pred sptemp.Extent
	// Strategies orders the fallback steps after retrieval; default
	// [Interpolate, Derive] (the paper's order).
	Strategies []Strategy
	// User tags derivations run on behalf of this query.
	User string
	// Parallelism caps the workers used for this query's plan stages
	// (0 = the task executor's Workers setting, then GOMAXPROCS).
	Parallelism int
	// Limit caps the number of answering objects (0 = unlimited). A
	// limited Stream records a resume cursor when the cap is reached.
	Limit int
	// Cursor resumes a previous Stream from where it stopped (the value
	// of Stream.Cursor after a limited or abandoned iteration). Only
	// streaming honours it; a cursor implies retrieval already produced
	// data, so resumed streams never fall back to derivation.
	Cursor string
}

// Result reports how a query was satisfied.
type Result struct {
	// OIDs are the answering objects.
	OIDs []object.OID
	// How records the strategy that produced each OID (parallel slice).
	How []Strategy
	// Stale flags returned OIDs that are marked stale (parallel to OIDs;
	// nil when none are). Only the Manual refresh policy serves stale
	// data — the others skip it and re-derive.
	Stale []bool
	// TasksRun lists derivation tasks executed (empty for pure retrieval).
	TasksRun []task.ID
	// PlanText is the executed derivation plan, when derivation ran.
	PlanText string
	// Epoch is the snapshot epoch retrieval ran at: every OID answered by
	// the Retrieve strategy reflects the state committed at this epoch.
	Epoch uint64
}

// Errors returned by the executor.
var (
	ErrBadRequest  = errors.New("query: bad request")
	ErrUnsatisfied = errors.New("query: cannot satisfy request")
)

// Executor wires the layers together.
type Executor struct {
	Cat      *catalog.Catalog
	Obj      *object.Store
	Concepts *concept.Manager
	Planner  *petri.Planner
	Interp   *interp.Interpolator
	Exec     *task.Executor
	// Stale reports whether an object was marked stale by the derived-data
	// manager at or before the given epoch (nil: nothing is ever stale).
	// Epoch-qualified so a snapshot reader never sees an object
	// invalidated by a LATER commit as stale.
	Stale func(object.OID, uint64) bool
	// ServeStale returns stale objects from retrieval, flagged in
	// Result.Stale, instead of skipping them (the Manual refresh policy:
	// the caller decides when to refresh). When false, stale objects are
	// invisible to retrieval and the query falls through to
	// interpolation/derivation, which re-derives fresh data.
	ServeStale bool

	// Tracer receives the span trees of queries whose caller brought no
	// trace context of their own (embedded API calls). Nil disables
	// local trace roots; remote requests arrive with the span already on
	// the context and are unaffected.
	Tracer *obs.Tracer

	// Instruments (RegisterMetrics). Nil-safe: an executor built without a
	// registry records into orphan instruments at zero extra branching.
	queries, queryErrors                   *obs.Counter
	howRetrieve, howInterpolate, howDerive *obs.Counter
	queryNS                                *obs.Histogram
	streamPages, streamObjects             *obs.Counter
}

// RegisterMetrics binds the executor's instruments to reg. Safe to skip
// (or call with nil): unbound instruments still work, they just aren't
// exported anywhere.
func (qe *Executor) RegisterMetrics(reg *obs.Registry) {
	qe.queries = reg.Counter("query_total")
	qe.queryErrors = reg.Counter("query_errors_total")
	qe.howRetrieve = reg.Counter("query_retrieve_total")
	qe.howInterpolate = reg.Counter("query_interpolate_total")
	qe.howDerive = reg.Counter("query_derive_total")
	qe.queryNS = reg.Histogram("query_ns")
	qe.streamPages = reg.Counter("stream_pages_total")
	qe.streamObjects = reg.Counter("stream_objects_total")
}

// Run answers a request against a snapshot pinned at the current commit
// epoch: retrieval resolves every OID at that epoch, so a concurrent
// session commit cannot make the result set observe half a batch. The
// executor is stateless per call and safe for concurrent use: many
// queries may run (and derive) at once, sharing the task executor's
// single-flight memo.
func (qe *Executor) Run(ctx context.Context, req Request) (*Result, error) {
	epoch := qe.Obj.Pin()
	defer qe.Obj.Unpin(epoch)
	return qe.RunAt(ctx, req, epoch)
}

// RunAt answers a request at a specific snapshot epoch the CALLER has
// pinned (Kernel.Snapshot uses it to serve many reads from one pin).
// Fallback derivation, when it runs, writes fresh objects at new epochs —
// results beyond pure retrieval are newest-state by design.
func (qe *Executor) RunAt(ctx context.Context, req Request, epoch uint64) (res *Result, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, sp := obs.StartWith(ctx, qe.Tracer, "query/run")
	start := time.Now()
	defer func() {
		qe.queries.Inc()
		qe.queryNS.ObserveSince(start)
		if err != nil {
			qe.queryErrors.Inc()
			sp.Annotate("error", err.Error())
		} else if res != nil && len(res.How) > 0 {
			sp.Annotate("how", string(res.How[0]))
		}
		sp.End()
	}()
	if req.Class != "" {
		sp.Annotate("class", req.Class)
	} else {
		sp.Annotate("concept", req.Concept)
	}
	classes, err := qe.targetClasses(req)
	if err != nil {
		return nil, err
	}
	res, limit := &Result{Epoch: epoch}, req.Limit
	err = qe.walk(ctx, classes, req.Pred, position{}, epoch, true, func(_ string, oid object.OID, stale bool) (bool, error) {
		res.OIDs = append(res.OIDs, oid)
		res.How = append(res.How, Retrieve)
		res.Stale = append(res.Stale, stale)
		return len(res.OIDs) != limit, nil // a limit ≤ 0 never matches
	})
	if err != nil {
		return nil, err
	}
	if len(res.OIDs) == 0 {
		if res, err = qe.Fallback(ctx, req); err != nil {
			return nil, err
		}
		res.Epoch = epoch
		return res, nil
	}
	if !slices.Contains(res.Stale, true) {
		res.Stale = nil
	}
	qe.howRetrieve.Inc()
	return res, nil
}

// CheckStrategies refuses a strategy the §2.1.5 sequence does not have.
// Every entry point checks it up front, before retrieval can answer.
func CheckStrategies(strategies []Strategy) error {
	for _, s := range strategies {
		if s != Retrieve && s != Interpolate && s != Derive {
			return fmt.Errorf("%w: unknown strategy %q", ErrBadRequest, s)
		}
	}
	return nil
}

// targetClasses validates a request for every entry point and returns
// the classes retrieval walks, in order.
func (qe *Executor) targetClasses(req Request) ([]string, error) {
	if err := CheckStrategies(req.Strategies); err != nil {
		return nil, err
	}
	switch {
	case req.Class != "" && req.Concept != "":
		return nil, fmt.Errorf("%w: set Class or Concept, not both", ErrBadRequest)
	case req.Class != "":
		if !qe.Cat.Exists(req.Class) {
			return nil, fmt.Errorf("%w: %w: %q", ErrBadRequest, catalog.ErrClassNotFound, req.Class)
		}
		return []string{req.Class}, nil
	case req.Concept != "":
		classes, err := qe.Concepts.MemberClasses(req.Concept)
		if err != nil {
			return nil, err
		}
		if len(classes) == 0 {
			return nil, fmt.Errorf("%w: concept %q has no member classes", ErrBadRequest, req.Concept)
		}
		return classes, nil
	default:
		return nil, fmt.Errorf("%w: neither class nor concept given", ErrBadRequest)
	}
}

// position is where a walk starts: a target class index and the OID
// the walk resumes strictly after.
type position struct {
	class int
	after object.OID
}

// walk is retrieval (§2.1.5 step 1): the classes in target order from
// pos, each one's matches at epoch by ascending OID, stale objects
// skipped unless ServeStale. visit returns false to cut the walk. A
// one-shot walk (Run, Explain: pos is the start) uses QueryAt, keeping
// out of the candidate memo QueryFromAt keeps for paged scans: one-tile
// queries would churn it.
func (qe *Executor) walk(ctx context.Context, classes []string, pred sptemp.Extent, pos position, epoch uint64, oneShot bool, visit func(class string, oid object.OID, stale bool) (bool, error)) error {
	offer := func(class string, oid object.OID) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		stale := qe.Stale != nil && qe.Stale(oid, epoch)
		if stale && !qe.ServeStale {
			return true, nil
		}
		return visit(class, oid, stale)
	}
	for ci, after := pos.class, pos.after; ci < len(classes); ci, after = ci+1, 0 {
		if oneShot {
			oids, err := qe.Obj.QueryAt(classes[ci], pred, epoch)
			if err != nil {
				return err
			}
			for _, oid := range oids {
				if more, err := offer(classes[ci], oid); !more || err != nil {
					return err
				}
			}
			continue
		}
		for oid, err := range qe.Obj.QueryFromAt(classes[ci], pred, after, epoch) {
			if err != nil {
				return err
			}
			if more, err := offer(classes[ci], oid); !more || err != nil {
				return err
			}
		}
	}
	return nil
}

// Fallback is the §2.1.5 fallback chain (steps 2 and 3) for a request
// retrieval did not answer: its strategies in order (default interpolate,
// then derive), the first success answering, capped at req.Limit. The
// answer is written at new epochs: newest-state, not resumable.
func (qe *Executor) Fallback(ctx context.Context, req Request) (*Result, error) {
	classes, err := qe.targetClasses(req)
	if err != nil {
		return nil, err
	}
	strategies := req.Strategies
	if len(strategies) == 0 {
		strategies = []Strategy{Interpolate, Derive}
	}
	var lastErr error
	for _, s := range strategies {
		switch s {
		case Interpolate:
			ictx, isp := obs.Start(ctx, "query/interpolate")
			oid, err := qe.tryInterpolate(ictx, classes, req)
			isp.End()
			if err != nil {
				lastErr = err
				continue
			}
			res := &Result{OIDs: []object.OID{oid}, How: []Strategy{Interpolate}}
			if t, ok := qe.Exec.Producer(oid); ok {
				res.TasksRun = []task.ID{t.ID}
			}
			qe.howInterpolate.Inc()
			return res, nil
		case Derive:
			dctx, dsp := obs.Start(ctx, "query/derive")
			oids, tasks, planText, err := qe.tryDerive(dctx, classes, req)
			dsp.End()
			if err != nil {
				lastErr = err
				continue
			}
			if req.Limit > 0 && len(oids) > req.Limit {
				oids = oids[:req.Limit]
			}
			qe.howDerive.Inc()
			return &Result{OIDs: oids, How: slices.Repeat([]Strategy{Derive}, len(oids)),
				TasksRun: tasks, PlanText: planText}, nil
		}
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w: %w", ErrUnsatisfied, lastErr)
	}
	return nil, ErrUnsatisfied
}

// tryInterpolate attempts temporal interpolation at the predicate's
// instant (requires a timed predicate), per class.
func (qe *Executor) tryInterpolate(ctx context.Context, classes []string, req Request) (object.OID, error) {
	if !req.Pred.HasTime {
		return 0, fmt.Errorf("%w: interpolation needs a temporal predicate", ErrBadRequest)
	}
	at := req.Pred.TimeIv.Start
	var lastErr error
	for _, cls := range classes {
		oid, err := qe.Interp.Temporal(ctx, cls, at, req.Pred.Space, task.RunOptions{User: req.User, Note: "query interpolation"})
		if err == nil {
			return oid, nil
		}
		lastErr = err
	}
	return 0, lastErr
}

// tryDerive plans and executes a derivation for each candidate class.
func (qe *Executor) tryDerive(ctx context.Context, classes []string, req Request) ([]object.OID, []task.ID, string, error) {
	var lastErr error
	for _, cls := range classes {
		// The planner plans against a relaxed predicate: derivation may
		// need inputs outside the query window (e.g. both dates of a
		// change pair), so plan with the spatial part only.
		planPred := sptemp.Extent{Frame: req.Pred.Frame, Space: req.Pred.Space}
		plan, err := qe.Planner.Plan(ctx, cls, planPred)
		if err != nil {
			lastErr = err
			continue
		}
		oids, tasks, err := qe.ExecutePlan(ctx, plan, task.RunOptions{User: req.User, Parallelism: req.Parallelism})
		if err == nil && len(oids) == 0 {
			err = fmt.Errorf("query: the plan for %s yielded no object", cls)
		}
		if err != nil {
			lastErr = err
			continue
		}
		// Filter derived outputs by the full predicate; an unqualified
		// derivation result still answers the query.
		var matching []object.OID
		for _, oid := range oids {
			ext, err := qe.Obj.Extent(oid)
			if err != nil {
				return nil, nil, "", err
			}
			if ext.Matches(req.Pred) {
				matching = append(matching, oid)
			}
		}
		if len(matching) == 0 {
			matching = oids
		}
		return matching, tasks, plan.String(), nil
	}
	return nil, nil, "", lastErr
}

// ExecutePlan runs a derivation plan through the task executor, memoising
// repeated steps, and returns the final objects and the tasks run.
// Independent plan stages — steps with no dataflow between them, computed
// from the plan's topological order — execute in parallel on the task
// executor's worker pool. Tasks are reported in plan-step order.
func (qe *Executor) ExecutePlan(ctx context.Context, plan *petri.Plan, opts task.RunOptions) ([]object.OID, []task.ID, error) {
	if len(plan.Steps) == 0 {
		return plan.Existing, nil, nil
	}
	// Validate references up front so scheduling sees a well-formed DAG.
	for i, step := range plan.Steps {
		for _, refs := range step.Inputs {
			for _, ref := range refs {
				if ref.FromStep && ref.Step >= i {
					return nil, nil, fmt.Errorf("query: plan step %d references later step %d", i, ref.Step)
				}
			}
		}
	}
	levels := task.Levels(len(plan.Steps), func(i int) []int {
		var deps []int
		for _, refs := range plan.Steps[i].Inputs {
			for _, ref := range refs {
				if ref.FromStep {
					deps = append(deps, ref.Step)
				}
			}
		}
		return deps
	})
	// Workers within a level write disjoint slice elements, and the pool
	// barrier between levels publishes them to the next level's readers.
	stepOut := make([]object.OID, len(plan.Steps))
	taskIDs := make([]task.ID, len(plan.Steps))
	workers := qe.Exec.StageParallelism(opts)
	for _, level := range levels {
		fns := make([]func(context.Context) error, 0, len(level))
		for _, idx := range level {
			i, step := idx, plan.Steps[idx]
			fns = append(fns, func(ctx context.Context) error {
				inputs := make(map[string][]object.OID, len(step.Inputs))
				for arg, refs := range step.Inputs {
					oids := make([]object.OID, len(refs))
					for j, ref := range refs {
						if ref.FromStep {
							oids[j] = stepOut[ref.Step] // earlier level, already published
						} else {
							oids[j] = ref.OID
						}
					}
					inputs[arg] = oids
				}
				t, _, err := qe.Exec.RunVersion(ctx, step.Process, step.Version, inputs,
					task.RunOptions{User: opts.User, Parallelism: opts.Parallelism, Note: "query derivation"})
				if err != nil {
					return fmt.Errorf("query: executing plan step %d (%s): %w", i, step.Process, err)
				}
				stepOut[i] = t.Output
				taskIDs[i] = t.ID
				return nil
			})
		}
		if err := task.Parallel(ctx, workers, fns); err != nil {
			return nil, nil, err
		}
	}
	return []object.OID{stepOut[len(plan.Steps)-1]}, taskIDs, nil
}

// Explain previews how a request would be satisfied without executing
// anything: which classes would be consulted, how many stored objects
// retrieval would serve from each at the newest state, and the
// derivation plan if one exists.
func (qe *Executor) Explain(ctx context.Context, req Request) (string, error) {
	classes, err := qe.targetClasses(req)
	if err != nil {
		return "", err
	}
	served, stale := map[string]int{}, map[string]int{}
	err = qe.walk(ctx, classes, req.Pred, position{}, ^uint64(0), true, func(class string, _ object.OID, isStale bool) (bool, error) {
		served[class]++
		if isStale {
			stale[class]++
		}
		return true, nil
	})
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("query over classes %v\n", classes)
	for _, cls := range classes {
		if stale[cls] > 0 {
			out += fmt.Sprintf("  %s: %d stored objects match (%d stale)\n", cls, served[cls], stale[cls])
		} else {
			out += fmt.Sprintf("  %s: %d stored objects match\n", cls, served[cls])
		}
	}
	if len(served) > 0 {
		out += "  -> satisfied by retrieval\n"
		return out, nil
	}
	for _, cls := range classes {
		planPred := sptemp.Extent{Frame: req.Pred.Frame, Space: req.Pred.Space}
		plan, err := qe.Planner.Plan(ctx, cls, planPred)
		if err != nil {
			out += fmt.Sprintf("  %s: no derivation (%v)\n", cls, err)
			continue
		}
		out += "  -> derivable:\n" + plan.String()
		return out, nil
	}
	out += "  -> unsatisfiable\n"
	return out, nil
}
