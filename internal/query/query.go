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
package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gaea/internal/catalog"
	"gaea/internal/concept"
	"gaea/internal/interp"
	"gaea/internal/object"
	"gaea/internal/obs"
	"gaea/internal/petri"
	"gaea/internal/process"
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

// trim caps the result at limit answering objects (0 = unlimited).
func (r *Result) trim(limit int) {
	if limit <= 0 || len(r.OIDs) <= limit {
		return
	}
	r.OIDs = r.OIDs[:limit]
	r.How = r.How[:limit]
	if r.Stale != nil {
		r.Stale = r.Stale[:limit]
	}
}

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

func (qe *Executor) isStaleAt(oid object.OID, epoch uint64) bool {
	return qe.Stale != nil && qe.Stale(oid, epoch)
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
	strategies := req.Strategies
	if len(strategies) == 0 {
		strategies = []Strategy{Interpolate, Derive}
	}
	res = &Result{Epoch: epoch}

	// Step 1: direct retrieval across all member classes, resolved at the
	// snapshot epoch. Stale objects are skipped (so the fallback chain
	// re-derives them) unless ServeStale returns them flagged.
	servedStale := false
	for _, cls := range classes {
		oids, err := qe.Obj.QueryAt(cls, req.Pred, epoch)
		if err != nil {
			return nil, err
		}
		for _, oid := range oids {
			stale := qe.isStaleAt(oid, epoch)
			if stale && !qe.ServeStale {
				continue
			}
			if stale {
				servedStale = true
			}
			res.OIDs = append(res.OIDs, oid)
			res.How = append(res.How, Retrieve)
			res.Stale = append(res.Stale, stale)
		}
	}
	if len(res.OIDs) > 0 {
		if !servedStale {
			res.Stale = nil
		}
		res.trim(req.Limit)
		qe.howRetrieve.Inc()
		return res, nil
	}
	res.Stale = nil

	// Fallback steps in the requested order, first success wins.
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
			res.OIDs = append(res.OIDs, oid)
			res.How = append(res.How, Interpolate)
			if t, ok := qe.Exec.Producer(oid); ok {
				res.TasksRun = append(res.TasksRun, t.ID)
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
			res.PlanText = planText
			res.TasksRun = tasks
			for _, oid := range oids {
				res.OIDs = append(res.OIDs, oid)
				res.How = append(res.How, Derive)
			}
			res.trim(req.Limit)
			qe.howDerive.Inc()
			return res, nil
		case Retrieve:
			// Already attempted above.
		default:
			return nil, fmt.Errorf("%w: unknown strategy %q", ErrBadRequest, s)
		}
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnsatisfied, lastErr)
	}
	return nil, ErrUnsatisfied
}

func (qe *Executor) targetClasses(req Request) ([]string, error) {
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
			o, err := qe.Obj.Get(oid)
			if err != nil {
				return nil, nil, "", err
			}
			if o.Extent.Matches(req.Pred) {
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
// anything: which classes would be consulted, whether stored data match,
// and the derivation plan if one exists.
func (qe *Executor) Explain(ctx context.Context, req Request) (string, error) {
	classes, err := qe.targetClasses(req)
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("query over classes %v\n", classes)
	total := 0
	for _, cls := range classes {
		oids, err := qe.Obj.Query(cls, req.Pred)
		if err != nil {
			return "", err
		}
		live, stale := 0, 0
		for _, oid := range oids {
			if qe.isStaleAt(oid, ^uint64(0)) {
				stale++
			} else {
				live++
			}
		}
		if qe.ServeStale {
			live += stale
		}
		total += live
		if stale > 0 {
			out += fmt.Sprintf("  %s: %d stored objects match (%d stale)\n", cls, len(oids), stale)
		} else {
			out += fmt.Sprintf("  %s: %d stored objects match\n", cls, len(oids))
		}
	}
	if total > 0 {
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

// ensure the process package's error type is linked for callers matching
// assertion failures surfaced through plan execution.
var _ = process.ErrAssertion
