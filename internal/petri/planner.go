package petri

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/process"
	"gaea/internal/sptemp"
)

// Backward-chaining derivation planning — the recursive retrieval
// mechanism of §2.1.6: "Attempt to retrieve the data from the target
// class. If it exists, return; else back propagate the requirements
// through the derivation net ... The procedure is recursively applied
// until the needed data are generated or back propagation stops at some
// base class and we fail."
//
// The planner works over concrete objects (tokens carry extents) so the
// guard prerequisites of modification 3 — shared spatial coverage,
// compatible timestamps — are checked while planning, not discovered as
// assertion failures at execution time.

// ErrNoPlan is returned when the target cannot be satisfied from stored
// data.
var ErrNoPlan = errors.New("petri: no derivation plan")

// PlanStep is one process instantiation of a plan. Inputs name either
// stored objects (OIDs) or results of earlier steps (by step index).
type PlanStep struct {
	Process string
	Version int
	// Inputs binds argument names to input references.
	Inputs map[string][]InputRef
	// OutClass is the class the step produces.
	OutClass string
}

// InputRef points at a stored object or at an earlier step's output.
type InputRef struct {
	// OID is set for stored objects.
	OID object.OID
	// Step is the index of the producing step when FromStep is true.
	Step     int
	FromStep bool
}

// Plan is an ordered list of steps deriving the target class; executing
// the steps in order materialises the target. An empty Steps list means
// stored objects already satisfy the query (Existing holds them).
type Plan struct {
	Target   string
	Existing []object.OID
	Steps    []PlanStep
}

// String renders the plan for explanation and tests.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan for %s:\n", p.Target)
	if len(p.Existing) > 0 {
		fmt.Fprintf(&b, "  retrieve stored objects %v\n", p.Existing)
	}
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "  step %d: %s v%d -> %s (", i, s.Process, s.Version, s.OutClass)
		names := make([]string, 0, len(s.Inputs))
		for n := range s.Inputs {
			names = append(names, n)
		}
		sort.Strings(names)
		for j, n := range names {
			if j > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=", n)
			for k, ref := range s.Inputs[n] {
				if k > 0 {
					b.WriteByte(',')
				}
				if ref.FromStep {
					fmt.Fprintf(&b, "step%d", ref.Step)
				} else {
					fmt.Fprintf(&b, "#%d", ref.OID)
				}
			}
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// Planner performs backward chaining over the catalog, the process
// registry, and the stored objects.
type Planner struct {
	Cat *catalog.Catalog
	Mgr *process.Manager
	Obj *object.Store
	// MaxDepth bounds the recursion (default 8).
	MaxDepth int
	// Stale reports whether an object is marked stale by the derived-data
	// manager (nil: nothing is ever stale). Stale objects disqualify plan
	// reuse: they neither satisfy a target directly nor bind as inputs,
	// so plans are built over fresh data only.
	Stale func(object.OID) bool
}

// liveQuery retrieves the stored objects of a class matching pred,
// excluding stale ones.
func (pl *Planner) liveQuery(class string, pred sptemp.Extent) ([]object.OID, error) {
	oids, err := pl.Obj.Query(class, pred)
	if err != nil || pl.Stale == nil {
		return oids, err
	}
	live := oids[:0:0]
	for _, oid := range oids {
		if !pl.Stale(oid) {
			live = append(live, oid)
		}
	}
	return live, nil
}

// BuildNet constructs the abstract derivation net from the current schema:
// one place per non-primitive class, one transition per primitive process
// (latest version), input arc weights from the argument MinCard
// thresholds.
func BuildNet(cat *catalog.Catalog, mgr *process.Manager) (*Net, error) {
	n := NewNet()
	for _, cls := range cat.Names() {
		n.AddPlace(cls)
	}
	for _, name := range mgr.Names() {
		if mgr.IsCompound(name) {
			continue // compounds expand to primitive transitions
		}
		pr, err := mgr.Lookup(name)
		if err != nil {
			return nil, err
		}
		t := Transition{Name: pr.Name, Out: pr.OutClass}
		for _, a := range pr.Args {
			t.In = append(t.In, Arc{Place: a.Class, Weight: a.MinCard})
		}
		if err := n.AddTransition(t); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// CurrentMarking counts stored objects per class matching the predicate —
// the initial marking of the stored database.
func CurrentMarking(cat *catalog.Catalog, obj *object.Store, pred sptemp.Extent) (Marking, error) {
	m := make(Marking)
	for _, cls := range cat.Names() {
		oids, err := obj.Query(cls, pred)
		if err != nil {
			return nil, err
		}
		m[cls] = len(oids)
	}
	return m, nil
}

// exclusions records tokens already claimed within the current plan so
// that sibling arguments of the same class receive distinct bindings — a
// change-detection process given two landcover arguments must classify two
// different dates, not the same one twice. When no alternative exists the
// planner falls back to reuse (tokens are permanent and reusable, §2.1.6
// modification 1).
type exclusions struct {
	scalar map[string]map[object.OID]bool // class → claimed OIDs
	groups map[string]bool                // claimed set-argument group signatures
}

func newExclusions() *exclusions {
	return &exclusions{scalar: make(map[string]map[object.OID]bool), groups: make(map[string]bool)}
}

func (x *exclusions) claimScalar(class string, oid object.OID) {
	m := x.scalar[class]
	if m == nil {
		m = make(map[object.OID]bool)
		x.scalar[class] = m
	}
	m[oid] = true
}

func groupSignature(class string, oids []object.OID) string {
	var b strings.Builder
	b.WriteString(class)
	for _, o := range oids {
		fmt.Fprintf(&b, ",%d", o)
	}
	return b.String()
}

// Plan finds a derivation plan for the target class under the given
// extent predicate. If stored objects already match, the plan is pure
// retrieval. Otherwise the planner backward-chains through the processes
// producing the class. Planning honours ctx cancellation; the Planner
// itself is stateless per call and safe for concurrent use.
func (pl *Planner) Plan(ctx context.Context, target string, pred sptemp.Extent) (*Plan, error) {
	// Read the depth bound into the search state instead of mutating the
	// shared Planner (concurrent Plan calls race on writes).
	maxDepth := pl.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 8
	}
	st := &search{ctx: ctx, maxDepth: maxDepth}
	p := &Plan{Target: target}
	existing, err := pl.liveQuery(target, pred)
	if err != nil {
		return nil, err
	}
	if len(existing) > 0 {
		p.Existing = existing
		return p, nil
	}
	ref, err := pl.satisfyOne(st, target, pred, map[string]bool{}, 0, p, newExclusions())
	if err != nil {
		return nil, err
	}
	if !ref.FromStep {
		// A target committed since the look above (a concurrent derivation
		// of the same tile): the plan is to retrieve it.
		p.Existing = []object.OID{ref.OID}
	}
	return p, nil
}

// search carries the per-call state of one backward-chaining run.
type search struct {
	ctx      context.Context
	maxDepth int
}

// satisfyOne produces one object of class cls matching pred, appending
// steps to the plan, and returns the reference to it.
func (pl *Planner) satisfyOne(st *search, cls string, pred sptemp.Extent, onPath map[string]bool, depth int, plan *Plan, excl *exclusions) (InputRef, error) {
	if err := st.ctx.Err(); err != nil {
		return InputRef{}, err
	}
	// Direct retrieval first (§2.1.5 step 1), preferring an unclaimed
	// stored object.
	stored, err := pl.liveQuery(cls, pred)
	if err != nil {
		return InputRef{}, err
	}
	if len(stored) > 0 {
		chosen := stored[0]
		for _, oid := range stored {
			if !excl.scalar[cls][oid] {
				chosen = oid
				break
			}
		}
		excl.claimScalar(cls, chosen)
		return InputRef{OID: chosen}, nil
	}
	if depth >= st.maxDepth {
		return InputRef{}, fmt.Errorf("%w: depth limit at class %s", ErrNoPlan, cls)
	}
	if onPath[cls] {
		// Self-derivation (e.g. interpolation deriving a class from
		// itself) is only allowed against stored data, which we already
		// failed to find.
		return InputRef{}, fmt.Errorf("%w: cyclic requirement on class %s", ErrNoPlan, cls)
	}
	onPath[cls] = true
	defer delete(onPath, cls)

	var lastErr error
	for _, pr := range pl.Mgr.ProcessesProducing(cls) {
		mark := len(plan.Steps)
		inputs, err := pl.satisfyProcess(st, pr, pred, onPath, depth, plan, excl)
		if err != nil {
			plan.Steps = plan.Steps[:mark] // roll back partial work
			lastErr = err
			continue
		}
		step := PlanStep{Process: pr.Name, Version: pr.Version, Inputs: inputs, OutClass: cls}
		plan.Steps = append(plan.Steps, step)
		return InputRef{Step: len(plan.Steps) - 1, FromStep: true}, nil
	}
	if lastErr != nil {
		return InputRef{}, lastErr
	}
	return InputRef{}, fmt.Errorf("%w: class %s has no stored objects and no producing process", ErrNoPlan, cls)
}

// satisfyProcess binds every argument of a process, recursing as needed.
func (pl *Planner) satisfyProcess(st *search, pr *process.Process, pred sptemp.Extent, onPath map[string]bool, depth int, plan *Plan, excl *exclusions) (map[string][]InputRef, error) {
	inputs := make(map[string][]InputRef, len(pr.Args))
	for _, spec := range pr.Args {
		if !spec.IsSet {
			ref, err := pl.satisfyOne(st, spec.Class, pred, onPath, depth+1, plan, excl)
			if err != nil {
				return nil, err
			}
			inputs[spec.Name] = []InputRef{ref}
			continue
		}
		// SETOF argument: gather MinCard guard-compatible stored objects;
		// only if none exist, try deriving them.
		refs, err := pl.gatherSet(st, spec, pred, onPath, depth, plan, excl)
		if err != nil {
			return nil, err
		}
		inputs[spec.Name] = refs
	}
	return inputs, nil
}

// gatherSet selects MinCard stored objects of the class whose extents are
// mutually guard-compatible (intersecting boxes, timestamps within the
// common() tolerance), preferring an unclaimed group. When stored objects
// are insufficient it derives the shortfall.
func (pl *Planner) gatherSet(st *search, spec process.ArgSpec, pred sptemp.Extent, onPath map[string]bool, depth int, plan *Plan, excl *exclusions) ([]InputRef, error) {
	stored, err := pl.liveQuery(spec.Class, pred)
	if err != nil {
		return nil, err
	}
	if group := pl.compatibleGroup(stored, spec.MinCard, spec.Class, excl); group != nil {
		excl.groups[groupSignature(spec.Class, group)] = true
		refs := make([]InputRef, len(group))
		for i, oid := range group {
			refs[i] = InputRef{OID: oid}
		}
		return refs, nil
	}
	// Not enough compatible stored objects: derive MinCard fresh ones.
	refs := make([]InputRef, 0, spec.MinCard)
	for i := 0; i < spec.MinCard; i++ {
		ref, err := pl.satisfyOne(st, spec.Class, pred, onPath, depth+1, plan, excl)
		if err != nil {
			return nil, fmt.Errorf("%w (argument %s needs %d of class %s)", err, spec.Name, spec.MinCard, spec.Class)
		}
		refs = append(refs, ref)
		if !ref.FromStep {
			// Retrieval found a stored object after all; but a single
			// stored object cannot fill MinCard>1 alone — deriving the
			// same query again would return the same OID. Bail to avoid
			// duplicate bindings unless MinCard is met by distinct OIDs.
			if spec.MinCard > 1 {
				return nil, fmt.Errorf("%w: cannot assemble %d distinct %s objects", ErrNoPlan, spec.MinCard, spec.Class)
			}
		}
	}
	return refs, nil
}

// compatibleGroup returns the first window of k objects (sorted by
// timestamp, then OID) whose extents pairwise satisfy the common() guards,
// preferring windows not yet claimed in this plan; nil when no compatible
// window exists.
func (pl *Planner) compatibleGroup(oids []object.OID, k int, class string, excl *exclusions) []object.OID {
	if len(oids) < k {
		return nil
	}
	type cand struct {
		oid object.OID
		ext sptemp.Extent
	}
	cands := make([]cand, 0, len(oids))
	for _, oid := range oids {
		o, err := pl.Obj.Get(oid)
		if err != nil {
			continue
		}
		cands = append(cands, cand{oid: oid, ext: o.Extent})
	}
	sort.Slice(cands, func(i, j int) bool {
		ti, tj := cands[i].ext.TimeIv.Start, cands[j].ext.TimeIv.Start
		if ti != tj {
			return ti < tj
		}
		return cands[i].oid < cands[j].oid
	})
	var fallback []object.OID
	for start := 0; start+k <= len(cands); start++ {
		group := cands[start : start+k]
		exts := make([]sptemp.Extent, k)
		for i, c := range group {
			exts[i] = c.ext
		}
		if !groupCompatible(exts) {
			continue
		}
		out := make([]object.OID, k)
		for i, c := range group {
			out[i] = c.oid
		}
		if !excl.groups[groupSignature(class, out)] {
			return out
		}
		if fallback == nil {
			fallback = out
		}
	}
	// Every compatible window is already claimed: reuse the first one
	// (tokens are permanent and reusable).
	return fallback
}

func groupCompatible(exts []sptemp.Extent) bool {
	if _, err := sptemp.CommonExtent(exts); err != nil {
		return false
	}
	// Timestamps within the common() tolerance.
	var ts []sptemp.AbsTime
	for _, e := range exts {
		if e.HasTime {
			ts = append(ts, e.TimeIv.Start)
		}
	}
	if len(ts) > 1 {
		if _, err := sptemp.CommonTimestamps(ts, process.CommonTimeTolerance); err != nil {
			return false
		}
	}
	return true
}
