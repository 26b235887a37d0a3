// Package interp implements step 2 of the paper's query sequence (§2.1.5):
// "Data interpolation (temporal or spatial). Interpolation can be used in
// many situations where data are missing. It is a generic derivation
// process which is applicable to many data types in many domains."
//
// Temporal interpolation blends the two stored objects bracketing the
// requested instant; spatial interpolation blends nearby objects by
// inverse distance. Both commit the new object with an external task
// recording its derivation, in one batch, so interpolated data carries
// lineage like any other derived data.
package interp

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"gaea/internal/adt"
	"gaea/internal/catalog"
	"gaea/internal/object"
	"gaea/internal/sflight"
	"gaea/internal/sptemp"
	"gaea/internal/task"
	"gaea/internal/value"
)

// Errors returned by the interpolator.
var (
	ErrNoBracket  = errors.New("interp: no bracketing observations")
	ErrNoNeighbor = errors.New("interp: no neighbouring observations")
	ErrBadClass   = errors.New("interp: class not interpolatable")
)

// Interpolator derives missing objects from stored ones. Concurrent
// identical interpolations are single-flight: N callers asking for the
// same class/instant/box share one stored object instead of inserting N
// duplicates (sequential repeats are answered by retrieval at the query
// layer, so in-flight dedup closes the only duplication window).
type Interpolator struct {
	Cat  *catalog.Catalog
	Obj  *object.Store
	Reg  *adt.Registry
	Exec *task.Executor
	// Stale reports whether an object is marked stale by the derived-data
	// manager (nil: nothing is ever stale). Stale observations are
	// excluded from bracketing and neighbour selection — interpolating
	// over outdated data would launder it into fresh-looking objects.
	Stale func(object.OID) bool

	flights sflight.Group[object.OID]
}

func (ip *Interpolator) isStale(oid object.OID) bool {
	return ip.Stale != nil && ip.Stale(oid)
}

// Temporal derives an object of the class at the requested instant by
// linear interpolation between the nearest stored objects before and after
// it (within the spatial predicate). Image and float attributes are
// blended; other attributes are copied from the nearer endpoint. The new
// object is stored and its derivation recorded.
func (ip *Interpolator) Temporal(ctx context.Context, class string, at sptemp.AbsTime, spatial sptemp.Box, opts task.RunOptions) (object.OID, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	key := fmt.Sprintf("T|%s|%d|%v", class, at, spatial)
	oid, _, err := ip.flights.Do(ctx, key, func() (object.OID, error) {
		return ip.temporal(ctx, class, at, spatial, opts)
	})
	return oid, err
}

func (ip *Interpolator) temporal(ctx context.Context, class string, at sptemp.AbsTime, spatial sptemp.Box, opts task.RunOptions) (object.OID, error) {
	cls, err := ip.Cat.Class(class)
	if err != nil {
		return 0, err
	}
	if !cls.HasTemporal {
		return 0, fmt.Errorf("%w: %s has no temporal extent", ErrBadClass, class)
	}
	pred := sptemp.Extent{Frame: cls.Frame, Space: spatial}
	oids, err := ip.Obj.Query(class, pred)
	if err != nil {
		return 0, err
	}
	before, after, err := ip.bracket(oids, at)
	if err != nil {
		return 0, err
	}
	ob, err := ip.Obj.Get(before)
	if err != nil {
		return 0, err
	}
	oa, err := ip.Obj.Get(after)
	if err != nil {
		return 0, err
	}
	tb, ta := ob.Extent.TimeIv.Start, oa.Extent.TimeIv.Start
	var frac float64
	if ta != tb {
		frac = float64(at-tb) / float64(ta-tb)
	}
	attrs, err := ip.blendPair(cls, ob, oa, frac)
	if err != nil {
		return 0, err
	}
	ext := sptemp.AtInstant(cls.Frame, ob.Extent.Space.Intersection(oa.Extent.Space), at)
	if opts.Note == "" {
		opts.Note = fmt.Sprintf("temporal interpolation at %s", at)
	}
	return ip.store(&object.Object{Class: class, Attrs: attrs, Extent: ext}, "temporal_interpolation",
		map[string][]object.OID{"before": {before}, "after": {after}}, opts)
}

// store commits an interpolated object and the external task that records
// its derivation in one batch, so neither survives a crash without the
// other.
func (ip *Interpolator) store(out *object.Object, proc string, inputs map[string][]object.OID, opts task.RunOptions) (object.OID, error) {
	if _, err := ip.Obj.Reserve(out); err != nil {
		return 0, err
	}
	tasks := ip.Exec.StageExternal(proc, inputs, []object.OID{out.OID}, out.Class, opts)
	if _, err := ip.Exec.Apply(object.BatchOps{Inserts: []*object.Object{out}}, tasks); err != nil {
		return 0, err
	}
	return out.OID, nil
}

// bracket picks the latest object at or before `at` and the earliest at or
// after it. Objects exactly at `at` never occur here in practice — the
// query layer retrieves exact matches directly.
func (ip *Interpolator) bracket(oids []object.OID, at sptemp.AbsTime) (before, after object.OID, err error) {
	type obs struct {
		oid object.OID
		t   sptemp.AbsTime
	}
	var all []obs
	for _, oid := range oids {
		if ip.isStale(oid) {
			continue
		}
		o, err := ip.Obj.Get(oid)
		if err != nil || !o.Extent.HasTime {
			continue
		}
		all = append(all, obs{oid: oid, t: o.Extent.TimeIv.Start})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].t != all[j].t {
			return all[i].t < all[j].t
		}
		return all[i].oid < all[j].oid
	})
	bi, ai := -1, -1
	for i, o := range all {
		if o.t <= at {
			bi = i
		}
		if o.t >= at && ai < 0 {
			ai = i
		}
	}
	if bi < 0 || ai < 0 {
		return 0, 0, fmt.Errorf("%w: instant %s outside observed range", ErrNoBracket, at)
	}
	return all[bi].oid, all[ai].oid, nil
}

// blendPair blends attribute values of two objects with weight frac on
// the second.
func (ip *Interpolator) blendPair(cls *catalog.Class, a, b *object.Object, frac float64) (map[string]value.Value, error) {
	attrs := make(map[string]value.Value, len(cls.Attrs))
	for _, spec := range cls.Attrs {
		va, vb := a.Attrs[spec.Name], b.Attrs[spec.Name]
		blended, err := blendValues(ip.Reg, spec.Type, []value.Value{va, vb}, []float64{1 - frac, frac})
		if err != nil {
			return nil, fmt.Errorf("interp: attribute %s: %w", spec.Name, err)
		}
		attrs[spec.Name] = blended
	}
	return attrs, nil
}

// Spatial derives an object covering the target box at the given instant
// by inverse-distance weighting over the k nearest stored objects
// (matching the instant). All image attributes must share shape.
func (ip *Interpolator) Spatial(ctx context.Context, class string, target sptemp.Box, at sptemp.AbsTime, k int, opts task.RunOptions) (object.OID, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if k < 1 {
		k = 2
	}
	key := fmt.Sprintf("S|%s|%d|%v|%d", class, at, target, k)
	oid, _, err := ip.flights.Do(ctx, key, func() (object.OID, error) {
		return ip.spatial(ctx, class, target, at, k, opts)
	})
	return oid, err
}

func (ip *Interpolator) spatial(ctx context.Context, class string, target sptemp.Box, at sptemp.AbsTime, k int, opts task.RunOptions) (object.OID, error) {
	cls, err := ip.Cat.Class(class)
	if err != nil {
		return 0, err
	}
	if k < 1 {
		k = 2
	}
	pred := sptemp.Extent{Frame: cls.Frame, Space: sptemp.EmptyBox()}
	if cls.HasTemporal {
		pred.TimeIv = sptemp.Instant(at)
		pred.HasTime = true
	}
	oids, err := ip.Obj.Query(class, pred)
	if err != nil {
		return 0, err
	}
	type neigh struct {
		oid  object.OID
		obj  *object.Object
		dist float64
	}
	var ns []neigh
	for _, oid := range oids {
		if ip.isStale(oid) {
			continue
		}
		o, err := ip.Obj.Get(oid)
		if err != nil {
			continue
		}
		d, err := o.Extent.Space.CenterDistance(target)
		if err != nil {
			continue
		}
		ns = append(ns, neigh{oid: oid, obj: o, dist: d})
	}
	if len(ns) == 0 {
		return 0, ErrNoNeighbor
	}
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].dist != ns[j].dist {
			return ns[i].dist < ns[j].dist
		}
		return ns[i].oid < ns[j].oid
	})
	if k > len(ns) {
		k = len(ns)
	}
	ns = ns[:k]
	// Inverse-distance weights (an exact hit takes all the weight).
	weights := make([]float64, k)
	var total float64
	for i, n := range ns {
		if n.dist == 0 {
			for j := range weights {
				weights[j] = 0
			}
			weights[i] = 1
			total = 1
			break
		}
		weights[i] = 1 / n.dist
		total += weights[i]
	}
	for i := range weights {
		weights[i] /= total
	}
	attrs := make(map[string]value.Value, len(cls.Attrs))
	for _, spec := range cls.Attrs {
		vals := make([]value.Value, k)
		for i, n := range ns {
			vals[i] = n.obj.Attrs[spec.Name]
		}
		blended, err := blendValues(ip.Reg, spec.Type, vals, weights)
		if err != nil {
			return 0, fmt.Errorf("interp: attribute %s: %w", spec.Name, err)
		}
		attrs[spec.Name] = blended
	}
	ext := sptemp.Extent{Frame: cls.Frame, Space: target}
	if cls.HasTemporal {
		ext.TimeIv = sptemp.Instant(at)
		ext.HasTime = true
	}
	inputs := map[string][]object.OID{"neighbors": {}}
	for _, n := range ns {
		inputs["neighbors"] = append(inputs["neighbors"], n.oid)
	}
	if opts.Note == "" {
		opts.Note = fmt.Sprintf("spatial interpolation over %d neighbours", k)
	}
	return ip.store(&object.Object{Class: class, Attrs: attrs, Extent: ext}, "spatial_interpolation", inputs, opts)
}

// blendValues combines same-typed values with the given weights: images
// and floats blend linearly, ints round the blend, everything else takes
// the heaviest-weighted value.
func blendValues(reg *adt.Registry, t value.Type, vals []value.Value, weights []float64) (value.Value, error) {
	if len(vals) == 0 || len(vals) != len(weights) {
		return nil, fmt.Errorf("blend needs matching values and weights")
	}
	switch t {
	case value.TypeImage:
		var acc value.Value
		for i, v := range vals {
			scaled, err := reg.Apply("scale_offset", v, value.Float(weights[i]), value.Float(0))
			if err != nil {
				return nil, err
			}
			if acc == nil {
				acc = scaled
				continue
			}
			if acc, err = reg.Apply("img_add", acc, scaled); err != nil {
				return nil, err
			}
		}
		return acc, nil
	case value.TypeFloat, value.TypeInt:
		var sum float64
		for i, v := range vals {
			f, err := value.AsFloat(v)
			if err != nil {
				return nil, err
			}
			sum += weights[i] * f
		}
		if t == value.TypeInt {
			return value.Int(int64(sum + 0.5)), nil
		}
		return value.Float(sum), nil
	default:
		best := 0
		for i := range weights {
			if weights[i] > weights[best] {
				best = i
			}
		}
		return vals[best], nil
	}
}
