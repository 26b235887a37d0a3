// Package interp implements step 2 of the paper's query sequence (§2.1.5):
// "Data interpolation (temporal or spatial). Interpolation can be used in
// many situations where data are missing. It is a generic derivation
// process which is applicable to many data types in many domains."
//
// Temporal interpolation blends the two stored objects bracketing the
// requested instant, and commits the new object with an external task
// recording its derivation, in one batch, so interpolated data carries
// lineage like any other derived data. The paper's spatial case is not
// implemented: no query plan asks for it.
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
	ErrNoBracket = errors.New("interp: no bracketing observations")
	ErrBadClass  = errors.New("interp: class not interpolatable")
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
		return task.Retry(func() (object.OID, error) { return ip.temporal(ctx, class, at, spatial, opts) })
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
	// Every observation is read at one pinned epoch, which the commit
	// then validates the pair against.
	read := ip.Obj.Pin()
	defer ip.Obj.Unpin(read)
	oids, err := ip.Obj.QueryAt(class, pred, read)
	if err != nil {
		return 0, err
	}
	before, after, err := ip.bracket(oids, at, read)
	if err != nil {
		return 0, err
	}
	ob, err := ip.Obj.GetAt(before, read)
	if err != nil {
		return 0, err
	}
	oa, err := ip.Obj.GetAt(after, read)
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
		map[string][]object.OID{"before": {before}, "after": {after}}, read, opts)
}

// store commits an interpolated object and the external task that records
// its derivation in one batch, so neither survives a crash without the
// other; the batch fails with object.ErrConflict if an input changed
// since the epoch it was read at.
func (ip *Interpolator) store(out *object.Object, proc string, inputs map[string][]object.OID, read uint64, opts task.RunOptions) (object.OID, error) {
	if _, err := ip.Obj.Reserve(out); err != nil {
		return 0, err
	}
	tasks := ip.Exec.StageExternal(proc, inputs, []task.Run{{uint64(out.OID), 1}}, out.Class, opts)
	if _, err := ip.Exec.Apply(object.BatchOps{Inserts: []*object.Object{out}, ReadEpoch: read}, tasks); err != nil {
		return 0, err
	}
	return out.OID, nil
}

// bracket picks the latest object at or before `at` and the earliest at or
// after it, as of the epoch read. Objects exactly at `at` never occur here
// in practice — the query layer retrieves exact matches directly.
func (ip *Interpolator) bracket(oids []object.OID, at sptemp.AbsTime, read uint64) (before, after object.OID, err error) {
	type obs struct {
		oid object.OID
		t   sptemp.AbsTime
	}
	var all []obs
	for _, oid := range oids {
		if ip.isStale(oid) {
			continue
		}
		o, err := ip.Obj.GetAt(oid, read)
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
			sum += float64(weights[i] * f)
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
