// Package sptemp implements the spatial and temporal extent semantics that
// Gaea attaches to every scientific object: bounding boxes in a named
// reference system, absolute timestamps and intervals, the common() overlap
// predicate used by process assertions, and simple spatial/temporal indexes
// for extent-qualified retrieval.
//
// The paper (§2.1.1–2.1.2) treats the spatial and temporal extents as
// orthogonal, well-studied dimensions; this package provides exactly the
// operations the derivation layer needs: equality, overlap, intersection,
// and the "same or overlapping" guard written as common(bands.spatialextent)
// in Figure 3.
package sptemp

import (
	"errors"
	"fmt"
	"math"
)

// Box is an axis-aligned spatial bounding box, the paper's "box" primitive
// class used for SPATIAL EXTENT attributes. Coordinates are interpreted in
// the owning class's reference system (long/lat, UTM, ...).
type Box struct {
	MinX, MinY float64
	MaxX, MaxY float64
}

// NewBox returns a box from two corner points, normalising the corner order
// so that Min <= Max on both axes.
func NewBox(x1, y1, x2, y2 float64) Box {
	return Box{
		MinX: math.Min(x1, x2),
		MinY: math.Min(y1, y2),
		MaxX: math.Max(x1, x2),
		MaxY: math.Max(y1, y2),
	}
}

// EmptyBox returns the canonical empty box, which contains nothing and
// intersects nothing.
func EmptyBox() Box {
	return Box{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
}

// IsEmpty reports whether the box contains no points.
func (b Box) IsEmpty() bool {
	return b.MinX > b.MaxX || b.MinY > b.MaxY
}

// Width returns the x-axis extent of the box, 0 for empty boxes.
func (b Box) Width() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.MaxX - b.MinX
}

// Equal reports exact coordinate equality. All empty boxes compare equal.
func (b Box) Equal(o Box) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return b.IsEmpty() && o.IsEmpty()
	}
	return b == o
}

// Intersects reports whether the two boxes share at least one point
// (touching edges count as intersecting, matching the paper's "same or
// overlap" guard semantics).
func (b Box) Intersects(o Box) bool {
	if b.IsEmpty() || o.IsEmpty() {
		return false
	}
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX && b.MinY <= o.MaxY && o.MinY <= b.MaxY
}

// Intersection returns the largest box contained in both operands, or an
// empty box when they do not intersect.
func (b Box) Intersection(o Box) Box {
	if !b.Intersects(o) {
		return EmptyBox()
	}
	return Box{
		MinX: math.Max(b.MinX, o.MinX),
		MinY: math.Max(b.MinY, o.MinY),
		MaxX: math.Min(b.MaxX, o.MaxX),
		MaxY: math.Min(b.MaxY, o.MaxY),
	}
}

// String renders the box in the paper's external-representation style.
func (b Box) String() string {
	if b.IsEmpty() {
		return "(empty)"
	}
	return fmt.Sprintf("(%g,%g,%g,%g)", b.MinX, b.MinY, b.MaxX, b.MaxY)
}

// CommonBox implements the common() assertion from Figure 3 over spatial
// extents: it succeeds when every pair of boxes overlaps (the paper requires
// that "the spatio-temporal extents of the input classes are the same or
// overlap") and returns their shared intersection. It fails when the set is
// empty or some pair is disjoint.
func CommonBox(boxes []Box) (Box, error) {
	if len(boxes) == 0 {
		return EmptyBox(), errors.New("sptemp: common() over no spatial extents")
	}
	inter := boxes[0]
	for i, b := range boxes[1:] {
		if !inter.Intersects(b) {
			return EmptyBox(), fmt.Errorf("sptemp: common() failed: extent %d (%s) disjoint from intersection so far (%s)", i+1, b, inter)
		}
		inter = inter.Intersection(b)
	}
	return inter, nil
}
