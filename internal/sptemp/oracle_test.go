package sptemp

// Box and interval operations no kernel path uses; the property tests
// use them as oracles for Intersection, CommonBox and CommonInterval.

import "math"

// Height returns the y-axis extent of the box, 0 for empty boxes.
func (b Box) Height() float64 {
	if b.IsEmpty() {
		return 0
	}
	return b.MaxY - b.MinY
}

// Area returns the area of the box, 0 for empty boxes.
func (b Box) Area() float64 {
	return b.Width() * b.Height()
}

// Contains reports whether o lies entirely within b. An empty box is
// contained in every box.
func (b Box) Contains(o Box) bool {
	if o.IsEmpty() {
		return true
	}
	if b.IsEmpty() {
		return false
	}
	return o.MinX >= b.MinX && o.MaxX <= b.MaxX && o.MinY >= b.MinY && o.MaxY <= b.MaxY
}

// Union returns the smallest box containing both operands.
func (b Box) Union(o Box) Box {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return Box{
		MinX: math.Min(b.MinX, o.MinX),
		MinY: math.Min(b.MinY, o.MinY),
		MaxX: math.Max(b.MaxX, o.MaxX),
		MaxY: math.Max(b.MaxY, o.MaxY),
	}
}

// NewInterval returns the interval [a, b], normalising the endpoint order.
func NewInterval(a, b AbsTime) Interval {
	if a > b {
		a, b = b, a
	}
	return Interval{Start: a, End: b}
}

// ContainsInterval reports whether o lies entirely within iv. Empty
// intervals are contained everywhere.
func (iv Interval) ContainsInterval(o Interval) bool {
	if o.IsEmpty() {
		return true
	}
	if iv.IsEmpty() {
		return false
	}
	return o.Start >= iv.Start && o.End <= iv.End
}

// Union returns the smallest interval covering both operands.
func (iv Interval) Union(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	out := iv
	if o.Start < out.Start {
		out.Start = o.Start
	}
	if o.End > out.End {
		out.End = o.End
	}
	return out
}
