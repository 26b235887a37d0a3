package sptemp

import "fmt"

// RefSystem names a spatial reference system, the paper's ref_system
// attribute ("long/lat, UTM ...") on non-primitive classes such as
// landcover.
type RefSystem string

// Reference systems used by the reproduction's workloads.
const (
	RefLongLat RefSystem = "long/lat"
	RefUTM     RefSystem = "UTM"
	RefRowCol  RefSystem = "row/col"
)

// RefUnit names the measurement unit of a reference system, the paper's
// ref_unit attribute ("meter, degree ...").
type RefUnit string

// Reference units used by the reproduction's workloads.
const (
	UnitMeter  RefUnit = "meter"
	UnitDegree RefUnit = "degree"
	UnitPixel  RefUnit = "pixel"
)

// Frame bundles a reference system with its unit; extents are only
// comparable within the same frame.
type Frame struct {
	System RefSystem
	Unit   RefUnit
}

// DefaultFrame is the frame synthetic scenes are generated in.
var DefaultFrame = Frame{System: RefUTM, Unit: UnitMeter}

// Compatible reports whether extents in the two frames may be compared or
// combined. Gaea requires rectification into a shared frame before
// derivation; the paper's example inputs are "remotely sensed and rectified
// Landsat TM data".
func (f Frame) Compatible(o Frame) bool { return f == o }

// String renders the frame as "system(unit)".
func (f Frame) String() string { return fmt.Sprintf("%s(%s)", f.System, f.Unit) }

// Validate checks the frame names against the known registry, so typos in
// class definitions are caught at definition time rather than at derivation
// time.
func (f Frame) Validate() error {
	switch f.System {
	case RefLongLat, RefUTM, RefRowCol:
	default:
		return fmt.Errorf("sptemp: unknown reference system %q", f.System)
	}
	switch f.Unit {
	case UnitMeter, UnitDegree, UnitPixel:
	default:
		return fmt.Errorf("sptemp: unknown reference unit %q", f.Unit)
	}
	if f.System == RefLongLat && f.Unit != UnitDegree {
		return fmt.Errorf("sptemp: reference system %q requires unit %q, got %q", RefLongLat, UnitDegree, f.Unit)
	}
	return nil
}

// Extent is the full spatio-temporal extent of a scientific object: where
// and when, in which frame. It is the unit the query layer matches
// predicates against and the derivation layer transfers invariantly (the
// "invariant" arcs of Figure 2).
type Extent struct {
	Frame   Frame
	Space   Box
	TimeIv  Interval
	HasTime bool // false for timeless objects (e.g. static terrain)
}

// NewExtent builds an extent with a time interval.
func NewExtent(frame Frame, space Box, timeIv Interval) Extent {
	return Extent{Frame: frame, Space: space, TimeIv: timeIv, HasTime: true}
}

// TimelessExtent builds an extent with no temporal component.
func TimelessExtent(frame Frame, space Box) Extent {
	return Extent{Frame: frame, Space: space}
}

// AtInstant builds an extent timestamped at a single instant.
func AtInstant(frame Frame, space Box, t AbsTime) Extent {
	return NewExtent(frame, space, Instant(t))
}

// Matches reports whether the extent satisfies a query predicate: the
// frames must be compatible, the spaces must intersect, and, when both
// carry time, the intervals must intersect. A predicate without time
// matches any timestamp and vice versa.
func (e Extent) Matches(pred Extent) bool {
	if !e.Frame.Compatible(pred.Frame) {
		return false
	}
	if !pred.Space.IsEmpty() && !e.Space.Intersects(pred.Space) {
		return false
	}
	if pred.HasTime && e.HasTime && !e.TimeIv.Intersects(pred.TimeIv) {
		return false
	}
	return true
}

// Equal reports whether two extents are identical.
func (e Extent) Equal(o Extent) bool {
	if e.Frame != o.Frame || e.HasTime != o.HasTime {
		return false
	}
	if !e.Space.Equal(o.Space) {
		return false
	}
	if e.HasTime && !e.TimeIv.Equal(o.TimeIv) {
		return false
	}
	return true
}

// String renders the extent for lineage explanations.
func (e Extent) String() string {
	if e.HasTime {
		return fmt.Sprintf("%s %s @ %s", e.Frame, e.Space, e.TimeIv)
	}
	return fmt.Sprintf("%s %s (timeless)", e.Frame, e.Space)
}

// CommonExtent implements common() over full extents: the frames must all
// be compatible and both the spatial and (where present) temporal
// components must share an intersection. It returns the shared extent.
func CommonExtent(exts []Extent) (Extent, error) {
	if len(exts) == 0 {
		return Extent{}, fmt.Errorf("sptemp: common() over no extents")
	}
	frame := exts[0].Frame
	boxes := make([]Box, 0, len(exts))
	ivs := make([]Interval, 0, len(exts))
	hasTime := false
	for i, e := range exts {
		if !e.Frame.Compatible(frame) {
			return Extent{}, fmt.Errorf("sptemp: common() failed: extent %d in frame %s, expected %s", i, e.Frame, frame)
		}
		boxes = append(boxes, e.Space)
		if e.HasTime {
			hasTime = true
			ivs = append(ivs, e.TimeIv)
		}
	}
	space, err := CommonBox(boxes)
	if err != nil {
		return Extent{}, err
	}
	out := Extent{Frame: frame, Space: space}
	if hasTime {
		iv, err := CommonInterval(ivs)
		if err != nil {
			return Extent{}, err
		}
		out.TimeIv = iv
		out.HasTime = true
	}
	return out, nil
}
