// Package value implements Gaea's primitive-class value system, the
// system-level semantics layer of §2.1.3. Following the paper (and the
// Postgres ADT facility it builds on), every primitive class has
//
//   - an external representation: a text form users read and write, and
//   - an internal representation: a binary form the storage engine keeps.
//
// Data objects in primitive classes are value-identified: "changing the
// value of an object in a primitive class will always lead to another
// object" (§2.1.3) — so values here are immutable; operators return new
// values.
//
// The SETOF construct of process arguments (Figure 3's
// "ARGUMENT (SETOF bands C1)") is modelled by the Set value.
package value

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"gaea/internal/linalg"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
)

// Type names a primitive class. The scalar names match the paper's
// (int4, float4, char16, bool, abstime, box, image).
type Type string

// The primitive classes of the reproduction.
const (
	TypeInt      Type = "int4"
	TypeFloat    Type = "float8"
	TypeString   Type = "char16" // variable length in practice; name kept for fidelity
	TypeBool     Type = "bool"
	TypeAbsTime  Type = "abstime"
	TypeInterval Type = "interval"
	TypeBox      Type = "box"
	TypeImage    Type = "image"
	TypeMatrix   Type = "matrix"
	TypeVector   Type = "vector"
)

// SetOf returns the set type over an element type.
func SetOf(elem Type) Type { return Type("setof " + string(elem)) }

// IsSet reports whether t is a set type, and returns the element type.
func (t Type) IsSet() (Type, bool) {
	s := string(t)
	if rest, ok := strings.CutPrefix(s, "setof "); ok {
		return Type(rest), true
	}
	return "", false
}

// Valid reports whether t names a known primitive class or a set thereof.
func (t Type) Valid() bool {
	if elem, ok := t.IsSet(); ok {
		return elem.Valid()
	}
	switch t {
	case TypeInt, TypeFloat, TypeString, TypeBool, TypeAbsTime, TypeInterval, TypeBox, TypeImage, TypeMatrix, TypeVector:
		return true
	}
	return false
}

// Value is one immutable primitive-class object.
type Value interface {
	// Type returns the primitive class of the value.
	Type() Type
	// String returns the external representation.
	String() string
}

// ErrType reports a value of the wrong primitive class.
var ErrType = errors.New("value: type mismatch")

// Int is the int4 primitive class (widened to 64 bits internally).
type Int int64

// Type implements Value.
func (Int) Type() Type { return TypeInt }

// String implements Value.
func (v Int) String() string { return strconv.FormatInt(int64(v), 10) }

// Float is the float8 primitive class.
type Float float64

// Type implements Value.
func (Float) Type() Type { return TypeFloat }

// String implements Value.
func (v Float) String() string { return strconv.FormatFloat(float64(v), 'g', -1, 64) }

// String_ is the char16 primitive class (arbitrary-length strings).
type String_ string

// Type implements Value.
func (String_) Type() Type { return TypeString }

// String implements Value.
func (v String_) String() string { return string(v) }

// Bool is the boolean primitive class.
type Bool bool

// Type implements Value.
func (Bool) Type() Type { return TypeBool }

// String implements Value.
func (v Bool) String() string {
	if v {
		return "true"
	}
	return "false"
}

// AbsTime is the abstime primitive class.
type AbsTime sptemp.AbsTime

// Type implements Value.
func (AbsTime) Type() Type { return TypeAbsTime }

// String implements Value.
func (v AbsTime) String() string { return sptemp.AbsTime(v).String() }

// Time unwraps to the sptemp representation.
func (v AbsTime) Time() sptemp.AbsTime { return sptemp.AbsTime(v) }

// Interval is the temporal-interval primitive class.
type Interval sptemp.Interval

// Type implements Value.
func (Interval) Type() Type { return TypeInterval }

// String implements Value.
func (v Interval) String() string { return sptemp.Interval(v).String() }

// Interval unwraps to the sptemp representation.
func (v Interval) Interval() sptemp.Interval { return sptemp.Interval(v) }

// Box is the spatial-box primitive class.
type Box sptemp.Box

// Type implements Value.
func (Box) Type() Type { return TypeBox }

// String implements Value.
func (v Box) String() string { return sptemp.Box(v).String() }

// Box unwraps to the sptemp representation.
func (v Box) Box() sptemp.Box { return sptemp.Box(v) }

// Image is the image primitive class; the external representation follows
// the paper: "(nrows, ncols, pixtype, <bytes>)". The pixel payload is the
// internal representation.
type Image struct{ Img *raster.Image }

// Type implements Value.
func (Image) Type() Type { return TypeImage }

// String implements Value.
func (v Image) String() string {
	if v.Img == nil {
		return "(image nil)"
	}
	return fmt.Sprintf("(%d, %d, %s, %dB)", v.Img.Rows(), v.Img.Cols(), v.Img.PixType(), len(v.Img.Data()))
}

// Matrix is the matrix primitive class (used inside the PCA network).
type Matrix struct{ M *linalg.Matrix }

// Type implements Value.
func (Matrix) Type() Type { return TypeMatrix }

// String implements Value.
func (v Matrix) String() string {
	if v.M == nil {
		return "matrix(nil)"
	}
	return v.M.String()
}

// Vector is the vector primitive class.
type Vector []float64

// Type implements Value.
func (Vector) Type() Type { return TypeVector }

// String implements Value.
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Set is a SETOF value: an ordered collection of values of one element
// type. Order matters for reproducibility (tasks record their inputs in
// order), though set semantics treat it as a collection.
type Set struct {
	Elem  Type
	Items []Value
}

// NewSet builds a Set after checking element types.
func NewSet(elem Type, items []Value) (Set, error) {
	for i, it := range items {
		if it.Type() != elem {
			return Set{}, fmt.Errorf("%w: set element %d is %s, want %s", ErrType, i, it.Type(), elem)
		}
	}
	return Set{Elem: elem, Items: items}, nil
}

// Type implements Value.
func (s Set) Type() Type { return SetOf(s.Elem) }

// String implements Value.
func (s Set) String() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = it.String()
	}
	return "{" + strings.Join(parts, "; ") + "}"
}

// Card returns the cardinality of the set — the card() assertion operator
// of Figure 3.
func (s Set) Card() int { return len(s.Items) }

// Equal compares two values of any primitive class. Images compare by
// pixel content, matrices elementwise exactly, sets elementwise in order.
func Equal(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Type() != b.Type() {
		return false
	}
	switch av := a.(type) {
	case Int:
		return av == b.(Int)
	case Float:
		bf := b.(Float)
		return av == bf || (math.IsNaN(float64(av)) && math.IsNaN(float64(bf)))
	case String_:
		return av == b.(String_)
	case Bool:
		return av == b.(Bool)
	case AbsTime:
		return av == b.(AbsTime)
	case Interval:
		return sptemp.Interval(av).Equal(sptemp.Interval(b.(Interval)))
	case Box:
		return sptemp.Box(av).Equal(sptemp.Box(b.(Box)))
	case Image:
		bi := b.(Image)
		if av.Img == nil || bi.Img == nil {
			return av.Img == bi.Img
		}
		return av.Img.EqualPixels(bi.Img)
	case Matrix:
		bm := b.(Matrix)
		if av.M == nil || bm.M == nil {
			return av.M == bm.M
		}
		return av.M.Equalish(bm.M, 0)
	case Vector:
		bv := b.(Vector)
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
		return true
	case Set:
		bs := b.(Set)
		if av.Elem != bs.Elem || len(av.Items) != len(bs.Items) {
			return false
		}
		for i := range av.Items {
			if !Equal(av.Items[i], bs.Items[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// AsFloat widens numeric values (Int, Float) to float64 for arithmetic in
// the template language.
func AsFloat(v Value) (float64, error) {
	switch x := v.(type) {
	case Int:
		return float64(x), nil
	case Float:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("%w: %s is not numeric", ErrType, v.Type())
	}
}

// AsInt narrows numeric values to int64; floats must be integral.
func AsInt(v Value) (int64, error) {
	switch x := v.(type) {
	case Int:
		return int64(x), nil
	case Float:
		if float64(x) != math.Trunc(float64(x)) {
			return 0, fmt.Errorf("%w: %s is not integral", ErrType, v)
		}
		return int64(x), nil
	default:
		return 0, fmt.Errorf("%w: %s is not numeric", ErrType, v.Type())
	}
}

// AsImage extracts an image.
func AsImage(v Value) (*raster.Image, error) {
	if im, ok := v.(Image); ok && im.Img != nil {
		return im.Img, nil
	}
	return nil, fmt.Errorf("%w: %s is not an image", ErrType, v.Type())
}

// AsImageSet extracts the images from a SETOF image value (or a single
// image, treated as a singleton set — operators like composite accept
// both).
func AsImageSet(v Value) ([]*raster.Image, error) {
	switch x := v.(type) {
	case Image:
		if x.Img == nil {
			return nil, fmt.Errorf("%w: nil image", ErrType)
		}
		return []*raster.Image{x.Img}, nil
	case Set:
		if x.Elem != TypeImage {
			return nil, fmt.Errorf("%w: set of %s, want images", ErrType, x.Elem)
		}
		out := make([]*raster.Image, len(x.Items))
		for i, it := range x.Items {
			im, err := AsImage(it)
			if err != nil {
				return nil, err
			}
			out[i] = im
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: %s is not image or setof image", ErrType, v.Type())
	}
}

// AsMatrix extracts a matrix.
func AsMatrix(v Value) (*linalg.Matrix, error) {
	if m, ok := v.(Matrix); ok && m.M != nil {
		return m.M, nil
	}
	return nil, fmt.Errorf("%w: %s is not a matrix", ErrType, v.Type())
}

// AsString extracts a string.
func AsString(v Value) (string, error) {
	if s, ok := v.(String_); ok {
		return string(s), nil
	}
	return "", fmt.Errorf("%w: %s is not a string", ErrType, v.Type())
}
