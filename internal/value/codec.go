package value

import (
	"encoding/binary"
	"fmt"
	"math"

	"gaea/internal/linalg"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
)

// Internal (binary) representation: a one-byte tag followed by a
// type-specific little-endian payload. This codec is what the storage
// engine persists; it must round-trip every value exactly.

const (
	tagInt byte = iota + 1
	tagFloat
	tagString
	tagBool
	tagAbsTime
	tagInterval
	tagBox
	tagImage
	tagMatrix
	tagVector
	tagSet
)

// Encode serialises a value to its internal representation. A value
// whose length its kind gives — a scalar, an interval, a box, a vector —
// is encoded in one allocation of that length.
func Encode(v Value) ([]byte, error) { return Append(make([]byte, 0, encodedLen(v)), v) }

// encodedLen is the length of v's internal representation where v's kind
// gives it, and 0 where it takes a walk of the value (an image, a matrix,
// a set): Append then grows the buffer as it goes.
func encodedLen(v Value) int {
	switch x := v.(type) {
	case Int, Float, AbsTime:
		return 1 + 8
	case Bool:
		return 1 + 1
	case String_:
		return 1 + 4 + len(x)
	case Interval:
		return 1 + 2*8
	case Box:
		return 1 + 4*8
	case Vector:
		return 1 + 4 + 8*len(x)
	}
	return 0
}

// Append appends a value's internal representation to buf, so a caller
// laying several values into one record encodes them in place. On error
// the returned slice is nil and buf's contents past its length are
// unspecified.
func Append(buf []byte, v Value) ([]byte, error) { return appendValue(buf, v) }

// AppendInt, AppendFloat, AppendString, AppendBool and AppendAbsTime
// append the internal representation of one scalar, the bytes Append
// gives the Value holding it, without boxing it in a Value first.
func AppendInt(buf []byte, n int64) []byte {
	return binary.LittleEndian.AppendUint64(append(buf, tagInt), uint64(n))
}

func AppendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(append(buf, tagFloat), math.Float64bits(f))
}

func AppendString[S ~string | ~[]byte](buf []byte, s S) []byte {
	buf = binary.LittleEndian.AppendUint32(append(buf, tagString), uint32(len(s)))
	return append(buf, s...)
}

func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, tagBool, 1)
	}
	return append(buf, tagBool, 0)
}

func AppendAbsTime(buf []byte, t int64) []byte {
	return binary.LittleEndian.AppendUint64(append(buf, tagAbsTime), uint64(t))
}

func appendValue(buf []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case Int:
		return AppendInt(buf, int64(x)), nil
	case Float:
		return AppendFloat(buf, float64(x)), nil
	case String_:
		return AppendString(buf, x), nil
	case Bool:
		return AppendBool(buf, bool(x)), nil
	case AbsTime:
		return AppendAbsTime(buf, int64(x)), nil
	case Interval:
		buf = append(buf, tagInterval)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x.Start))
		return binary.LittleEndian.AppendUint64(buf, uint64(x.End)), nil
	case Box:
		buf = append(buf, tagBox)
		for _, f := range []float64{x.MinX, x.MinY, x.MaxX, x.MaxY} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		return buf, nil
	case Image:
		if x.Img == nil {
			return nil, fmt.Errorf("value: cannot encode nil image")
		}
		payload := raster.Marshal(x.Img)
		buf = append(buf, tagImage)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		return append(buf, payload...), nil
	case Matrix:
		if x.M == nil {
			return nil, fmt.Errorf("value: cannot encode nil matrix")
		}
		buf = append(buf, tagMatrix)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x.M.Rows()))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x.M.Cols()))
		for _, f := range x.M.Data() {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		return buf, nil
	case Vector:
		buf = append(buf, tagVector)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		for _, f := range x {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		return buf, nil
	case Set:
		buf = append(buf, tagSet)
		elem := []byte(x.Elem)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(elem)))
		buf = append(buf, elem...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x.Items)))
		var err error
		for _, it := range x.Items {
			if buf, err = appendValue(buf, it); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("value: cannot encode %T", v)
	}
}

// Decode deserialises a value from its internal representation, requiring
// the buffer to be fully consumed.
func Decode(buf []byte) (Value, error) {
	v, rest, err := decodeValue(buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("value: %d trailing bytes after decode", len(rest))
	}
	return v, nil
}

func decodeValue(buf []byte) (Value, []byte, error) {
	if len(buf) == 0 {
		return nil, nil, fmt.Errorf("value: empty buffer")
	}
	tag, rest := buf[0], buf[1:]
	need := func(n int) error {
		if len(rest) < n {
			return fmt.Errorf("value: truncated payload for tag %d", tag)
		}
		return nil
	}
	switch tag {
	case tagInt:
		if err := need(8); err != nil {
			return nil, nil, err
		}
		return Int(binary.LittleEndian.Uint64(rest)), rest[8:], nil
	case tagFloat:
		if err := need(8); err != nil {
			return nil, nil, err
		}
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(rest))), rest[8:], nil
	case tagString:
		if err := need(4); err != nil {
			return nil, nil, err
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if err := need(n); err != nil {
			return nil, nil, err
		}
		return String_(rest[:n]), rest[n:], nil
	case tagBool:
		if err := need(1); err != nil {
			return nil, nil, err
		}
		return Bool(rest[0] != 0), rest[1:], nil
	case tagAbsTime:
		if err := need(8); err != nil {
			return nil, nil, err
		}
		return AbsTime(binary.LittleEndian.Uint64(rest)), rest[8:], nil
	case tagInterval:
		if err := need(16); err != nil {
			return nil, nil, err
		}
		iv := Interval{
			Start: sptemp.AbsTime(binary.LittleEndian.Uint64(rest)),
			End:   sptemp.AbsTime(binary.LittleEndian.Uint64(rest[8:])),
		}
		return iv, rest[16:], nil
	case tagBox:
		if err := need(32); err != nil {
			return nil, nil, err
		}
		var f [4]float64
		for i := range f {
			f[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
		}
		return Box{MinX: f[0], MinY: f[1], MaxX: f[2], MaxY: f[3]}, rest[32:], nil
	case tagImage:
		if err := need(4); err != nil {
			return nil, nil, err
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if err := need(n); err != nil {
			return nil, nil, err
		}
		img, err := raster.Unmarshal(rest[:n])
		if err != nil {
			return nil, nil, err
		}
		return Image{Img: img}, rest[n:], nil
	case tagMatrix:
		if err := need(8); err != nil {
			return nil, nil, err
		}
		r := int(binary.LittleEndian.Uint32(rest))
		c := int(binary.LittleEndian.Uint32(rest[4:]))
		rest = rest[8:]
		if r <= 0 || c <= 0 || r > 1<<26 || c > 1<<26 || r*c > 1<<26 { // each bounded first: the product of two u32 can wrap
			return nil, nil, fmt.Errorf("value: implausible matrix dims %dx%d", r, c)
		}
		if err := need(r * c * 8); err != nil {
			return nil, nil, err
		}
		data := make([]float64, r*c)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
		}
		m, err := linalg.FromData(r, c, data)
		if err != nil {
			return nil, nil, err
		}
		return Matrix{M: m}, rest[r*c*8:], nil
	case tagVector:
		if err := need(4); err != nil {
			return nil, nil, err
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if n < 0 || n > 1<<26 {
			return nil, nil, fmt.Errorf("value: implausible vector length %d", n)
		}
		if err := need(n * 8); err != nil {
			return nil, nil, err
		}
		vec := make(Vector, n)
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
		}
		return vec, rest[n*8:], nil
	case tagSet:
		if err := need(2); err != nil {
			return nil, nil, err
		}
		en := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if err := need(en); err != nil {
			return nil, nil, err
		}
		elem := Type(rest[:en])
		rest = rest[en:]
		if err := need(4); err != nil {
			return nil, nil, err
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if n < 0 || n > 1<<20 {
			return nil, nil, fmt.Errorf("value: implausible set size %d", n)
		}
		items := make([]Value, 0, n)
		for i := 0; i < n; i++ {
			var (
				it  Value
				err error
			)
			it, rest, err = decodeValue(rest)
			if err != nil {
				return nil, nil, err
			}
			items = append(items, it)
		}
		s, err := NewSet(elem, items)
		if err != nil {
			return nil, nil, err
		}
		return s, rest, nil
	default:
		return nil, nil, fmt.Errorf("value: unknown tag %d", tag)
	}
}
