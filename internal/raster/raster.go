// Package raster implements Gaea's image primitive class: a rectangular
// raster with a declared pixel type, as defined in §2.1.3 of the paper
// ("(nrows, ncols, pixtype, filepath)" with pixtype one of char, int2,
// int4, float4, float8). It also provides the synthetic multi-band scene
// generator that substitutes for Landsat TM / AVHRR imagery: the
// experiments need co-registered bands with plausible correlation
// structure, not real radiometry.
package raster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// PixType enumerates the pixel data types the paper's image class supports.
type PixType string

// Pixel types, named exactly as in the paper's internal representation.
const (
	PixChar   PixType = "char"   // unsigned 8-bit
	PixInt2   PixType = "int2"   // signed 16-bit
	PixInt4   PixType = "int4"   // signed 32-bit
	PixFloat4 PixType = "float4" // IEEE 754 single
	PixFloat8 PixType = "float8" // IEEE 754 double
)

// Size returns the per-pixel byte width of the type, or 0 for unknown
// types.
func (p PixType) Size() int {
	switch p {
	case PixChar:
		return 1
	case PixInt2:
		return 2
	case PixInt4:
		return 4
	case PixFloat4:
		return 4
	case PixFloat8:
		return 8
	default:
		return 0
	}
}

// Valid reports whether p is one of the five supported pixel types.
func (p PixType) Valid() bool { return p.Size() != 0 }

// Errors returned by image construction and access.
var (
	ErrBadDims    = errors.New("raster: rows and cols must be positive")
	ErrBadPixType = errors.New("raster: unknown pixel type")
	ErrBounds     = errors.New("raster: pixel index out of bounds")
	ErrShape      = errors.New("raster: image shapes differ")
)

// Image is a row-major raster. Pixels are stored in a contiguous
// little-endian byte buffer, the one the file format writes as it is.
type Image struct {
	rows, cols int
	pixType    PixType
	data       []byte
}

// New returns a zero-filled image with the given shape and pixel type.
func New(rows, cols int, pt PixType) (*Image, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadDims, rows, cols)
	}
	if !pt.Valid() {
		return nil, fmt.Errorf("%w: %q", ErrBadPixType, pt)
	}
	return &Image{rows: rows, cols: cols, pixType: pt, data: make([]byte, rows*cols*pt.Size())}, nil
}

// MustNew is New for statically correct shapes; it panics on error and is
// intended for tests and generators.
//
//lint:gaea-allow deadcode test helper: the tests of imgops, object, value, wire and the root package build images with it
func MustNew(rows, cols int, pt PixType) *Image {
	img, err := New(rows, cols, pt)
	if err != nil {
		panic(err)
	}
	return img
}

// FromData wraps an existing little-endian pixel buffer. The buffer length
// must match rows*cols*pixsize exactly; the image takes ownership of it.
func FromData(rows, cols int, pt PixType, data []byte) (*Image, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadDims, rows, cols)
	}
	if !pt.Valid() {
		return nil, fmt.Errorf("%w: %q", ErrBadPixType, pt)
	}
	if want := rows * cols * pt.Size(); len(data) != want {
		return nil, fmt.Errorf("raster: data length %d, want %d", len(data), want)
	}
	return &Image{rows: rows, cols: cols, pixType: pt, data: data}, nil
}

// Rows returns the number of rows (the paper's img_nrow operator).
func (im *Image) Rows() int { return im.rows }

// Cols returns the number of columns (img_ncol).
func (im *Image) Cols() int { return im.cols }

// PixType returns the pixel type (img_type).
func (im *Image) PixType() PixType { return im.pixType }

// Pixels returns rows*cols.
func (im *Image) Pixels() int { return im.rows * im.cols }

// Data exposes the raw little-endian pixel buffer; callers must not resize
// it.
func (im *Image) Data() []byte { return im.data }

// SameShape reports whether two images have identical dimensions (the
// paper's img_size_eq operator). Pixel types may differ.
func (im *Image) SameShape(o *Image) bool {
	return o != nil && im.rows == o.rows && im.cols == o.cols
}

// String describes the image without dumping pixels.
func (im *Image) String() string {
	return fmt.Sprintf("image(%dx%d %s)", im.rows, im.cols, im.pixType)
}

func (im *Image) offset(r, c int) (int, error) {
	if r < 0 || r >= im.rows || c < 0 || c >= im.cols {
		return 0, fmt.Errorf("%w: (%d,%d) in %dx%d", ErrBounds, r, c, im.rows, im.cols)
	}
	return (r*im.cols + c) * im.pixType.Size(), nil
}

// At returns the pixel at (r, c) widened to float64.
//
//lint:gaea-allow deadcode test helper: imgops', object's, interp's and wire's tests read single pixels
func (im *Image) At(r, c int) (float64, error) {
	off, err := im.offset(r, c)
	if err != nil {
		return 0, err
	}
	return im.atOffset(off), nil
}

func (im *Image) atOffset(off int) float64 {
	switch im.pixType {
	case PixChar:
		return float64(im.data[off])
	case PixInt2:
		return float64(int16(binary.LittleEndian.Uint16(im.data[off:])))
	case PixInt4:
		return float64(int32(binary.LittleEndian.Uint32(im.data[off:])))
	case PixFloat4:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(im.data[off:])))
	default: // PixFloat8
		return math.Float64frombits(binary.LittleEndian.Uint64(im.data[off:]))
	}
}

// Set stores v at (r, c), clamping and rounding as the pixel type requires
// (integer types saturate at their bounds, matching GIS reclass semantics).
//
//lint:gaea-allow deadcode test helper: imgops', object's, value's and wire's tests write single pixels
func (im *Image) Set(r, c int, v float64) error {
	off, err := im.offset(r, c)
	if err != nil {
		return err
	}
	im.setOffset(off, v)
	return nil
}

func (im *Image) setOffset(off int, v float64) {
	switch im.pixType {
	case PixChar:
		im.data[off] = byte(clamp(math.Round(v), 0, 255))
	case PixInt2:
		binary.LittleEndian.PutUint16(im.data[off:], uint16(int16(clamp(math.Round(v), math.MinInt16, math.MaxInt16))))
	case PixInt4:
		binary.LittleEndian.PutUint32(im.data[off:], uint32(int32(clamp(math.Round(v), math.MinInt32, math.MaxInt32))))
	case PixFloat4:
		binary.LittleEndian.PutUint32(im.data[off:], math.Float32bits(float32(v)))
	default: // PixFloat8
		binary.LittleEndian.PutUint64(im.data[off:], math.Float64bits(v))
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Float64s returns all pixels in row-major order widened to float64.
func (im *Image) Float64s() []float64 {
	out := make([]float64, im.Pixels())
	im.ReadFloat64s(out)
	return out
}

// ReadFloat64s widens all pixels in row-major order into dst, which must
// have at least rows*cols elements.
func (im *Image) ReadFloat64s(dst []float64) {
	dst = dst[:im.Pixels()]
	sz := im.pixType.Size()
	for i := range dst {
		dst[i] = im.atOffset(i * sz)
	}
}

// SetFloat64s overwrites all pixels from a row-major float64 slice, which
// must have exactly rows*cols elements.
func (im *Image) SetFloat64s(vals []float64) error {
	if len(vals) != im.Pixels() {
		return fmt.Errorf("raster: %d values for %d pixels", len(vals), im.Pixels())
	}
	sz := im.pixType.Size()
	for i, v := range vals {
		im.setOffset(i*sz, v)
	}
	return nil
}

// Clone returns a deep copy of the image.
//
//lint:gaea-allow deadcode test helper: value's tests compare an image with its copy
func (im *Image) Clone() *Image {
	data := make([]byte, len(im.data))
	copy(data, im.data)
	return &Image{rows: im.rows, cols: im.cols, pixType: im.pixType, data: data}
}

// Stats summarises an image for assertions and experiment reports.
type Stats struct {
	Min, Max, Mean, StdDev float64
}

// Stats computes per-image statistics in one pass.
func (im *Image) Stats() Stats {
	n := im.Pixels()
	if n == 0 {
		return Stats{}
	}
	sz := im.pixType.Size()
	min, max := math.Inf(1), math.Inf(-1)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := im.atOffset(i * sz)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
		sumSq += float64(v * v)
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - float64(mean*mean)
	if variance < 0 {
		variance = 0
	}
	return Stats{Min: min, Max: max, Mean: mean, StdDev: math.Sqrt(variance)}
}

// EqualPixels reports whether two images have the same shape, pixel type,
// and identical pixel values (bitwise on the underlying buffer).
func (im *Image) EqualPixels(o *Image) bool {
	if o == nil || !im.SameShape(o) || im.pixType != o.pixType {
		return false
	}
	for i := range im.data {
		if im.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute pixel difference between two
// same-shaped images; experiment comparisons use it to decide whether two
// derivations produced "the same" data.
//
//lint:gaea-allow deadcode test helper: imgops' PCA tests compare two derivations within a tolerance
func (im *Image) MaxAbsDiff(o *Image) (float64, error) {
	if !im.SameShape(o) {
		return 0, ErrShape
	}
	a, b := im.Float64s(), o.Float64s()
	var max float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > max {
			max = d
		}
	}
	return max, nil
}
