// Package imgops implements the image analysis operators the paper names:
// the accessors of §2.1.3 (img_nrow, img_ncol, img_type, img_size_eq), the
// composite and unsuperclassify operators of process P20 (Figure 3), NDVI
// and the subtract/ratio change operators of the two-scientists scenario
// (§1), and the PCA dataflow stages of Figure 4 (convert-image-matrix,
// compute-covariance, get-eigen-vector, linear-combination,
// convert-matrix-image) plus Eastman's standardized PCA (SPCA).
//
// These are the functions the ADT layer registers as operators on the image
// primitive class; the derivation layer never calls them directly.
package imgops

import (
	"errors"
	"fmt"
	"math"

	"gaea/internal/linalg"
	"gaea/internal/raster"
)

// Errors shared by the operators.
var (
	ErrNoBands   = errors.New("imgops: operator needs at least one band")
	ErrShape     = errors.New("imgops: input images must share shape")
	ErrBadParam  = errors.New("imgops: bad parameter")
	ErrDivByZero = errors.New("imgops: division by zero pixel with no epsilon")
)

// checkSameShape verifies a non-empty image set shares one shape.
func checkSameShape(imgs []*raster.Image) error {
	if len(imgs) == 0 {
		return ErrNoBands
	}
	for i, im := range imgs[1:] {
		if !imgs[0].SameShape(im) {
			return fmt.Errorf("%w: band 0 is %s, band %d is %s", ErrShape, imgs[0], i+1, im)
		}
	}
	return nil
}

// ImagesToMatrix is the paper's convert-image-matrix operator, and the
// composite() step of process P20: it flattens a set of same-shaped
// images into a d×n row-major matrix, one row per image, one column per
// pixel.
func ImagesToMatrix(imgs []*raster.Image) (*linalg.Matrix, error) {
	if err := checkSameShape(imgs); err != nil {
		return nil, err
	}
	d, n := len(imgs), imgs[0].Pixels()
	data := make([]float64, d*n)
	for i, im := range imgs {
		copy(data[i*n:(i+1)*n], im.Float64s())
	}
	return linalg.FromData(d, n, data)
}

// MatrixToImages is the paper's convert-matrix-image operator: each matrix
// row becomes one image of the given shape and pixel type.
func MatrixToImages(m *linalg.Matrix, rows, cols int, pt raster.PixType) ([]*raster.Image, error) {
	if rows*cols != m.Cols() {
		return nil, fmt.Errorf("%w: %d pixels per row, want %dx%d=%d", ErrShape, m.Cols(), rows, cols, rows*cols)
	}
	out := make([]*raster.Image, m.Rows())
	for i := range out {
		img, err := raster.New(rows, cols, pt)
		if err != nil {
			return nil, err
		}
		if err := img.SetFloat64s(m.Row(i)); err != nil {
			return nil, err
		}
		out[i] = img
	}
	return out, nil
}

// NDVI computes the normalized difference vegetation index
// (nir-red)/(nir+red) per pixel, the derived measure the paper's
// motivating scenario (§1) is built around. Pixels where nir+red == 0
// produce 0.
func NDVI(red, nir *raster.Image) (*raster.Image, error) {
	if err := checkSameShape([]*raster.Image{red, nir}); err != nil {
		return nil, err
	}
	out, err := raster.New(red.Rows(), red.Cols(), raster.PixFloat4)
	if err != nil {
		return nil, err
	}
	rv, nv := red.Float64s(), nir.Float64s()
	vals := make([]float64, len(rv))
	for i := range rv {
		sum := nv[i] + rv[i]
		if sum != 0 {
			vals[i] = (nv[i] - rv[i]) / sum
		}
	}
	if err := out.SetFloat64s(vals); err != nil {
		return nil, err
	}
	return out, nil
}

// Subtract returns a-b per pixel in float4 — one scientist's vegetation-
// change derivation (NDVI(1989) - NDVI(1988)).
func Subtract(a, b *raster.Image) (*raster.Image, error) {
	return binaryOp(a, b, func(x, y float64) float64 { return x - y })
}

// Ratio returns a/b per pixel — the other scientist's derivation
// (NDVI(1989) / NDVI(1988)). Zero divisors are stabilised by eps: pixels
// with |b| <= eps yield 0.
func Ratio(a, b *raster.Image, eps float64) (*raster.Image, error) {
	if eps < 0 {
		return nil, fmt.Errorf("%w: negative epsilon %g", ErrBadParam, eps)
	}
	return binaryOp(a, b, func(x, y float64) float64 {
		if math.Abs(y) <= eps {
			return 0
		}
		return x / y
	})
}

// Add returns a+b per pixel.
func Add(a, b *raster.Image) (*raster.Image, error) {
	return binaryOp(a, b, func(x, y float64) float64 { return x + y })
}

func binaryOp(a, b *raster.Image, f func(x, y float64) float64) (*raster.Image, error) {
	if err := checkSameShape([]*raster.Image{a, b}); err != nil {
		return nil, err
	}
	out, err := raster.New(a.Rows(), a.Cols(), raster.PixFloat4)
	if err != nil {
		return nil, err
	}
	av, bv := a.Float64s(), b.Float64s()
	vals := make([]float64, len(av))
	for i := range av {
		vals[i] = f(av[i], bv[i])
	}
	if err := out.SetFloat64s(vals); err != nil {
		return nil, err
	}
	return out, nil
}

// ScaleOffset returns img*scale + offset per pixel, the product rounded
// before the sum on every architecture (see classify.go on fusion).
func ScaleOffset(img *raster.Image, scale, offset float64) (*raster.Image, error) {
	out, err := raster.New(img.Rows(), img.Cols(), raster.PixFloat4)
	if err != nil {
		return nil, err
	}
	vals := img.Float64s()
	for i := range vals {
		vals[i] = float64(vals[i]*scale) + offset
	}
	if err := out.SetFloat64s(vals); err != nil {
		return nil, err
	}
	return out, nil
}

// Threshold produces a binary char image: 1 where the pixel satisfies the
// comparison against limit, else 0. op is one of "<", "<=", ">", ">=".
// It is the reclassification primitive desert processes use ("rainfall less
// than 250 mm/year").
func Threshold(img *raster.Image, op string, limit float64) (*raster.Image, error) {
	var pred func(float64) bool
	switch op {
	case "<":
		pred = func(v float64) bool { return v < limit }
	case "<=":
		pred = func(v float64) bool { return v <= limit }
	case ">":
		pred = func(v float64) bool { return v > limit }
	case ">=":
		pred = func(v float64) bool { return v >= limit }
	default:
		return nil, fmt.Errorf("%w: threshold op %q", ErrBadParam, op)
	}
	out, err := raster.New(img.Rows(), img.Cols(), raster.PixChar)
	if err != nil {
		return nil, err
	}
	vals := img.Float64s()
	bin := make([]float64, len(vals))
	for i, v := range vals {
		if pred(v) {
			bin[i] = 1
		}
	}
	if err := out.SetFloat64s(bin); err != nil {
		return nil, err
	}
	return out, nil
}

// And returns the pixelwise conjunction of binary images (non-zero = true),
// used to intersect desert criteria (dry AND hot).
func And(imgs ...*raster.Image) (*raster.Image, error) {
	if err := checkSameShape(imgs); err != nil {
		return nil, err
	}
	out, err := raster.New(imgs[0].Rows(), imgs[0].Cols(), raster.PixChar)
	if err != nil {
		return nil, err
	}
	acc := imgs[0].Float64s()
	for _, im := range imgs[1:] {
		v := im.Float64s()
		for i := range acc {
			if acc[i] != 0 && v[i] != 0 {
				acc[i] = 1
			} else {
				acc[i] = 0
			}
		}
	}
	for i := range acc {
		if acc[i] != 0 {
			acc[i] = 1
		}
	}
	if err := out.SetFloat64s(acc); err != nil {
		return nil, err
	}
	return out, nil
}

// Reclass maps pixel value ranges to class codes: breaks must ascend; a
// pixel in [breaks[i], breaks[i+1]) gets code i+1, below breaks[0] gets 0,
// at or above the last break gets len(breaks).
func Reclass(img *raster.Image, breaks []float64) (*raster.Image, error) {
	if len(breaks) == 0 {
		return nil, fmt.Errorf("%w: no class breaks", ErrBadParam)
	}
	for i := 1; i < len(breaks); i++ {
		if breaks[i] <= breaks[i-1] {
			return nil, fmt.Errorf("%w: breaks must strictly ascend", ErrBadParam)
		}
	}
	out, err := raster.New(img.Rows(), img.Cols(), raster.PixChar)
	if err != nil {
		return nil, err
	}
	vals := img.Float64s()
	codes := make([]float64, len(vals))
	for i, v := range vals {
		code := 0
		for _, b := range breaks {
			if v >= b {
				code++
			} else {
				break
			}
		}
		codes[i] = float64(code)
	}
	if err := out.SetFloat64s(codes); err != nil {
		return nil, err
	}
	return out, nil
}

// AreaFraction returns the fraction of pixels equal to code, used by
// experiment reports ("what fraction of the region is desert?").
func AreaFraction(img *raster.Image, code float64) float64 {
	vals := img.Float64s()
	if len(vals) == 0 {
		return 0
	}
	n := 0
	for _, v := range vals {
		if v == code {
			n++
		}
	}
	return float64(n) / float64(len(vals))
}
