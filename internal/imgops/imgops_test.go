package imgops

import (
	"math"
	"testing"

	"gaea/internal/raster"
)

func imgOf(t *testing.T, rows, cols int, vals []float64) *raster.Image {
	t.Helper()
	im := raster.MustNew(rows, cols, raster.PixFloat8)
	if err := im.SetFloat64s(vals); err != nil {
		t.Fatal(err)
	}
	return im
}

func TestImagesToMatrixRoundTrip(t *testing.T) {
	a := imgOf(t, 2, 2, []float64{1, 2, 3, 4})
	b := imgOf(t, 2, 2, []float64{5, 6, 7, 8})
	m, err := ImagesToMatrix([]*raster.Image{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 4 {
		t.Fatalf("matrix shape %dx%d", m.Rows(), m.Cols())
	}
	if m.At(1, 2) != 7 {
		t.Errorf("layout wrong: %v", m.Data())
	}
	back, err := MatrixToImages(m, 2, 2, raster.PixFloat8)
	if err != nil {
		t.Fatal(err)
	}
	if !back[0].EqualPixels(a) || !back[1].EqualPixels(b) {
		t.Error("matrix->image round trip lost pixels")
	}
	// Shape mismatch rejected.
	if _, err := MatrixToImages(m, 3, 3, raster.PixFloat8); err == nil {
		t.Error("wrong target shape must fail")
	}
	if _, err := ImagesToMatrix(nil); err == nil {
		t.Error("empty band set must fail")
	}
	c := raster.MustNew(3, 3, raster.PixFloat8)
	if _, err := ImagesToMatrix([]*raster.Image{a, c}); err == nil {
		t.Error("shape mismatch must fail")
	}
}

func TestNDVI(t *testing.T) {
	red := imgOf(t, 1, 3, []float64{0.1, 0.2, 0})
	nir := imgOf(t, 1, 3, []float64{0.3, 0.2, 0})
	out, err := NDVI(red, nir)
	if err != nil {
		t.Fatal(err)
	}
	vals := out.Float64s()
	if math.Abs(vals[0]-0.5) > 1e-6 {
		t.Errorf("ndvi[0] = %g, want 0.5", vals[0])
	}
	if vals[1] != 0 {
		t.Errorf("ndvi[1] = %g, want 0", vals[1])
	}
	if vals[2] != 0 {
		t.Errorf("ndvi zero-sum pixel = %g, want 0", vals[2])
	}
	if out.PixType() != raster.PixFloat4 {
		t.Errorf("ndvi pixtype = %s", out.PixType())
	}
	bad := raster.MustNew(2, 2, raster.PixFloat8)
	if _, err := NDVI(red, bad); err == nil {
		t.Error("shape mismatch must fail")
	}
}

func TestSubtractRatioAdd(t *testing.T) {
	a := imgOf(t, 1, 4, []float64{4, 6, 0, 10})
	b := imgOf(t, 1, 4, []float64{1, 2, 5, 0})

	sub, err := Subtract(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v := sub.Float64s(); v[0] != 3 || v[3] != 10 {
		t.Errorf("subtract = %v", v)
	}

	rat, err := Ratio(a, b, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if v := rat.Float64s(); v[0] != 4 || v[1] != 3 || v[3] != 0 {
		t.Errorf("ratio = %v", v)
	}
	if _, err := Ratio(a, b, -1); err == nil {
		t.Error("negative epsilon must fail")
	}

	add, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v := add.Float64s(); v[0] != 5 || v[2] != 5 {
		t.Errorf("add = %v", v)
	}
}

func TestScaleOffset(t *testing.T) {
	a := imgOf(t, 1, 2, []float64{1, 2})
	out, err := ScaleOffset(a, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v := out.Float64s(); v[0] != 15 || v[1] != 25 {
		t.Errorf("scaleoffset = %v", v)
	}
}

func TestThreshold(t *testing.T) {
	rain := imgOf(t, 1, 4, []float64{100, 250, 300, 249.9})
	dry, err := Threshold(rain, "<", 250)
	if err != nil {
		t.Fatal(err)
	}
	if v := dry.Float64s(); v[0] != 1 || v[1] != 0 || v[2] != 0 || v[3] != 1 {
		t.Errorf("threshold< = %v", v)
	}
	le, _ := Threshold(rain, "<=", 250)
	if v := le.Float64s(); v[1] != 1 {
		t.Errorf("threshold<= = %v", v)
	}
	gt, _ := Threshold(rain, ">", 250)
	if v := gt.Float64s(); v[2] != 1 || v[0] != 0 {
		t.Errorf("threshold> = %v", v)
	}
	ge, _ := Threshold(rain, ">=", 250)
	if v := ge.Float64s(); v[1] != 1 || v[2] != 1 {
		t.Errorf("threshold>= = %v", v)
	}
	if _, err := Threshold(rain, "!=", 250); err == nil {
		t.Error("unknown op must fail")
	}
	if dry.PixType() != raster.PixChar {
		t.Error("threshold output should be char")
	}
}

func TestAnd(t *testing.T) {
	a := imgOf(t, 1, 4, []float64{1, 1, 0, 5})
	b := imgOf(t, 1, 4, []float64{1, 0, 1, 2})
	out, err := And(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v := out.Float64s(); v[0] != 1 || v[1] != 0 || v[2] != 0 || v[3] != 1 {
		t.Errorf("and = %v", v)
	}
	// Single operand normalises to 0/1.
	single, err := And(a)
	if err != nil {
		t.Fatal(err)
	}
	if v := single.Float64s(); v[3] != 1 {
		t.Errorf("single and = %v", v)
	}
	if _, err := And(); err == nil {
		t.Error("no operands must fail")
	}
}

func TestReclass(t *testing.T) {
	img := imgOf(t, 1, 5, []float64{-1, 0, 5, 10, 20})
	out, err := Reclass(img, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 1, 2, 2}
	got := out.Float64s()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reclass = %v, want %v", got, want)
			break
		}
	}
	if _, err := Reclass(img, nil); err == nil {
		t.Error("no breaks must fail")
	}
	if _, err := Reclass(img, []float64{5, 5}); err == nil {
		t.Error("non-ascending breaks must fail")
	}
}

func TestAreaFraction(t *testing.T) {
	img := imgOf(t, 1, 4, []float64{1, 1, 0, 2})
	if f := AreaFraction(img, 1); f != 0.5 {
		t.Errorf("fraction(1) = %g", f)
	}
	if f := AreaFraction(img, 9); f != 0 {
		t.Errorf("fraction(9) = %g", f)
	}
}

func TestComposite(t *testing.T) {
	a := imgOf(t, 2, 2, []float64{1, 2, 3, 4})
	b := imgOf(t, 2, 2, []float64{5, 6, 7, 8})
	m, err := ImagesToMatrix([]*raster.Image{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 4 {
		t.Errorf("composite shape %dx%d", m.Rows(), m.Cols())
	}
	if _, err := ImagesToMatrix(nil); err == nil {
		t.Error("empty composite must fail")
	}
}
