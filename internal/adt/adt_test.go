package adt

import (
	"errors"
	"strings"
	"testing"

	"gaea/internal/raster"
	"gaea/internal/value"
)

func TestRegisterAndLookup(t *testing.T) {
	r := NewRegistry()
	op := &Operator{
		Name: "neg", In: []value.Type{value.TypeInt}, Out: value.TypeInt,
		Fn: func(a []value.Value) (value.Value, error) { return -a[0].(value.Int), nil },
	}
	if err := r.Register(op); err != nil {
		t.Fatal(err)
	}
	got, err := r.Lookup("neg")
	if err != nil || got != op {
		t.Fatalf("Lookup failed: %v", err)
	}
	if _, err := r.Lookup("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing lookup err = %v", err)
	}
	if err := r.Register(op); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate register err = %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	fn := func(a []value.Value) (value.Value, error) { return value.Int(0), nil }
	cases := []*Operator{
		{Name: "", In: nil, Out: value.TypeInt, Fn: fn},
		{Name: "x", In: nil, Out: value.TypeInt, Fn: nil},
		{Name: "x", In: nil, Out: "bogus", Fn: fn},
		{Name: "x", In: []value.Type{"bogus"}, Out: value.TypeInt, Fn: fn},
	}
	for i, op := range cases {
		if err := r.Register(op); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestApplyTypeChecking(t *testing.T) {
	r := NewStandardRegistry()
	img := value.Image{Img: raster.MustNew(2, 2, raster.PixChar)}

	// Correct call.
	out, err := r.Apply("img_nrow", img)
	if err != nil {
		t.Fatal(err)
	}
	if out.(value.Int) != 2 {
		t.Errorf("img_nrow = %v", out)
	}
	// Arity error.
	if _, err := r.Apply("img_nrow"); !errors.Is(err, ErrArity) {
		t.Errorf("arity err = %v", err)
	}
	// Type error.
	if _, err := r.Apply("img_nrow", value.Int(1)); !errors.Is(err, ErrArgType) {
		t.Errorf("type err = %v", err)
	}
	// Nil arg error.
	if _, err := r.Apply("img_nrow", nil); !errors.Is(err, ErrArgType) {
		t.Errorf("nil arg err = %v", err)
	}
	// Unknown operator.
	if _, err := r.Apply("no_such_op", img); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown op err = %v", err)
	}
}

func TestSingletonScalarAcceptedForSet(t *testing.T) {
	r := NewStandardRegistry()
	img := value.Image{Img: raster.MustNew(2, 2, raster.PixChar)}
	// composite declares SETOF image; a bare image is a singleton set.
	out, err := r.Apply("composite", img)
	if err != nil {
		t.Fatal(err)
	}
	set, ok := out.(value.Set)
	if !ok || set.Card() != 1 {
		t.Errorf("composite singleton = %v", out)
	}
}

func TestBrowseOperators(t *testing.T) {
	r := NewStandardRegistry()
	names := r.Names()
	if len(names) < 20 {
		t.Errorf("expected a rich standard registry, got %d operators", len(names))
	}
	// Names are sorted.
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Names not sorted")
			break
		}
	}
}

func TestSignature(t *testing.T) {
	r := NewStandardRegistry()
	op, _ := r.Lookup("ndvi")
	sig := op.Signature()
	if !strings.Contains(sig, "ndvi(image, image)") || !strings.HasSuffix(sig, "image") {
		t.Errorf("Signature = %q", sig)
	}
}

func TestStandardOperatorsEndToEnd(t *testing.T) {
	r := NewStandardRegistry()
	l := raster.NewLandscape(3)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 12, Cols: 12, DayOfYear: 180, Year: 1986}
	bands, err := l.GenerateScene(spec, []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]value.Value, len(bands))
	for i, b := range bands {
		items[i] = value.Image{Img: b}
	}
	set, err := value.NewSet(value.TypeImage, items)
	if err != nil {
		t.Fatal(err)
	}

	// The paper's P20 mapping: unsuperclassify(composite(bands), 12).
	comp, err := r.Apply("composite", set)
	if err != nil {
		t.Fatal(err)
	}
	classified, err := r.Apply("unsuperclassify", comp, value.Int(12))
	if err != nil {
		t.Fatal(err)
	}
	img, err := value.AsImage(classified)
	if err != nil {
		t.Fatal(err)
	}
	if st := img.Stats(); st.Max > 11 || st.Min < 0 {
		t.Errorf("classification out of range: %+v", st)
	}

	// NDVI from red/nir.
	nd, err := r.Apply("ndvi", items[0], items[1])
	if err != nil {
		t.Fatal(err)
	}
	ndImg, _ := value.AsImage(nd)
	if st := ndImg.Stats(); st.Min < -1-1e-6 || st.Max > 1+1e-6 {
		t.Errorf("ndvi out of [-1,1]: %+v", st)
	}

	// PCA stage chain: convert -> covariance -> eigenvector.
	m, err := r.Apply("convert_image_matrix", set)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := r.Apply("compute_covariance", m)
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Apply("get_eigen_vector", cov, value.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.(value.Vector)) != 3 {
		t.Errorf("eigenvector length = %d", len(v.(value.Vector)))
	}
	// Out-of-range eigenvector index fails.
	if _, err := r.Apply("get_eigen_vector", cov, value.Int(9)); err == nil {
		t.Error("eigenvector index out of range should fail")
	}

	// img_lerp midpoint equals mean of endpoints.
	lerp, err := r.Apply("img_lerp", items[0], items[1], value.Float(0.5))
	if err != nil {
		t.Fatal(err)
	}
	li, _ := value.AsImage(lerp)
	a0 := bands[0].Float64s()
	a1 := bands[1].Float64s()
	lv := li.Float64s()
	if d := lv[0] - (a0[0]+a1[0])/2; d > 1e-4 || d < -1e-4 {
		t.Errorf("lerp midpoint off by %g", d)
	}
}

func TestThresholdAndReclassViaRegistry(t *testing.T) {
	r := NewStandardRegistry()
	img := raster.MustNew(1, 4, raster.PixFloat8)
	img.SetFloat64s([]float64{100, 200, 300, 400})
	iv := value.Image{Img: img}

	dry, err := r.Apply("threshold", iv, value.String_("<"), value.Float(250))
	if err != nil {
		t.Fatal(err)
	}
	di, _ := value.AsImage(dry)
	if v := di.Float64s(); v[0] != 1 || v[2] != 0 {
		t.Errorf("threshold = %v", v)
	}

	rc, err := r.Apply("reclass", iv, value.Vector{150, 350})
	if err != nil {
		t.Fatal(err)
	}
	ri, _ := value.AsImage(rc)
	if v := ri.Float64s(); v[0] != 0 || v[1] != 1 || v[3] != 2 {
		t.Errorf("reclass = %v", v)
	}

	frac, err := r.Apply("area_fraction", dry, value.Float(1))
	if err != nil {
		t.Fatal(err)
	}
	if frac.(value.Float) != 0.5 {
		t.Errorf("area_fraction = %v", frac)
	}
}
