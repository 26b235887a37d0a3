package value

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gaea/internal/linalg"
	"gaea/internal/raster"
	"gaea/internal/sptemp"
)

func TestTypeSetOf(t *testing.T) {
	st := SetOf(TypeImage)
	elem, ok := st.IsSet()
	if !ok || elem != TypeImage {
		t.Errorf("IsSet = %s, %v", elem, ok)
	}
	if _, ok := TypeImage.IsSet(); ok {
		t.Error("scalar type should not be a set")
	}
	if !st.Valid() || !TypeInt.Valid() {
		t.Error("known types should be valid")
	}
	if Type("blob").Valid() || SetOf("blob").Valid() {
		t.Error("unknown types should be invalid")
	}
}

func TestExternalRepresentations(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Float(2.5), "2.5"},
		{String_("africa"), "africa"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Box(sptemp.NewBox(1, 2, 3, 4)), "(1,2,3,4)"},
		{Vector{1, 2.5}, "[1, 2.5]"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%T String = %q, want %q", c.v, got, c.want)
		}
	}
	img := Image{Img: raster.MustNew(2, 3, raster.PixChar)}
	if got := img.String(); !strings.Contains(got, "2, 3, char") {
		t.Errorf("image repr = %q", got)
	}
	s, err := NewSet(TypeInt, []Value{Int(1), Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "{1; 2}" {
		t.Errorf("set repr = %q", got)
	}
}

func TestNewSetTypeChecks(t *testing.T) {
	if _, err := NewSet(TypeInt, []Value{Int(1), Float(2)}); err == nil {
		t.Error("mixed-type set must fail")
	}
	s, err := NewSet(TypeImage, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Card() != 0 {
		t.Error("empty set has cardinality 0")
	}
	if s.Type() != SetOf(TypeImage) {
		t.Errorf("set type = %s", s.Type())
	}
}

func TestEqual(t *testing.T) {
	img1 := Image{Img: raster.MustNew(2, 2, raster.PixChar)}
	img2 := Image{Img: raster.MustNew(2, 2, raster.PixChar)}
	img2.Img.Set(0, 0, 9)
	m1, _ := linalg.FromData(1, 2, []float64{1, 2})
	m2, _ := linalg.FromData(1, 2, []float64{1, 3})
	setA, _ := NewSet(TypeInt, []Value{Int(1)})
	setB, _ := NewSet(TypeInt, []Value{Int(2)})

	eq := []struct{ a, b Value }{
		{Int(1), Int(1)},
		{Float(math.NaN()), Float(math.NaN())},
		{String_("x"), String_("x")},
		{Bool(true), Bool(true)},
		{AbsTime(100), AbsTime(100)},
		{Interval(sptemp.Interval{Start: 1, End: 5}), Interval(sptemp.Interval{Start: 1, End: 5})},
		{Box(sptemp.NewBox(0, 0, 1, 1)), Box(sptemp.NewBox(0, 0, 1, 1))},
		{img1, Image{Img: img1.Img.Clone()}},
		{Matrix{M: m1}, Matrix{M: m1.Clone()}},
		{Vector{1, 2}, Vector{1, 2}},
		{setA, setA},
		{nil, nil},
	}
	for _, c := range eq {
		if !Equal(c.a, c.b) {
			t.Errorf("Equal(%v, %v) should be true", c.a, c.b)
		}
	}
	ne := []struct{ a, b Value }{
		{Int(1), Int(2)},
		{Int(1), Float(1)}, // type mismatch
		{img1, img2},
		{Matrix{M: m1}, Matrix{M: m2}},
		{Vector{1}, Vector{1, 2}},
		{setA, setB},
		{nil, Int(0)},
	}
	for _, c := range ne {
		if Equal(c.a, c.b) {
			t.Errorf("Equal(%v, %v) should be false", c.a, c.b)
		}
	}
}

func TestConversions(t *testing.T) {
	if f, err := AsFloat(Int(3)); err != nil || f != 3 {
		t.Errorf("AsFloat(Int) = %g, %v", f, err)
	}
	if f, err := AsFloat(Float(2.5)); err != nil || f != 2.5 {
		t.Errorf("AsFloat(Float) = %g, %v", f, err)
	}
	if _, err := AsFloat(Bool(true)); err == nil {
		t.Error("AsFloat(Bool) must fail")
	}
	if n, err := AsInt(Float(4)); err != nil || n != 4 {
		t.Errorf("AsInt(4.0) = %d, %v", n, err)
	}
	if _, err := AsInt(Float(4.5)); err == nil {
		t.Error("AsInt(4.5) must fail")
	}
	if s, err := AsString(String_("hi")); err != nil || s != "hi" {
		t.Errorf("AsString = %q, %v", s, err)
	}
	if _, err := AsString(Int(1)); err == nil {
		t.Error("AsString(Int) must fail")
	}
	img := raster.MustNew(1, 1, raster.PixChar)
	if got, err := AsImage(Image{Img: img}); err != nil || got != img {
		t.Errorf("AsImage failed: %v", err)
	}
	if _, err := AsImage(Int(1)); err == nil {
		t.Error("AsImage(Int) must fail")
	}
	m, _ := linalg.FromData(1, 1, []float64{1})
	if got, err := AsMatrix(Matrix{M: m}); err != nil || got != m {
		t.Errorf("AsMatrix failed: %v", err)
	}
	if _, err := AsMatrix(Image{Img: img}); err == nil {
		t.Error("AsMatrix(Image) must fail")
	}
}

func TestAsImageSet(t *testing.T) {
	img := raster.MustNew(1, 1, raster.PixChar)
	// Singleton image.
	imgs, err := AsImageSet(Image{Img: img})
	if err != nil || len(imgs) != 1 {
		t.Fatalf("singleton: %v, %v", imgs, err)
	}
	// Proper set.
	set, _ := NewSet(TypeImage, []Value{Image{Img: img}, Image{Img: img.Clone()}})
	imgs, err = AsImageSet(set)
	if err != nil || len(imgs) != 2 {
		t.Fatalf("set: %v, %v", imgs, err)
	}
	// Wrong element type.
	intSet, _ := NewSet(TypeInt, []Value{Int(1)})
	if _, err := AsImageSet(intSet); err == nil {
		t.Error("setof int must fail")
	}
	if _, err := AsImageSet(Int(1)); err == nil {
		t.Error("scalar int must fail")
	}
}

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	buf, err := Encode(v)
	if err != nil {
		t.Fatalf("Encode(%v): %v", v, err)
	}
	back, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode(%v): %v", v, err)
	}
	return back
}

func TestCodecRoundTripAllTypes(t *testing.T) {
	img := raster.MustNew(3, 2, raster.PixInt2)
	img.SetFloat64s([]float64{1, -2, 3, -4, 5, -6})
	m, _ := linalg.FromData(2, 2, []float64{1.5, -2.5, 0, 7})
	set, _ := NewSet(TypeImage, []Value{Image{Img: img}})
	nested, _ := NewSet(SetOf(TypeInt), []Value{
		mustSet(t, TypeInt, Int(1), Int(2)),
		mustSet(t, TypeInt, Int(3)),
	})

	values := []Value{
		Int(-42),
		Float(math.Pi),
		String_("landcover"),
		String_(""),
		Bool(true),
		AbsTime(sptemp.Date(1986, 1, 15)),
		Interval(sptemp.Interval{Start: sptemp.Date(1988, 1, 1), End: sptemp.Date(1989, 1, 1)}),
		Box(sptemp.NewBox(-10, -20, 30, 40)),
		Image{Img: img},
		Matrix{M: m},
		Vector{1, 2, 3},
		Vector{},
		set,
		nested,
	}
	for _, v := range values {
		back := roundTrip(t, v)
		if !Equal(v, back) {
			t.Errorf("round trip changed %v -> %v", v, back)
		}
	}
}

func mustSet(t *testing.T, elem Type, items ...Value) Set {
	t.Helper()
	s, err := NewSet(elem, items)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCodecPropertyScalars(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var v Value
		switch r.Intn(6) {
		case 0:
			v = Int(r.Int63() - r.Int63())
		case 1:
			v = Float(r.NormFloat64() * 1e10)
		case 2:
			b := make([]byte, r.Intn(30))
			r.Read(b)
			v = String_(b)
		case 3:
			v = Bool(r.Intn(2) == 0)
		case 4:
			v = AbsTime(r.Int63())
		case 5:
			v = Box(sptemp.NewBox(r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64()))
		}
		back := roundTrip(t, v)
		return Equal(v, back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeCorruption(t *testing.T) {
	good, err := Encode(Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty buffer must fail")
	}
	if _, err := Decode(good[:4]); err == nil {
		t.Error("truncated payload must fail")
	}
	if _, err := Decode(append(good, 0xFF)); err == nil {
		t.Error("trailing bytes must fail")
	}
	if _, err := Decode([]byte{0xEE}); err == nil {
		t.Error("unknown tag must fail")
	}
	// Truncated set.
	set, _ := NewSet(TypeInt, []Value{Int(1), Int(2)})
	sb, _ := Encode(set)
	if _, err := Decode(sb[:len(sb)-3]); err == nil {
		t.Error("truncated set must fail")
	}
	// Matrix dimensions whose product wraps to a negative length.
	wrap := []byte{tagMatrix, 0, 0, 0, 0x80, 0, 0, 0, 0x80}
	wrap = append(wrap, make([]byte, 64)...)
	if _, err := Decode(wrap); err == nil {
		t.Error("2^31 x 2^31 matrix must fail")
	}
}

func TestEncodeNilPayloads(t *testing.T) {
	if _, err := Encode(Image{}); err == nil {
		t.Error("nil image must fail to encode")
	}
	if _, err := Encode(Matrix{}); err == nil {
		t.Error("nil matrix must fail to encode")
	}
}

// TestEncodeAllocatesOnce: a value whose length its kind gives encodes
// in one allocation of exactly that length.
func TestEncodeAllocatesOnce(t *testing.T) {
	for _, v := range []Value{
		Int(-7), Float(12.5), Bool(true), AbsTime(sptemp.Date(1986, 1, 15)), String_("landsat"),
		Interval(sptemp.Interval{Start: 1, End: 2}), Box(sptemp.NewBox(0, 0, 10, 10)), Vector{1, 2, 3},
	} {
		buf, err := Encode(v)
		if err != nil {
			t.Fatalf("Encode(%v): %v", v, err)
		}
		if len(buf) != cap(buf) {
			t.Errorf("Encode(%v): %d bytes in a buffer of %d", v, len(buf), cap(buf))
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = Encode(v) }); n != 1 {
			t.Errorf("Encode(%v): %v allocations, want 1", v, n)
		}
	}
}
