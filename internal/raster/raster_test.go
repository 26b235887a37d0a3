package raster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 10, PixChar); err == nil {
		t.Error("zero rows must fail")
	}
	if _, err := New(10, -1, PixChar); err == nil {
		t.Error("negative cols must fail")
	}
	if _, err := New(4, 4, PixType("int8")); err == nil {
		t.Error("unknown pixtype must fail")
	}
	im, err := New(3, 5, PixInt2)
	if err != nil {
		t.Fatal(err)
	}
	if im.Rows() != 3 || im.Cols() != 5 || im.Pixels() != 15 || im.PixType() != PixInt2 {
		t.Errorf("accessors wrong: %s", im)
	}
	if len(im.Data()) != 30 {
		t.Errorf("buffer = %d bytes, want 30", len(im.Data()))
	}
}

func TestPixTypeSizes(t *testing.T) {
	want := map[PixType]int{PixChar: 1, PixInt2: 2, PixInt4: 4, PixFloat4: 4, PixFloat8: 8}
	for pt, sz := range want {
		if pt.Size() != sz {
			t.Errorf("%s.Size() = %d, want %d", pt, pt.Size(), sz)
		}
		if !pt.Valid() {
			t.Errorf("%s should be valid", pt)
		}
	}
	if PixType("bogus").Valid() {
		t.Error("bogus type should be invalid")
	}
}

func TestSetAtRoundTripAllTypes(t *testing.T) {
	cases := []struct {
		pt   PixType
		in   float64
		want float64
	}{
		{PixChar, 42, 42},
		{PixChar, -5, 0},    // clamps at 0
		{PixChar, 300, 255}, // clamps at 255
		{PixChar, 41.6, 42}, // rounds
		{PixInt2, -1234, -1234},
		{PixInt2, 40000, math.MaxInt16},
		{PixInt4, -2000000, -2000000},
		{PixFloat4, 0.25, 0.25},
		{PixFloat8, math.Pi, math.Pi},
	}
	for _, c := range cases {
		im := MustNew(2, 2, c.pt)
		if err := im.Set(1, 1, c.in); err != nil {
			t.Fatal(err)
		}
		got, err := im.At(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: Set(%g) -> At = %g, want %g", c.pt, c.in, got, c.want)
		}
		// Untouched pixel stays zero.
		if z, _ := im.At(0, 0); z != 0 {
			t.Errorf("%s: zero pixel = %g", c.pt, z)
		}
	}
}

func TestBoundsChecking(t *testing.T) {
	im := MustNew(2, 3, PixFloat8)
	for _, rc := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 3}} {
		if _, err := im.At(rc[0], rc[1]); err == nil {
			t.Errorf("At(%d,%d) should fail", rc[0], rc[1])
		}
		if err := im.Set(rc[0], rc[1], 1); err == nil {
			t.Errorf("Set(%d,%d) should fail", rc[0], rc[1])
		}
	}
}

func TestFloat64sRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		types := []PixType{PixFloat4, PixFloat8}
		pt := types[r.Intn(len(types))]
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		im := MustNew(rows, cols, pt)
		vals := make([]float64, rows*cols)
		for i := range vals {
			vals[i] = float64(float32(r.NormFloat64() * 100)) // representable in float4
		}
		if err := im.SetFloat64s(vals); err != nil {
			return false
		}
		got := im.Float64s()
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSetFloat64sLengthCheck(t *testing.T) {
	im := MustNew(2, 2, PixChar)
	if err := im.SetFloat64s([]float64{1, 2, 3}); err == nil {
		t.Error("wrong-length slice must fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustNew(2, 2, PixInt4)
	a.Set(0, 0, 7)
	b := a.Clone()
	b.Set(0, 0, 99)
	if v, _ := a.At(0, 0); v != 7 {
		t.Error("clone shares storage with original")
	}
	if !a.SameShape(b) {
		t.Error("clone shape differs")
	}
}

func TestStats(t *testing.T) {
	im := MustNew(1, 4, PixFloat8)
	im.SetFloat64s([]float64{1, 2, 3, 4})
	s := im.Stats()
	if s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Errorf("Stats = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("StdDev = %g", s.StdDev)
	}
}

func TestEqualAndDiff(t *testing.T) {
	a := MustNew(2, 2, PixFloat8)
	a.SetFloat64s([]float64{1, 2, 3, 4})
	b := a.Clone()
	if !a.EqualPixels(b) {
		t.Error("clone should be pixel-equal")
	}
	b.Set(1, 1, 4.5)
	if a.EqualPixels(b) {
		t.Error("modified clone should differ")
	}
	d, err := a.MaxAbsDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0.5 {
		t.Errorf("MaxAbsDiff = %g", d)
	}
	c := MustNew(2, 3, PixFloat8)
	if _, err := a.MaxAbsDiff(c); err == nil {
		t.Error("shape mismatch must fail")
	}
	if a.EqualPixels(nil) {
		t.Error("nil comparison should be false")
	}
}

func TestFromData(t *testing.T) {
	data := make([]byte, 2*2*2)
	im, err := FromData(2, 2, PixInt2, data)
	if err != nil {
		t.Fatal(err)
	}
	if im.Pixels() != 4 {
		t.Error("FromData shape wrong")
	}
	if _, err := FromData(2, 2, PixInt2, make([]byte, 7)); err == nil {
		t.Error("wrong buffer length must fail")
	}
	if _, err := FromData(0, 2, PixInt2, nil); err == nil {
		t.Error("bad dims must fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, pt := range []PixType{PixChar, PixInt2, PixInt4, PixFloat4, PixFloat8} {
		im := MustNew(3, 4, pt)
		vals := make([]float64, 12)
		for i := range vals {
			vals[i] = float64(i * 3)
		}
		im.SetFloat64s(vals)

		var buf bytes.Buffer
		if err := Encode(&buf, im); err != nil {
			t.Fatal(err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("%s: %v", pt, err)
		}
		if !im.EqualPixels(back) {
			t.Errorf("%s: round trip lost pixels", pt)
		}
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	im := MustNew(5, 7, PixFloat4)
	vals := make([]float64, 35)
	for i := range vals {
		vals[i] = float64(i) / 3
	}
	im.SetFloat64s(vals)
	back, err := Unmarshal(Marshal(im))
	if err != nil {
		t.Fatal(err)
	}
	if !im.EqualPixels(back) {
		t.Error("marshal round trip lost pixels")
	}
}

func TestDecodeCorruption(t *testing.T) {
	im := MustNew(2, 2, PixChar)
	good := Marshal(im)

	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte("XIMG"), good[4:]...),
		"truncated hdr": good[:8],
		"truncated pix": good[:len(good)-2],
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
	// Corrupt pixtype length/name.
	bad := append([]byte(nil), good...)
	bad[14] = 200 // absurd pixtype length
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad pixtype length should fail")
	}
}

// TestUnmarshalFailsAsDecode holds Unmarshal, which parses the slice in
// place, to Decode's errors over a reader: every truncation of a good
// encoding and every corrupt header field fails both ways with the same
// message, and a good encoding decodes equal both ways.
func TestUnmarshalFailsAsDecode(t *testing.T) {
	good := Marshal(MustNew(3, 2, PixInt2))
	inputs := map[string][]byte{"good": good}
	for n := range good {
		inputs[fmt.Sprintf("first %d bytes", n)] = good[:n]
	}
	corrupt := func(name string, edit func(b []byte) []byte) {
		inputs[name] = edit(append([]byte(nil), good...))
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("version 2", func(b []byte) []byte { b[4] = 2; return b })
	corrupt("pixtype length 200", func(b []byte) []byte { b[14] = 200; return b })
	corrupt("pixtype length 0", func(b []byte) []byte { b[14] = 0; return append(b[:15], b[19:]...) })
	corrupt("unknown pixtype", func(b []byte) []byte { b[15] = 'x'; return b })
	corrupt("zero rows", func(b []byte) []byte { b[6] = 0; return b })
	corrupt("huge dims", func(b []byte) []byte { b[9], b[13] = 0x40, 0x40; return b })
	corrupt("trailing bytes", func(b []byte) []byte { return append(b, 1, 2, 3) })
	for name, b := range inputs {
		got, gerr := Unmarshal(b)
		want, werr := Decode(bytes.NewReader(b))
		switch {
		case (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error():
			t.Errorf("%s: Unmarshal error %v, Decode %v", name, gerr, werr)
		case gerr != nil && !errors.Is(gerr, ErrBadImageFile):
			t.Errorf("%s: error %v is not ErrBadImageFile", name, gerr)
		case gerr == nil && (!got.EqualPixels(want) || got.PixType() != want.PixType()):
			t.Errorf("%s: Unmarshal and Decode disagree", name)
		}
	}
	for _, name := range []string{"good", "trailing bytes"} {
		if _, err := Unmarshal(inputs[name]); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestUnmarshalCopiesOnce caps what decoding an image from a blob
// allocates: the image and one copy of its pixels, which do not share the
// blob's bytes.
func TestUnmarshalCopiesOnce(t *testing.T) {
	im := MustNew(32, 32, PixFloat4)
	im.Set(3, 4, 0.5)
	b := Marshal(im)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(b); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("Unmarshal allocates %v times, want at most 2", allocs)
	}
	back, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	clear(b)
	if !back.EqualPixels(im) {
		t.Error("the decoded image shares the encoding's bytes")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scene.gimg")
	im := MustNew(4, 4, PixFloat8)
	im.Set(2, 2, 42.5)
	if err := WriteFile(path, im); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !im.EqualPixels(back) {
		t.Error("file round trip lost pixels")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.gimg")); err == nil {
		t.Error("missing file should fail")
	}
}
