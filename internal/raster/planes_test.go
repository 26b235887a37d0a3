package raster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var allPixTypes = []PixType{PixChar, PixInt2, PixInt4, PixFloat4, PixFloat8}

// planeImage returns a rows×cols image of pt whose every plane holds
// exactly min(distinct, rows*cols) distinct bytes, drawn from r and
// scattered over the pixels.
func planeImage(r *rand.Rand, rows, cols int, pt PixType, distinct int) *Image {
	im := MustNew(rows, cols, pt)
	sz, n := pt.Size(), rows*cols
	d := min(distinct, n)
	for p := range sz {
		vals := r.Perm(256)[:d]
		order := r.Perm(n)
		for i, at := range order {
			im.data[at*sz+p] = byte(vals[i%d])
		}
	}
	return im
}

// sameImage reports whether two images have one shape, pixel type and
// byte for every pixel byte.
func sameImage(a, b *Image) bool {
	return a.rows == b.rows && a.cols == b.cols && a.pixType == b.pixType && bytes.Equal(a.data, b.data)
}

// TestPackRoundTrip: unpacking a packed image gives back its every byte,
// for every pixel type, shapes down to 1×1 and planes of 1, 2, 128, 129
// and 256 distinct bytes; the packed size is the planes' sizes plus the
// header, so a plane of more than 128 distinct bytes stays verbatim and
// one of fewer takes the least index width.
func TestPackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, pt := range allPixTypes {
		for _, dims := range [][2]int{{1, 1}, {1, 7}, {3, 5}, {17, 19}, {32, 32}} {
			for _, distinct := range []int{1, 2, 3, 128, 129, 256} {
				im := planeImage(r, dims[0], dims[1], pt, distinct)
				b := Pack(im)
				back, err := Unpack(b)
				if err != nil {
					t.Fatalf("%s %dx%d, %d distinct: %v", pt, dims[0], dims[1], distinct, err)
				}
				if !sameImage(im, back) {
					t.Fatalf("%s %dx%d, %d distinct: round trip changed the image", pt, dims[0], dims[1], distinct)
				}
				n := im.Pixels()
				want := len(planesMagic) + len(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(dims[0])), uint64(dims[1]))) + 1
				want += pt.Size() * planeSize(min(distinct, n), n)
				if len(b) != want {
					t.Errorf("%s %dx%d, %d distinct: packed to %d bytes, want %d", pt, dims[0], dims[1], distinct, len(b), want)
				}
			}
		}
	}
}

// TestPackKeepsFloatBits: the form moves bytes, not values, so −0, NaN
// payloads, infinities and subnormals read back bit for bit.
func TestPackKeepsFloatBits(t *testing.T) {
	f4 := []uint32{0x80000000, 0x7fc00001, 0x7f800001, 0xffc12345, 0x7f800000, 0xff800000, 0x00000001, 0x807fffff, 0x3f800000}
	f8 := []uint64{1 << 63, 0x7ff8000000000001, 0x7ff0000000000001, 0xfff8dead0000beef, 0x7ff0000000000000,
		0xfff0000000000000, 1, 0x800fffffffffffff, math.Float64bits(1)}
	im4 := MustNew(3, 3, PixFloat4)
	for i, u := range f4 {
		binary.LittleEndian.PutUint32(im4.data[4*i:], u)
	}
	im8 := MustNew(1, 9, PixFloat8)
	for i, u := range f8 {
		binary.LittleEndian.PutUint64(im8.data[8*i:], u)
	}
	for _, im := range []*Image{im4, im8} {
		back, err := Unpack(Pack(im))
		if err != nil {
			t.Fatal(err)
		}
		if !sameImage(im, back) {
			t.Errorf("%s: special values changed: %x, want %x", im.pixType, back.data, im.data)
		}
	}
}

// refusedPlanes lists encodings Pack never writes, each named, with the
// 1×4 char image {10, 20, 30, 30} as the good one they edit: a three-entry
// dictionary at width 2.
func refusedPlanes() (good []byte, bad map[string][]byte) {
	head := []byte("GPLN\x01\x04\x01")
	plane := func(b ...byte) []byte { return append(append([]byte(nil), head...), b...) }
	good = plane(2, 2, 10, 20, 30, 0b10_10_01_00)
	bad = map[string][]byte{
		"index past the dictionary":    plane(2, 2, 10, 20, 30, 0b11_10_01_00),
		"width 8":                      plane(8, 2, 10, 20, 30, 0b10_10_01_00),
		"width 9":                      plane(9, 2, 10, 20, 30, 0b10_10_01_00),
		"width 0x80":                   plane(0x80, 2, 10, 20, 30, 0b10_10_01_00),
		"width not the least":          plane(3, 2, 10, 20, 30, 0b01_000_001, 0b0000_010),
		"dictionary not ascending":     plane(2, 2, 10, 30, 20, 0b01_01_10_00),
		"dictionary repeats":           plane(2, 2, 10, 20, 20, 0b10_01_01_00),
		"unused entry":                 plane(2, 3, 10, 20, 30, 40, 0b10_10_01_00),
		"verbatim plane that packs":    plane(verbatim, 10, 20, 30, 30),
		"trailing byte":                append(plane(2, 2, 10, 20, 30, 0b10_10_01_00), 0),
		"bad magic":                    append([]byte("GIMG"), good[4:]...),
		"zero rows":                    append([]byte("GPLN\x00\x04\x01"), good[7:]...),
		"zero cols":                    append([]byte("GPLN\x01\x00\x01"), good[7:]...),
		"huge dims":                    append([]byte("GPLN\x80\x80\x80\x01\x80\x80\x80\x01\x01"), good[7:]...),
		"dims overflow a uvarint":      append([]byte("GPLN\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x04\x01"), good[7:]...),
		"pixtype code 0":               append([]byte("GPLN\x01\x04\x00"), good[7:]...),
		"pixtype code 6":               append([]byte("GPLN\x01\x04\x06"), good[7:]...),
		"pixtype int2, one plane only": append([]byte("GPLN\x01\x04\x02"), good[7:]...),
	}
	// Width 1 over one pixel of two entries leaves seven pad bits.
	bad["nonzero padding"] = []byte("GPLN\x01\x02\x01\x01\x01\x05\x07\xfe")
	return good, bad
}

// TestUnpackRefuses: every truncation of a good encoding, a corrupt
// header, a width above 7, an index past the dictionary and every other
// encoding Pack never writes fails with ErrBadImageFile.
func TestUnpackRefuses(t *testing.T) {
	good, bad := refusedPlanes()
	want := MustNew(1, 4, PixChar)
	copy(want.data, []byte{10, 20, 30, 30})
	if got, err := Unpack(good); err != nil || !sameImage(got, want) {
		t.Fatalf("good encoding: %v, %v", got, err)
	}
	if !bytes.Equal(Pack(want), good) {
		t.Fatalf("Pack = %x, want %x", Pack(want), good)
	}
	if _, err := Unpack([]byte("GPLN\x01\x02\x01\x01\x01\x05\x07\x02")); err != nil {
		t.Fatalf("the padding case's good twin: %v", err)
	}
	r := rand.New(rand.NewSource(2))
	for _, pt := range allPixTypes {
		for _, distinct := range []int{1, 5, 200} {
			b := Pack(planeImage(r, 9, 23, pt, distinct))
			for n := range b {
				bad[fmt.Sprintf("%s, %d distinct, first %d of %d bytes", pt, distinct, n, len(b))] = b[:n]
			}
		}
	}
	for name, b := range bad {
		im, err := Unpack(b)
		if err == nil {
			t.Errorf("%s: unpacked %v", name, im)
		} else if !errors.Is(err, ErrBadImageFile) {
			t.Errorf("%s: %v is not ErrBadImageFile", name, err)
		}
	}
}

// TestMarshalBytesPinned: Marshal, the file baseline's and GOB3's inline
// form, is not the stored form and keeps its bytes.
func TestMarshalBytesPinned(t *testing.T) {
	im := MustNew(2, 3, PixInt2)
	im.SetFloat64s([]float64{-1, 0, 1, 2, 300, -32768})
	want := "47494d4701000200000003000000" + "04696e7432" + "ffff000001000200" + "2c010080"
	if got := fmt.Sprintf("%x", Marshal(im)); got != want {
		t.Errorf("Marshal = %s, want %s", got, want)
	}
}

// FuzzUnpack: arbitrary bytes unpack to an image or fail with
// ErrBadImageFile, never panic, and what unpacks packs back to the same
// bytes, so the form has one encoding per image; an image built from the
// input packs and unpacks to itself. Seeds: one image of each pixel type,
// and, committed under testdata/fuzz/FuzzUnpack, the packed forms of a
// derive-refresh bench band (landscape 1, tile 0, 1986, red), its
// 12-class land cover and the tile's 1986→1990 change map.
func FuzzUnpack(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for i, pt := range allPixTypes {
		f.Add(Pack(planeImage(r, 1+i, 7-i, pt, 3+60*i)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if rows, cols, pt, _, err := planesHeader(b); err == nil && rows*cols*pt.Size() > 1<<20 {
			t.Skip("the image would exceed 1 MiB")
		}
		im, err := Unpack(b)
		switch {
		case err != nil && !errors.Is(err, ErrBadImageFile):
			t.Fatalf("%v is not ErrBadImageFile", err)
		case err == nil && !bytes.Equal(Pack(im), b):
			t.Fatalf("%x unpacks to an image that packs to %x", b, Pack(im))
		}
		// The input's bytes as the pixels of a char image.
		if len(b) > 0 {
			raw, _ := FromData(1, len(b), PixChar, bytes.Clone(b))
			if back, err := Unpack(Pack(raw)); err != nil || !sameImage(back, raw) {
				t.Fatalf("%x: round trip %v, %v", b, back, err)
			}
		}
	})
}

// fuzzSeed returns the bytes of a committed FuzzUnpack seed.
func fuzzSeed(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzUnpack", name))
	if err != nil {
		tb.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
	s, err := strconv.Unquote(lit)
	if err != nil {
		tb.Fatalf("seed %s: %v", name, err)
	}
	return []byte(s)
}

// Benchmarks of the stored form over the committed seeds: a bench band,
// land cover and change map.
func benchPlanes(b *testing.B, run func(b *testing.B, im *Image, packed []byte)) {
	for _, name := range []string{"band", "landcover", "changemap"} {
		packed := fuzzSeed(b, name)
		im, err := Unpack(packed)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(im.data)))
			run(b, im, packed)
		})
	}
}

func BenchmarkPack(b *testing.B) {
	benchPlanes(b, func(b *testing.B, im *Image, _ []byte) {
		for b.Loop() {
			Pack(im)
		}
	})
}

func BenchmarkUnpack(b *testing.B) {
	benchPlanes(b, func(b *testing.B, _ *Image, packed []byte) {
		for b.Loop() {
			if _, err := Unpack(packed); err != nil {
				b.Fatal(err)
			}
		}
	})
}
