package imgops

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gaea/internal/raster"
)

// lloydReference is Unsuperclassify as plain Lloyd, every pixel against
// every centre on every pass, with a separate pass to sum the centres: the
// loop as it stood before the bounds pruned it and the passes were fused,
// kept verbatim as the reference both kernels must match bit for bit.
func lloydReference(bands []*raster.Image, k int, opts ClassifyOptions) (*raster.Image, error) {
	if err := checkSameShape(bands); err != nil {
		return nil, err
	}
	if k < 1 || k > 255 {
		return nil, fmt.Errorf("%w: k = %d (want 1..255)", ErrBadParam, k)
	}
	opts = opts.withDefaults()
	d := len(bands)
	n := bands[0].Pixels()
	if k > n {
		return nil, fmt.Errorf("%w: k = %d exceeds pixel count %d", ErrBadParam, k, n)
	}

	// Pixel vectors, pixel-major for cache-friendly distance loops.
	px := make([]float64, n*d)
	for b, im := range bands {
		vals := im.Float64s()
		for i, v := range vals {
			px[i*d+b] = v
		}
	}

	centers := seedReference(px, n, d, k, opts.Seed)
	assign := make([]int, n)
	counts := make([]int, k)
	sums := make([]float64, k*d)

	for iter := 0; iter < opts.MaxIter; iter++ {
		changed := 0
		for i := 0; i < n; i++ {
			best, bestD := 0, math.Inf(1)
			v := px[i*d : (i+1)*d]
			for c := 0; c < k; c++ {
				dist := sqDist(v, centers[c*d:(c+1)*d])
				if dist < bestD {
					best, bestD = c, dist
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed++
			}
		}
		if iter > 0 && changed == 0 {
			break
		}
		// Recompute centers.
		for i := range counts {
			counts[i] = 0
		}
		for i := range sums {
			sums[i] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			v := px[i*d : (i+1)*d]
			dst := sums[c*d : (c+1)*d]
			for j := range v {
				dst[j] += v[j]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// center, deterministically: pick the globally worst-fitted
				// pixel.
				worst, worstD := 0, -1.0
				for i := 0; i < n; i++ {
					dd := sqDist(px[i*d:(i+1)*d], centers[assign[i]*d:(assign[i]+1)*d])
					if dd > worstD {
						worst, worstD = i, dd
					}
				}
				copy(centers[c*d:(c+1)*d], px[worst*d:(worst+1)*d])
				continue
			}
			for j := 0; j < d; j++ {
				centers[c*d+j] = sums[c*d+j] / float64(counts[c])
			}
		}
	}

	out, err := raster.New(bands[0].Rows(), bands[0].Cols(), raster.PixChar)
	if err != nil {
		return nil, err
	}
	codes := make([]float64, n)
	for i, c := range assign {
		codes[i] = float64(c)
	}
	if err := out.SetFloat64s(codes); err != nil {
		return nil, err
	}
	return out, nil
}

// seedReference is the k-means++ seeding as it stood before the three-band
// kernel and the fused totals: k initial centres from a deterministic
// splitmix64 stream.
func seedReference(px []float64, n, d, k int, seed uint64) []float64 {
	centers := make([]float64, k*d)
	state := seed
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / float64(1<<53)
	}
	first := int(next() * float64(n))
	if first >= n {
		first = n - 1
	}
	copy(centers[0:d], px[first*d:(first+1)*d])
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = sqDist(px[i*d:(i+1)*d], centers[0:d])
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, dd := range dist {
			total += dd
		}
		idx := 0
		if total > 0 {
			target := next() * total
			var acc float64
			for i, dd := range dist {
				acc += dd
				if acc >= target {
					idx = i
					break
				}
			}
		} else {
			// All points coincide with chosen centers; spread deterministically.
			idx = (c * n) / k
		}
		copy(centers[c*d:(c+1)*d], px[idx*d:(idx+1)*d])
		for i := range dist {
			if dd := sqDist(px[i*d:(i+1)*d], centers[c*d:(c+1)*d]); dd < dist[i] {
				dist[i] = dd
			}
		}
	}
	return centers
}

// benchScenes are the scenes the repository benchmark's derive-refresh
// workload classifies at its default seed: 96 tiles of 32×32 red, NIR and
// SWIR, each in 1986, 1990 and 1987.
func benchScenes(tb testing.TB) [][]*raster.Image {
	tb.Helper()
	const side = 32 * 30
	var scenes [][]*raster.Image
	for tile := 0; tile < 96; tile++ {
		for _, year := range []int{1986, 1990, 1987} {
			spec := raster.SceneSpec{OriginX: float64(tile) * (side + 300), CellSize: 30, Rows: 32, Cols: 32,
				DayOfYear: 170, Year: year, Noise: 0.01}
			imgs, err := raster.NewLandscape(1+uint64(tile)).GenerateScene(spec,
				[]raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR})
			if err != nil {
				tb.Fatal(err)
			}
			scenes = append(scenes, imgs)
		}
	}
	return scenes
}

// benchScenesClasses is the sha256 of the class images of benchScenes
// at 12 classes and seed 1, concatenated in scene order, as plain Lloyd
// classifies them.
const benchScenesClasses = "663b5e79c7365405af1dc33b603779fa70cd822dd1a6f5df62bb4a41f9930dd7"

// TestBenchScenesGolden holds the repository benchmark's land covers to
// the bytes plain Lloyd gave them: a faster pass must not move a pixel of
// any of the 288 scenes. Every band of them passes exactSums, so their
// sums move with the pixels.
func TestBenchScenesGolden(t *testing.T) {
	h := sha256.New()
	for i, bands := range benchScenes(t) {
		for b, band := range bands {
			if !exactSums(band.Float64s()) {
				t.Errorf("scene %d band %d fails exactSums", i, b)
			}
		}
		out, err := Unsuperclassify(bands, 12, ClassifyOptions{Seed: 1})
		if err != nil {
			t.Fatalf("scene %d: %v", i, err)
		}
		h.Write(out.Data())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != benchScenesClasses {
		t.Errorf("class images hash to %s, want %s", got, benchScenesClasses)
	}
}

// imageOf builds a rows×cols float8 band from row-major values.
func imageOf(t *testing.T, rows, cols int, vals []float64) *raster.Image {
	t.Helper()
	im := raster.MustNew(rows, cols, raster.PixFloat8)
	if err := im.SetFloat64s(vals); err != nil {
		t.Fatal(err)
	}
	return im
}

// randomBands draws d bands of rows×cols pixels from draw.
func randomBands(t *testing.T, rows, cols, d int, draw func() float64) []*raster.Image {
	t.Helper()
	bands := make([]*raster.Image, d)
	for b := range bands {
		vals := make([]float64, rows*cols)
		for i := range vals {
			vals[i] = draw()
		}
		bands[b] = imageOf(t, rows, cols, vals)
	}
	return bands
}

// checkMatchesLloyd fails unless Unsuperclassify and lloydReference give
// the same class image, byte for byte, or the same error.
func checkMatchesLloyd(t *testing.T, name string, bands []*raster.Image, k int, opts ClassifyOptions) {
	t.Helper()
	got, gerr := Unsuperclassify(bands, k, opts)
	want, werr := lloydReference(bands, k, opts)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
	}
	if werr != nil {
		return
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; g != w {
			t.Fatalf("%s (k=%d, %+v): pixel %d has class %d, plain Lloyd %d", name, k, opts, i, g, w)
		}
	}
}

// TestUnsuperclassifyMatchesLloyd holds the pruned loop to the exactness
// contract: on every input the class image is plain Lloyd's, bit for bit.
func TestUnsuperclassifyMatchesLloyd(t *testing.T) {
	t.Run("bench scenes", func(t *testing.T) {
		for i, bands := range benchScenes(t) {
			checkMatchesLloyd(t, fmt.Sprintf("scene %d", i), bands, 12, ClassifyOptions{Seed: 1})
		}
	})
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(1))
		for trial := 0; trial < 400; trial++ {
			rows, cols, d := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(6)
			k := 1 + r.Intn(min(rows*cols, 20))
			scale := math.Pow(10, float64(r.Intn(7)-3))
			bands := randomBands(t, rows, cols, d, func() float64 { return r.NormFloat64() * scale })
			checkMatchesLloyd(t, fmt.Sprintf("trial %d", trial), bands, k, ClassifyOptions{Seed: uint64(trial) + 1})
		}
	})
	t.Run("integer ties", func(t *testing.T) {
		// Small integer grids put many pixels at exactly equal distances
		// from two centres, where plain Lloyd takes the lower index.
		r := rand.New(rand.NewSource(2))
		for trial := 0; trial < 1500; trial++ {
			rows, cols, d := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(3)
			k := 1 + r.Intn(min(rows*cols, 12))
			span := 2 + r.Intn(6)
			bands := randomBands(t, rows, cols, d, func() float64 { return float64(r.Intn(span)) })
			checkMatchesLloyd(t, fmt.Sprintf("trial %d", trial), bands, k, ClassifyOptions{Seed: uint64(trial) + 1})
		}
	})
	t.Run("duplicated pixels", func(t *testing.T) {
		// A few distinct pixels, each repeated, with k above their count:
		// seeding spreads centres over duplicates and empty clusters re-seed.
		r := rand.New(rand.NewSource(3))
		for trial := 0; trial < 300; trial++ {
			rows, cols, d := 2+r.Intn(8), 2+r.Intn(8), 1+r.Intn(3)
			distinct := 1 + r.Intn(4)
			palette := make([][]float64, distinct)
			for p := range palette {
				palette[p] = make([]float64, d)
				for j := range palette[p] {
					palette[p][j] = r.NormFloat64()
				}
			}
			picks := make([]int, rows*cols)
			for i := range picks {
				picks[i] = r.Intn(distinct)
			}
			bands := make([]*raster.Image, d)
			for b := range bands {
				vals := make([]float64, rows*cols)
				for i, p := range picks {
					vals[i] = palette[p][b]
				}
				bands[b] = imageOf(t, rows, cols, vals)
			}
			k := 1 + r.Intn(min(rows*cols, distinct+4))
			checkMatchesLloyd(t, fmt.Sprintf("trial %d", trial), bands, k, ClassifyOptions{Seed: uint64(trial) + 1})
		}
	})
	t.Run("fractional positions", func(t *testing.T) {
		// One band of pixels at a few positions that are multiples of
		// thirds, sevenths, tenths: centres reach a pixel or one another
		// through rounded means, so a pixel's bounds and its computed
		// distances can disagree by a rounding. Without the margin the
		// bounds skip pixels here that plain Lloyd moves.
		fracs := []float64{1.0 / 3, 2.0 / 3, 0.1, 0.2, 0.7, 1.0 / 7, 5.0 / 9, 0.5, 0.25}
		r := rand.New(rand.NewSource(7))
		for trial := 0; trial < 20000; trial++ {
			pos := make([]float64, 2+r.Intn(5))
			for p := range pos {
				pos[p] = float64(r.Intn(64)-32) * fracs[r.Intn(len(fracs))]
			}
			n := 4 + r.Intn(60)
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = pos[r.Intn(len(pos))]
			}
			bands := []*raster.Image{imageOf(t, 1, n, vals)}
			checkMatchesLloyd(t, fmt.Sprintf("trial %d", trial), bands, 2+r.Intn(3), ClassifyOptions{Seed: uint64(trial) + 1})
		}
	})
	t.Run("subnormal distances", func(t *testing.T) {
		// Integer grids scaled so far down that squared differences are
		// subnormal and computed distances lose their relative precision:
		// bounds taken from them must skip nothing.
		r := rand.New(rand.NewSource(8))
		for trial := 0; trial < 1000; trial++ {
			scale := math.Ldexp(1, -530-r.Intn(16))
			n, d, span := 4+r.Intn(40), 1+r.Intn(2), 2+r.Intn(12)
			bands := randomBands(t, 1, n, d, func() float64 { return float64(r.Intn(span)) * scale })
			checkMatchesLloyd(t, fmt.Sprintf("trial %d", trial), bands, 2+r.Intn(min(5, n-1)), ClassifyOptions{Seed: uint64(trial) + 1})
		}
		// Clusters about minLower apart, each spread over offsets whose
		// squares are subnormal: a lower bound taken at least minLower is
		// carried below it while the pixel's upper bound stays under it,
		// and the drifts that lower it are computed from subnormal squares.
		for trial := 0; trial < 2000; trial++ {
			coarse, fine := math.Ldexp(1, -470-r.Intn(45)), math.Ldexp(1, -505-r.Intn(40))
			n, d, span, spread := 3+r.Intn(20), 1+r.Intn(3), 1+r.Intn(4), 1+r.Intn(8)
			bands := randomBands(t, 1, n, d, func() float64 {
				return float64(r.Intn(span))*coarse + float64(r.Intn(spread)-spread/2)*fine
			})
			checkMatchesLloyd(t, fmt.Sprintf("two-scale trial %d", trial), bands, 2+r.Intn(min(4, n-1)), ClassifyOptions{Seed: uint64(trial) + 1})
		}
	})
	t.Run("constant and k equals n", func(t *testing.T) {
		constant := randomBands(t, 4, 4, 2, func() float64 { return 3.5 })
		for k := 1; k <= 16; k++ {
			checkMatchesLloyd(t, "constant", constant, k, ClassifyOptions{})
		}
		r := rand.New(rand.NewSource(4))
		for trial := 0; trial < 50; trial++ {
			rows, cols := 1+r.Intn(6), 1+r.Intn(6)
			bands := randomBands(t, rows, cols, 1+r.Intn(3), func() float64 { return float64(r.Intn(5)) })
			checkMatchesLloyd(t, fmt.Sprintf("k=n trial %d", trial), bands, rows*cols, ClassifyOptions{Seed: uint64(trial) + 1})
		}
	})
	t.Run("non-finite pixels", func(t *testing.T) {
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, 1e200, 1e-200}
		r := rand.New(rand.NewSource(5))
		for trial := 0; trial < 300; trial++ {
			rows, cols, d := 2+r.Intn(8), 2+r.Intn(8), 1+r.Intn(3)
			bands := randomBands(t, rows, cols, d, func() float64 {
				if r.Intn(12) == 0 {
					return specials[r.Intn(len(specials))]
				}
				return r.NormFloat64()
			})
			k := 1 + r.Intn(min(rows*cols, 10))
			checkMatchesLloyd(t, fmt.Sprintf("trial %d", trial), bands, k, ClassifyOptions{Seed: uint64(trial) + 1})
		}
	})
	t.Run("permuted triples", func(t *testing.T) {
		// Every pixel is the origin or a permutation of one triple, so a
		// pixel lies at the same true distance from centres that permute
		// each other, and only the order in which a squared distance adds
		// its bands decides which one the computed distances call nearer.
		fracs := []float64{0.1, 0.2, 0.3, 0.7, 1.0 / 3, 2.0 / 3, 1.0 / 7, 0.01, 3.3}
		perms := [...][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
		r := rand.New(rand.NewSource(9))
		for trial := 0; trial < 3000; trial++ {
			var triple [3]float64
			for j := range triple {
				triple[j] = float64(r.Intn(9)+1) * fracs[r.Intn(len(fracs))]
			}
			n := 4 + r.Intn(30)
			vals := [3][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
			for i := 0; i < n; i++ {
				if r.Intn(4) == 0 {
					continue
				}
				p := perms[r.Intn(len(perms))]
				for b := range vals {
					vals[b][i] = triple[p[b]]
				}
			}
			bands := make([]*raster.Image, 3)
			for b := range bands {
				bands[b] = imageOf(t, 1, n, vals[b])
			}
			k := 2 + r.Intn(min(6, n-1))
			checkMatchesLloyd(t, fmt.Sprintf("trial %d", trial), bands, k, ClassifyOptions{MaxIter: 1 + r.Intn(3), Seed: uint64(trial) + 1})
		}
	})
	t.Run("inexact sums", func(t *testing.T) {
		// Small integers, whose sums are exact, beside one value that
		// fails exactSums: a subnormal beside 1e300 (too many bits apart),
		// NaN or ±Inf. Each pass then sums afresh in pixel order.
		spoilers := [][]float64{{0x1p-1074, 1e300}, {3 * 0x1p-1070, -1e300}, {math.NaN()}, {math.Inf(1)}, {math.Inf(-1)}}
		r := rand.New(rand.NewSource(10))
		for trial := 0; trial < 600; trial++ {
			rows, cols, d := 2+r.Intn(8), 2+r.Intn(8), 1+r.Intn(4)
			bands := make([]*raster.Image, d)
			spoilt := r.Intn(d)
			for b := range bands {
				vals := make([]float64, rows*cols)
				for i := range vals {
					vals[i] = float64(r.Intn(9))
				}
				if b == spoilt {
					for _, v := range spoilers[trial%len(spoilers)] {
						vals[r.Intn(len(vals))] = v
					}
					if exactSums(vals) {
						t.Fatalf("trial %d: exactSums passes %v", trial, vals)
					}
				}
				bands[b] = imageOf(t, rows, cols, vals)
			}
			k := 1 + r.Intn(min(rows*cols, 8))
			checkMatchesLloyd(t, fmt.Sprintf("trial %d", trial), bands, k, ClassifyOptions{Seed: uint64(trial) + 1})
		}
	})
	t.Run("max iterations", func(t *testing.T) {
		r := rand.New(rand.NewSource(6))
		for trial := 0; trial < 200; trial++ {
			rows, cols, d := 2+r.Intn(10), 2+r.Intn(10), 1+r.Intn(4)
			bands := randomBands(t, rows, cols, d, func() float64 { return float64(r.Intn(4)) + r.Float64()*float64(r.Intn(2)) })
			k := 1 + r.Intn(min(rows*cols, 12))
			for _, it := range []int{1, 2, 3} {
				checkMatchesLloyd(t, fmt.Sprintf("trial %d", trial), bands, k, ClassifyOptions{MaxIter: it, Seed: uint64(trial) + 1})
			}
		}
	})
}

// TestUnprovedDistrustsTinyLowerBounds pins the minLower guard on the
// bounds test: a lower bound under minLower proves nothing, however far
// below it the upper bound lies. No class image of a test shows the
// guard: the margin a carried bound loses on its first carry, at least
// prune·minLower ≈ 2⁻⁵¹⁰, outweighs what subnormal squared drifts can
// round away, at most √d·2⁻⁵³⁷ a pass, for some 2²⁷/√d passes. So the
// "two-scale" inputs above reach the guard and it is pinned here.
func TestUnprovedDistrustsTinyLowerBounds(t *testing.T) {
	for _, c := range []struct {
		u, l, half float64
		want       int
	}{
		{0, minLower / 2, 0, 1},
		{minLower / 8, minLower / 2, 0, 1},
		{minLower / 8, math.Nextafter(minLower, 0), 0, 1},
		{minLower / 8, 2 * minLower, 0, 0},
		{minLower / 8, minLower / 2, minLower / 4, 0}, // the half distance still proves
		{1, 2, 0, 0},
		{1, 1, 0, 1}, // strict
		{1, -1, 0, 1},
		{math.Inf(1), math.Inf(1), math.Inf(1), 1},
	} {
		if got := unproved(c.u, c.l, c.half); got != c.want {
			t.Errorf("unproved(%g, %g, %g) = %d, want %d", c.u, c.l, c.half, got, c.want)
		}
	}
}

// fuzzInput decodes a classification from fuzz bytes: a header of band
// count (1–5), rows and cols (1–8 each), k (1..n), seed and MaxIter (0–3,
// 0 the default), then a tagged value for each pixel of each band. A tag's
// top two bits pick a small integer (ties), a third (rounded means), a
// special value or a subnormal multiple (NaN, ±Inf, ±0, MaxFloat64,
// subnormals), or the next eight bytes as raw bits. Missing bytes read 0.
func fuzzInput(data []byte) ([]*raster.Image, int, ClassifyOptions) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	d := 1 + int(next())%5
	rows, cols := 1+int(next())%8, 1+int(next())%8
	n := rows * cols
	k := 1 + int(next())%n
	opts := ClassifyOptions{Seed: uint64(next()), MaxIter: int(next()) % 4}
	specials := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022}
	bands := make([]*raster.Image, d)
	for b := range bands {
		vals := make([]float64, n)
		for i := range vals {
			t := next()
			small := float64(int(t&63) - 32)
			switch {
			case t < 0x40:
				vals[i] = small
			case t < 0x80:
				vals[i] = small / 3
			case t < 0xa0:
				vals[i] = specials[t&7]
			case t < 0xc0:
				vals[i] = float64(int(t&31)-16) * 0x1p-1068
			default:
				var bits uint64
				for range 8 {
					bits = bits<<8 | uint64(next())
				}
				vals[i] = math.Float64frombits(bits)
			}
		}
		bands[b] = raster.MustNew(rows, cols, raster.PixFloat8)
		if err := bands[b].SetFloat64s(vals); err != nil {
			panic(err)
		}
	}
	return bands, k, opts
}

// FuzzUnsuperclassify holds both kernels to the exactness contract on
// arbitrary small inputs: the flat kernel on every band count and the
// three-band kernel on three bands give plain Lloyd's class image.
func FuzzUnsuperclassify(f *testing.F) {
	f.Add([]byte{2, 7, 7, 11, 1, 0})
	f.Add([]byte{0, 3, 3, 3, 9, 1, 0x80, 0x81, 0x82, 0x20, 0x21, 0x22, 0x83, 0x84, 0x85})
	f.Fuzz(func(t *testing.T, data []byte) {
		bands, k, opts := fuzzInput(data)
		want, err := lloydReference(bands, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, three := range []bool{false, true} {
			if three && len(bands) != 3 {
				continue
			}
			got, err := unsuperclassify(bands, k, opts, three)
			if err != nil {
				t.Fatal(err)
			}
			if !got.EqualPixels(want) {
				t.Fatalf("three-band kernel %v (%d bands, k=%d, %+v): class image %v, plain Lloyd %v",
					three, len(bands), k, opts, got.Data(), want.Data())
			}
		}
	})
}

// TestExactSums checks the exact-sum condition at its edges.
func TestExactSums(t *testing.T) {
	for _, c := range []struct {
		vals []float64
		want bool
	}{
		{nil, true},
		{[]float64{0, math.Copysign(0, -1)}, true},
		{[]float64{1, 2, 3, -7}, true},
		{[]float64{0.1, 0.2}, false},                   // 53-bit mantissas with room for no carry
		{[]float64{float64(float32(0.1)), 0.25}, true}, // a float4 pixel widened
		{[]float64{0x1p52, 1}, false},                  // two values need 54 bits
		{[]float64{0x1p51, 1}, false},                  // the bound is bits.Len(n), a bit loose
		{[]float64{0x1p50, 1}, true},
		{[]float64{0x1p-1074, 0x1p-1040}, true}, // subnormals are exact multiples too
		{[]float64{0x1p-1074, 1e300}, false},
		{[]float64{0x1p1021, 0x1p1021}, true},
		{[]float64{0x1p1023, 0x1p1023}, false}, // their sum overflows
		{[]float64{1, math.NaN()}, false},
		{[]float64{1, math.Inf(1)}, false},
		{[]float64{math.Inf(-1)}, false},
	} {
		if got := exactSums(c.vals); got != c.want {
			t.Errorf("exactSums(%v) = %v, want %v", c.vals, got, c.want)
		}
	}
}

// FuzzExactSums holds exactSums to its promise: when it passes, sums kept
// by adding values in an arbitrary order and moving them between sums in
// an arbitrary order end as the sums of the same values added in pixel
// order, bit for bit. The bytes give up to 64 values, tagged as in
// fuzzInput, each value's first sum, and then moves, a value and the sum
// it goes to.
func FuzzExactSums(f *testing.F) {
	f.Add([]byte{4, 0x10, 0, 0x50, 1, 0x30, 2, 0x7f, 0, 1, 2, 3, 0, 0, 1})
	f.Add([]byte{3, 0xa1, 0, 0xb5, 1, 0xa3, 1, 2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		const k = 3
		n := 1 + int(next())%64
		vals, owner := make([]float64, n), make([]int, n)
		for i := range vals {
			switch t := next(); {
			case t < 0x40:
				vals[i] = float64(int(t&63) - 32)
			case t < 0x80:
				vals[i] = float64(int(t&63)-32) * 0x1p-20
			case t < 0xc0:
				vals[i] = float64(int(t&63)-32) * 0x1p-1068
			default:
				var bits uint64
				for range 8 {
					bits = bits<<8 | uint64(next())
				}
				vals[i] = math.Float64frombits(bits)
			}
			owner[i] = int(next()) % k
		}
		if !exactSums(vals) {
			return
		}
		var got [k]float64
		for i := n - 1; i >= 0; i-- {
			got[owner[i]] += vals[i]
		}
		for len(data) >= 2 {
			i, to := int(next())%n, int(next())%k
			got[owner[i]] -= vals[i]
			got[to] += vals[i]
			owner[i] = to
		}
		var want [k]float64
		for i, v := range vals {
			want[owner[i]] += v
		}
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("sum %d of %v (owners %v): moved %v (%#x), pixel order %v (%#x)",
					c, vals, owner, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
			}
		}
	})
}

func TestWithinClusterSSRefusesBadCodes(t *testing.T) {
	bands := twoClusterBands(t, 2, 2)
	for _, code := range []float64{-1, math.NaN(), 0.5, math.Inf(1), 256} {
		classes := imageOf(t, 2, 2, []float64{0, 1, code, 0})
		if _, err := WithinClusterSS(bands, classes); !errors.Is(err, ErrBadParam) {
			t.Errorf("class code %g: err = %v, want ErrBadParam", code, err)
		}
	}
	classes := imageOf(t, 2, 2, []float64{0, 1, 255, 0})
	if _, err := WithinClusterSS(bands, classes); err != nil {
		t.Errorf("class code 255: %v", err)
	}
}

// BenchmarkUnsuperclassify classifies the repository benchmark's
// derive-refresh scenes into 12 classes, one scene per op.
func BenchmarkUnsuperclassify(b *testing.B) {
	scenes := benchScenes(b)
	i := 0
	for b.Loop() {
		if _, err := Unsuperclassify(scenes[i%len(scenes)], 12, ClassifyOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// twoClusterBands builds bands whose pixels form two well-separated
// clusters: left half near (0,0), right half near (10,10).
func twoClusterBands(t *testing.T, rows, cols int) []*raster.Image {
	t.Helper()
	a := raster.MustNew(rows, cols, raster.PixFloat8)
	b := raster.MustNew(rows, cols, raster.PixFloat8)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := 0.0
			if c >= cols/2 {
				v = 10
			}
			jitter := float64((r*31+c*17)%7) * 0.01
			a.Set(r, c, v+jitter)
			b.Set(r, c, v-jitter)
		}
	}
	return []*raster.Image{a, b}
}

func TestUnsuperclassifySeparatesClusters(t *testing.T) {
	bands := twoClusterBands(t, 8, 8)
	out, err := Unsuperclassify(bands, 2, ClassifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// All left-half pixels share one class, all right-half the other.
	left, _ := out.At(0, 0)
	right, _ := out.At(0, 7)
	if left == right {
		t.Fatal("clusters not separated")
	}
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			v, _ := out.At(r, c)
			want := left
			if c >= 4 {
				want = right
			}
			if v != want {
				t.Fatalf("pixel (%d,%d) = %g, want %g", r, c, v, want)
			}
		}
	}
}

func TestUnsuperclassifyDeterminism(t *testing.T) {
	bands := twoClusterBands(t, 8, 8)
	a, err := Unsuperclassify(bands, 3, ClassifyOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Unsuperclassify(bands, 3, ClassifyOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !a.EqualPixels(b) {
		t.Error("same seed must reproduce the same classification")
	}
}

func TestUnsuperclassifyValidation(t *testing.T) {
	bands := twoClusterBands(t, 4, 4)
	if _, err := Unsuperclassify(bands, 0, ClassifyOptions{}); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := Unsuperclassify(bands, 256, ClassifyOptions{}); err == nil {
		t.Error("k>255 must fail")
	}
	if _, err := Unsuperclassify(bands, 17, ClassifyOptions{}); err == nil {
		t.Error("k > pixel count must fail")
	}
	if _, err := Unsuperclassify(nil, 2, ClassifyOptions{}); err == nil {
		t.Error("no bands must fail")
	}
	mixed := []*raster.Image{bands[0], raster.MustNew(5, 5, raster.PixFloat8)}
	if _, err := Unsuperclassify(mixed, 2, ClassifyOptions{}); err == nil {
		t.Error("shape mismatch must fail")
	}
}

func TestUnsuperclassifyClassCodesInRange(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 4+r.Intn(6), 4+r.Intn(6)
		img := raster.MustNew(rows, cols, raster.PixFloat8)
		vals := make([]float64, rows*cols)
		for i := range vals {
			vals[i] = r.NormFloat64() * 10
		}
		img.SetFloat64s(vals)
		k := 1 + r.Intn(5)
		out, err := Unsuperclassify([]*raster.Image{img}, k, ClassifyOptions{Seed: uint64(seed) + 1})
		if err != nil {
			return false
		}
		for _, v := range out.Float64s() {
			if v < 0 || v >= float64(k) || v != float64(int(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUnsuperclassifyKEqualsPixels(t *testing.T) {
	// k == n is legal: every pixel may be its own class.
	img := raster.MustNew(2, 2, raster.PixFloat8)
	img.SetFloat64s([]float64{1, 2, 3, 4})
	out, err := Unsuperclassify([]*raster.Image{img}, 4, ClassifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, v := range out.Float64s() {
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("distinct pixels with k=n should each get a class, got %d classes", len(seen))
	}
}

func TestUnsuperclassifyConstantImage(t *testing.T) {
	// All pixels identical: must terminate and assign everything to one
	// class code without panicking on empty clusters.
	img := raster.MustNew(4, 4, raster.PixFloat8)
	out, err := Unsuperclassify([]*raster.Image{img}, 3, ClassifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := out.At(0, 0)
	for _, v := range out.Float64s() {
		if v != first {
			t.Fatal("constant image should classify uniformly")
		}
	}
}

func TestWithinClusterSSImprovesWithK(t *testing.T) {
	bands := twoClusterBands(t, 8, 8)
	one, err := Unsuperclassify(bands, 1, ClassifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Unsuperclassify(bands, 2, ClassifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ss1, err := WithinClusterSS(bands, one)
	if err != nil {
		t.Fatal(err)
	}
	ss2, err := WithinClusterSS(bands, two)
	if err != nil {
		t.Fatal(err)
	}
	if ss2 >= ss1 {
		t.Errorf("k=2 SS %g should beat k=1 SS %g", ss2, ss1)
	}
}

func TestUnsuperclassifyOnSyntheticScene(t *testing.T) {
	// End-to-end: classify a synthetic scene into 12 classes like P20.
	l := raster.NewLandscape(42)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 24, Cols: 24, DayOfYear: 180, Year: 1986, Noise: 0.01}
	bands, err := l.GenerateScene(spec, []raster.Band{raster.BandRed, raster.BandNIR, raster.BandSWIR})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unsuperclassify(bands, 12, ClassifyOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := out.Stats()
	if st.Min < 0 || st.Max > 11 {
		t.Errorf("class codes out of range: %+v", st)
	}
	if st.StdDev == 0 {
		t.Error("classification should not be uniform on a varied scene")
	}
}

// WithinClusterSS returns the total within-cluster sum of squared distances
// of a classification against its source bands — the objective k-means
// minimises, which the quality tests check a classification against.
// Class codes must be integers in 0..255, the range of the char image
// Unsuperclassify writes.
func WithinClusterSS(bands []*raster.Image, classes *raster.Image) (float64, error) {
	if err := checkSameShape(append([]*raster.Image{classes}, bands...)); err != nil {
		return 0, err
	}
	d := len(bands)
	n := classes.Pixels()
	codes := classes.Float64s()
	k := 0
	for i, c := range codes {
		if !(c >= 0 && c <= 255) || c != math.Trunc(c) {
			return 0, fmt.Errorf("%w: class code %g at pixel %d (want an integer in 0..255)", ErrBadParam, c, i)
		}
		if int(c) >= k {
			k = int(c) + 1
		}
	}
	sums := make([]float64, k*d)
	counts := make([]int, k)
	px := make([]float64, n*d)
	for b, im := range bands {
		vals := im.Float64s()
		for i, v := range vals {
			px[i*d+b] = v
		}
	}
	for i := 0; i < n; i++ {
		c := int(codes[i])
		counts[c]++
		for j := 0; j < d; j++ {
			sums[c*d+j] += px[i*d+j]
		}
	}
	centers := make([]float64, k*d)
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		for j := 0; j < d; j++ {
			centers[c*d+j] = sums[c*d+j] / float64(counts[c])
		}
	}
	var ss float64
	for i := 0; i < n; i++ {
		c := int(codes[i])
		ss += sqDist(px[i*d:(i+1)*d], centers[c*d:(c+1)*d])
	}
	return ss, nil
}
