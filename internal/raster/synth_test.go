package raster

import (
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

// referenceHashUnit and referenceNoise are the lattice hash and value noise
// as they stood before the corners of a cell shared their axis hashes,
// kept verbatim as the reference valueNoise2D must match bit for bit.
func referenceHashUnit(seed uint64, ix, iy int64) float64 {
	h := splitmix64(seed ^ splitmix64(uint64(ix)*0x9e3779b97f4a7c15) ^ splitmix64(uint64(iy)*0xc2b2ae3d27d4eb4f))
	return float64(h>>11) / float64(1<<53)
}

func referenceNoise(seed uint64, x, y float64) float64 {
	x0, y0 := math.Floor(x), math.Floor(y)
	tx, ty := smooth(x-x0), smooth(y-y0)
	ix, iy := int64(x0), int64(y0)
	v00 := referenceHashUnit(seed, ix, iy)
	v10 := referenceHashUnit(seed, ix+1, iy)
	v01 := referenceHashUnit(seed, ix, iy+1)
	v11 := referenceHashUnit(seed, ix+1, iy+1)
	a := v00 + (v10-v00)*tx
	b := v01 + (v11-v01)*tx
	return a + (b-a)*ty
}

// valueNoise2D, fbm, elevation, moisture and surfaceAt are the latent
// fields evaluated point by point, as the generator did before it shared
// each octave's lattice cells across a scene's columns and rows; they are
// the reference the shared cells must match bit for bit.
func valueNoise2D(seed uint64, x, y float64) float64 {
	x0, y0 := math.Floor(x), math.Floor(y)
	tx, ty := smooth(x-x0), smooth(y-y0)
	ix, iy := int64(x0), int64(y0)
	hx0, hx1 := hashX(ix), hashX(ix+1)
	hy0, hy1 := hashY(iy), hashY(iy+1)
	v00 := unitHash(seed ^ hx0 ^ hy0)
	v10 := unitHash(seed ^ hx1 ^ hy0)
	v01 := unitHash(seed ^ hx0 ^ hy1)
	v11 := unitHash(seed ^ hx1 ^ hy1)
	a := v00 + float64((v10-v00)*tx)
	b := v01 + float64((v11-v01)*tx)
	return a + float64((b-a)*ty)
}

func fbm(seed uint64, x, y float64, octaves int) float64 {
	var sum, norm float64
	amp, freq := 1.0, 1.0
	for o := 0; o < octaves; o++ {
		sum += float64(amp * valueNoise2D(seed+uint64(o)*1000003, x*freq, y*freq))
		norm += amp
		amp *= 0.5
		freq *= 2
	}
	return sum / norm
}

func (l *Landscape) elevation(x, y float64) float64 {
	return fbm(l.Seed^0xE1E7, x/l.Scale, y/l.Scale, 5)
}

func (l *Landscape) moisture(x, y float64) float64 {
	return fbm(l.Seed^0x301C, float64(x/l.Scale*1.3)+100, float64(y/l.Scale*1.3)-40, 4)
}

func (l *Landscape) surfaceAt(x, y, s float64) surface {
	m := l.moisture(x, y)
	e := l.elevation(x, y)
	veg := clamp(float64(m*0.7)+float64((1-e)*0.2)+float64(0.25*s*m), 0, 1)
	var wat float64
	if e < 0.22 {
		wat = 1
	}
	return surface{elev: e, veg: veg, water: wat, soil: clamp(1-veg-wat, 0, 1)}
}

// randomSpec draws a scene spec: origins far from and near 0, cell sizes
// from 1 to 250, and up to 9×9 pixels.
func randomSpec(r *rand.Rand) SceneSpec {
	return SceneSpec{
		OriginX: r.NormFloat64() * 1e4, OriginY: r.NormFloat64() * 1e4,
		CellSize: []float64{1, 7.5, 30, 250}[r.Intn(4)],
		Rows:     1 + r.Intn(9), Cols: 1 + r.Intn(9),
		DayOfYear: float64(r.Intn(365)) + []float64{0, 0.5, r.Float64()}[r.Intn(3)],
		Year:      1970 + r.Intn(60) - 2000*r.Intn(2),
	}
}

// TestSceneFieldsMatchPointwise holds the shared lattice cells to the
// point-wise fields: at every pixel of a spec, elevation, moisture and the
// surface are the same bits, and RainfallField and TemperatureField are
// their point-wise formulas.
func TestSceneFieldsMatchPointwise(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		l := NewLandscape(r.Uint64())
		spec := randomSpec(r)
		f := l.sceneFields(spec)
		rain, err := l.RainfallField(spec)
		if err != nil {
			t.Fatal(err)
		}
		temp, err := l.TemperatureField(spec)
		if err != nil {
			t.Fatal(err)
		}
		season := float64(10 * math.Sin(2*math.Pi*(spec.DayOfYear-80)/365))
		s := r.Float64()
		for row := 0; row < spec.Rows; row++ {
			for c := 0; c < spec.Cols; c++ {
				x := spec.OriginX + float64(float64(c)*spec.CellSize)
				y := spec.OriginY + float64(float64(row)*spec.CellSize)
				e, m := l.elevation(x, y), l.moisture(x, y)
				if f.elevation(row, c) != e || f.moisture(row, c) != m || surfaceOf(m, e, s) != l.surfaceAt(x, y, s) {
					t.Fatalf("spec %+v pixel (%d, %d): shared cells differ from the point-wise fields", spec, row, c)
				}
				wantRain := float32(float64(1000*math.Pow(m, 1.5)) + float64(150*e))
				wantTemp := float32(32 - float64(28*e) + season)
				gotRain, _ := rain.At(row, c)
				gotTemp, _ := temp.At(row, c)
				if float32(gotRain) != wantRain || float32(gotTemp) != wantTemp {
					t.Fatalf("spec %+v pixel (%d, %d): rainfall %v, temperature %v; want %v, %v", spec, row, c, gotRain, gotTemp, wantRain, wantTemp)
				}
			}
		}
	}
}

func TestValueNoiseMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		seed := r.Uint64()
		x, y := r.NormFloat64()*math.Pow(10, float64(r.Intn(8))), r.NormFloat64()*math.Pow(10, float64(r.Intn(8)))
		if got, want := valueNoise2D(seed, x, y), referenceNoise(seed, x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("valueNoise2D(%#x, %g, %g) = %g, reference %g", seed, x, y, got, want)
		}
	}
}

// referenceBand is the per-band generator as it stood before scenes were
// rendered in one pass: every band evaluates the latent fields afresh
// (elevation twice, through vegetation and water). It is kept verbatim as
// the reference GenerateScene must match bit for bit.
func referenceBand(l *Landscape, spec SceneSpec, b Band) (*Image, error) {
	vegetation := func(x, y float64, dayOfYear float64) float64 {
		m := l.moisture(x, y)
		e := l.elevation(x, y)
		season := 0.5 + 0.5*math.Sin(2*math.Pi*(dayOfYear-80)/365)
		v := m*0.7 + (1-e)*0.2 + 0.25*season*m
		return clamp(v, 0, 1)
	}
	water := func(x, y float64) float64 {
		if l.elevation(x, y) < 0.22 {
			return 1
		}
		return 0
	}
	reflectance := func(b Band, x, y float64, dayOfYear float64, year int) float64 {
		veg := vegetation(x, y, dayOfYear+float64(year%7)*3.1)
		wat := water(x, y)
		soil := clamp(1-veg-wat, 0, 1)
		var r float64
		switch b {
		case BandBlue:
			r = 0.06*veg + 0.10*soil + 0.08*wat
		case BandGreen:
			r = 0.12*veg + 0.14*soil + 0.06*wat
		case BandRed:
			r = 0.05*veg + 0.22*soil + 0.04*wat
		case BandNIR:
			r = 0.55*veg + 0.30*soil + 0.02*wat
		case BandSWIR:
			r = 0.25*veg + 0.35*soil + 0.01*wat
		case BandThermal:
			e := l.elevation(x, y)
			r = 0.6 - 0.3*e - 0.15*veg
		}
		return clamp(r, 0, 1)
	}

	pt := spec.PixType
	if pt == "" {
		pt = PixFloat4
	}
	img, err := New(spec.Rows, spec.Cols, pt)
	if err != nil {
		return nil, err
	}
	noiseSeed := l.Seed ^ splitmix64(uint64(b)+0xBAD) ^ splitmix64(uint64(spec.Year)*366+uint64(spec.DayOfYear))
	vals := make([]float64, spec.Rows*spec.Cols)
	i := 0
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			x := spec.OriginX + float64(c)*spec.CellSize
			y := spec.OriginY + float64(r)*spec.CellSize
			v := reflectance(b, x, y, spec.DayOfYear, spec.Year)
			if spec.Noise > 0 {
				// Deterministic pseudo-Gaussian noise via sum of uniforms.
				var u float64
				for k := int64(0); k < 4; k++ {
					u += referenceHashUnit(noiseSeed, int64(i)*4+k, int64(b))
				}
				v += spec.Noise * (u - 2) // mean 0, stddev ~ spec.Noise*0.577
			}
			if pt == PixChar {
				v *= 255 // scale reflectance to byte range
			}
			vals[i] = clamp(v, 0, math.Inf(1))
			i++
		}
	}
	if err := img.SetFloat64s(vals); err != nil {
		return nil, err
	}
	return img, nil
}

// sameBits reports whether two images hold the same pixels, bit for bit.
func sameBits(a, b *Image) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.PixType() != b.PixType() {
		return false
	}
	av, bv := a.Float64s(), b.Float64s()
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return false
		}
	}
	return true
}

// TestGenerateSceneMatchesPerBand holds the one-pass generator to the
// per-band one: every band of every spec, pixel type and noise setting is
// bit for bit the same, and GenerateBand is GenerateScene of one band.
func TestGenerateSceneMatchesPerBand(t *testing.T) {
	all := []Band{BandBlue, BandGreen, BandRed, BandNIR, BandSWIR, BandThermal}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 192; trial++ {
		l := NewLandscape(r.Uint64())
		spec := randomSpec(r)
		for _, noise := range []float64{0, 0.01} {
			for _, pt := range []PixType{"", PixChar, PixFloat8} {
				spec.Noise, spec.PixType = noise, pt
				scene, err := l.GenerateScene(spec, all)
				if err != nil {
					t.Fatal(err)
				}
				for j, b := range all {
					want, err := referenceBand(l, spec, b)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(scene[j], want) {
						t.Fatalf("spec %+v band %s: GenerateScene differs from the per-band generator", spec, b)
					}
					one, err := l.GenerateBand(spec, b)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(one, want) {
						t.Fatalf("spec %+v band %s: GenerateBand differs from the per-band generator", spec, b)
					}
				}
			}
		}
	}
}

// TestBenchSceneChecksum pins the scene every derive-refresh benchmark
// tile starts from (landscape seed 1, tile 0, 1986): a change to the
// generator that moves any bit of it changes every experiment's input.
func TestBenchSceneChecksum(t *testing.T) {
	spec := SceneSpec{CellSize: 30, Rows: 32, Cols: 32, DayOfYear: 170, Year: 1986, Noise: 0.01}
	imgs, err := NewLandscape(1).GenerateScene(spec, []Band{BandRed, BandNIR, BandSWIR})
	if err != nil {
		t.Fatal(err)
	}
	h := crc32.NewIEEE()
	for _, im := range imgs {
		h.Write(im.Data())
	}
	if got, want := h.Sum32(), uint32(0x271fbcc4); got != want {
		t.Errorf("bench scene CRC-32 = %#08x, want %#08x", got, want)
	}
}

// BenchmarkGenerateScene renders one derive-refresh benchmark scene per
// op: 32×32 red, NIR and SWIR with sensor noise.
func BenchmarkGenerateScene(b *testing.B) {
	l := NewLandscape(1)
	spec := SceneSpec{CellSize: 30, Rows: 32, Cols: 32, DayOfYear: 170, Year: 1986, Noise: 0.01}
	bands := []Band{BandRed, BandNIR, BandSWIR}
	for b.Loop() {
		if _, err := l.GenerateScene(spec, bands); err != nil {
			b.Fatal(err)
		}
	}
}

func testSpec(rows, cols int) SceneSpec {
	return SceneSpec{
		OriginX: 1000, OriginY: 2000, CellSize: 30,
		Rows: rows, Cols: cols,
		DayOfYear: 180, Year: 1986, Noise: 0.01,
	}
}

func TestGenerateBandDeterminism(t *testing.T) {
	l := NewLandscape(42)
	a, err := l.GenerateBand(testSpec(16, 16), BandRed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.GenerateBand(testSpec(16, 16), BandRed)
	if err != nil {
		t.Fatal(err)
	}
	if !a.EqualPixels(b) {
		t.Error("same spec must generate identical scenes (reproducibility)")
	}
	// Different seed differs.
	l2 := NewLandscape(43)
	c, _ := l2.GenerateBand(testSpec(16, 16), BandRed)
	if a.EqualPixels(c) {
		t.Error("different seeds should differ")
	}
	// Different band differs.
	d, _ := l.GenerateBand(testSpec(16, 16), BandNIR)
	if a.EqualPixels(d) {
		t.Error("different bands should differ")
	}
}

func TestGenerateSceneCoRegistration(t *testing.T) {
	// Two scenes whose windows overlap must agree (up to noise) on the
	// shared latent surface; verify via the noiseless reflectance.
	l := NewLandscape(7)
	spec1 := testSpec(16, 16)
	spec1.Noise = 0
	spec2 := spec1
	spec2.OriginX += 8 * spec1.CellSize // shift 8 pixels east

	a, err := l.GenerateBand(spec1, BandNIR)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.GenerateBand(spec2, BandNIR)
	if err != nil {
		t.Fatal(err)
	}
	// Column c of b equals column c+8 of a for the overlapping window.
	for r := 0; r < 16; r++ {
		for c := 0; c < 8; c++ {
			va, _ := a.At(r, c+8)
			vb, _ := b.At(r, c)
			if math.Abs(va-vb) > 1e-6 {
				t.Fatalf("co-registration broken at (%d,%d): %g vs %g", r, c, va, vb)
			}
		}
	}
}

func TestVegetationSeasonalSignal(t *testing.T) {
	// NIR reflectance in summer should exceed winter on average (vegetation
	// seasonal cycle), which is what NDVI-change experiments detect.
	l := NewLandscape(11)
	summer := testSpec(32, 32)
	summer.Noise = 0
	summer.DayOfYear = 172
	winter := summer
	winter.DayOfYear = 355

	s, err := l.GenerateBand(summer, BandNIR)
	if err != nil {
		t.Fatal(err)
	}
	w, err := l.GenerateBand(winter, BandNIR)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().Mean <= w.Stats().Mean {
		t.Errorf("summer NIR mean %g should exceed winter %g", s.Stats().Mean, w.Stats().Mean)
	}
}

func TestBandSpectralShape(t *testing.T) {
	// On a vegetated landscape NIR should exceed red on average — the
	// premise behind NDVI.
	l := NewLandscape(5)
	spec := testSpec(32, 32)
	spec.Noise = 0
	red, _ := l.GenerateBand(spec, BandRed)
	nir, _ := l.GenerateBand(spec, BandNIR)
	if nir.Stats().Mean <= red.Stats().Mean {
		t.Errorf("NIR mean %g should exceed red mean %g", nir.Stats().Mean, red.Stats().Mean)
	}
}

func TestGenerateSceneMultiBand(t *testing.T) {
	l := NewLandscape(3)
	bands := []Band{BandBlue, BandGreen, BandRed, BandNIR}
	imgs, err := l.GenerateScene(testSpec(8, 8), bands)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgs) != 4 {
		t.Fatalf("got %d bands", len(imgs))
	}
	for i, im := range imgs {
		if im.Rows() != 8 || im.Cols() != 8 {
			t.Errorf("band %d shape %s", i, im)
		}
	}
	// Bad spec propagates.
	bad := testSpec(0, 8)
	if _, err := l.GenerateScene(bad, bands); err == nil {
		t.Error("bad spec should fail")
	}
}

func TestGenerateBandPixTypes(t *testing.T) {
	l := NewLandscape(9)
	spec := testSpec(8, 8)
	spec.PixType = PixChar
	im, err := l.GenerateBand(spec, BandGreen)
	if err != nil {
		t.Fatal(err)
	}
	st := im.Stats()
	if st.Max > 255 || st.Min < 0 {
		t.Errorf("char band out of range: %+v", st)
	}
	if st.Max <= 1 {
		t.Errorf("char band should be scaled to byte range, max = %g", st.Max)
	}
}

func TestRainfallAndTemperatureFields(t *testing.T) {
	l := NewLandscape(21)
	spec := testSpec(32, 32)
	rain, err := l.RainfallField(spec)
	if err != nil {
		t.Fatal(err)
	}
	rs := rain.Stats()
	if rs.Min < 0 || rs.Max > 1500 {
		t.Errorf("rainfall out of plausible range: %+v", rs)
	}
	if rs.StdDev == 0 {
		t.Error("rainfall field should vary")
	}
	temp, err := l.TemperatureField(spec)
	if err != nil {
		t.Fatal(err)
	}
	ts := temp.Stats()
	if ts.Min < -30 || ts.Max > 60 {
		t.Errorf("temperature out of plausible range: %+v", ts)
	}
	// Determinism.
	rain2, _ := l.RainfallField(spec)
	if !rain.EqualPixels(rain2) {
		t.Error("rainfall field must be deterministic")
	}
}

func TestBandString(t *testing.T) {
	if BandNIR.String() != "nir" {
		t.Errorf("BandNIR = %q", BandNIR)
	}
	if Band(99).String() != "band?" {
		t.Errorf("unknown band = %q", Band(99))
	}
}

func TestNoiseIsDeterministicButNonZero(t *testing.T) {
	l := NewLandscape(13)
	spec := testSpec(16, 16)
	spec.Noise = 0.05
	a, _ := l.GenerateBand(spec, BandRed)
	b, _ := l.GenerateBand(spec, BandRed)
	if !a.EqualPixels(b) {
		t.Error("noisy generation must still be deterministic")
	}
	spec.Noise = 0
	clean, _ := l.GenerateBand(spec, BandRed)
	if a.EqualPixels(clean) {
		t.Error("noise should change pixels")
	}
}
