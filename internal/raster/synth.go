package raster

import (
	"math"
)

// Synthetic scene generation.
//
// The paper's experiments run over Landsat TM and AVHRR satellite imagery,
// which is unavailable offline. This generator produces the closest
// synthetic equivalent the derivation experiments need: multi-band,
// co-registered rasters over a persistent "landscape" whose bands are
// correlated mixtures of latent surface fields (vegetation, soil moisture,
// water) plus a seasonal signal and sensor noise. Because the landscape is
// a pure function of (seed, position), re-generating a scene for the same
// region and date is deterministic — exactly what reproducibility
// experiments require — while different dates shift vegetation the way
// NDVI-change studies expect.
//
// A scene is rendered in one pass per pixel: the latent surface (elevation,
// moisture, and from them vegetation, water and soil) is evaluated once and
// every requested band is mixed from it, so a three-band scene costs one
// surface evaluation per pixel, not three, and elevation is not evaluated
// again for water. Each octave's lattice hashes and smoothed offsets
// depend on a pixel's column or its row alone, so they are computed once
// per column and once per row (sceneFields). A band's pixels depend only on the spec and the band:
// which bands are asked for together changes no bit of any of them.
//
// A scene is the same bits on every architecture. Some (arm64, ppc64,
// s390x) may fuse x*y + z into one instruction that rounds once, so every
// product that is added to or subtracted from something is written
// float64(x*y), a conversion the Go specification says blocks the fusion.
// amd64 never fuses, so the conversions change no bit there.

// splitmix64 is a tiny, high-quality hash-to-random mapping; it gives the
// generator deterministic per-coordinate noise without carrying rand state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Integer lattice coordinates (ix, iy) map to a uniform float in [0, 1) as
// unitHash(seed ^ hashX(ix) ^ hashY(iy)). The axis hashes are separate so
// that callers reusing a coordinate compute its hash once.
func hashX(ix int64) uint64 { return splitmix64(uint64(ix) * 0x9e3779b97f4a7c15) }

func hashY(iy int64) uint64 { return splitmix64(uint64(iy) * 0xc2b2ae3d27d4eb4f) }

// unitHash's quotient is exact (53 bits scaled by a power of two), so a
// fused add would round the same; the outer conversion changes no bit and
// only keeps synth.go free of fused instructions on every GOARCH.
func unitHash(h uint64) float64 {
	return float64(float64(splitmix64(h)>>11) / float64(1<<53))
}

func smooth(t float64) float64 { return t * t * (3 - 2*t) }

// cell is one octave's lattice cell along one axis at one coordinate:
// the hashes of its two lattice lines and the smoothed offset between
// them.
type cell struct {
	h0, h1 uint64
	t      float64
}

// axisCells returns, for each of n coordinates and each of octaves
// octaves of fbm, the cell the coordinate at(i) falls in, octave-major
// per coordinate: a scene's columns share one list and its rows
// another, so a pixel evaluates no hash of its own.
func axisCells(n, octaves int, at func(i int) float64, hash func(int64) uint64) []cell {
	cells := make([]cell, 0, n*octaves)
	for i := range n {
		v, freq := at(i), 1.0
		for range octaves {
			f := v * freq
			f0 := math.Floor(f)
			k := int64(f0)
			cells = append(cells, cell{hash(k), hash(k + 1), smooth(f - f0)})
			freq *= 2
		}
	}
	return cells
}

// fbmCells layers octaves of smooth value noise into a natural-looking
// field in [0, 1], at the point whose cells per octave are cx and cy.
func fbmCells(seed uint64, cx, cy []cell) float64 {
	var sum, norm float64
	amp := 1.0
	for o, x := range cx {
		y := cy[o]
		s := seed + uint64(o)*1000003
		v00 := unitHash(s ^ x.h0 ^ y.h0)
		v10 := unitHash(s ^ x.h1 ^ y.h0)
		v01 := unitHash(s ^ x.h0 ^ y.h1)
		v11 := unitHash(s ^ x.h1 ^ y.h1)
		a := v00 + float64((v10-v00)*x.t)
		b := v01 + float64((v11-v01)*x.t)
		sum += float64(amp * (a + float64((b-a)*y.t)))
		norm += amp
		amp *= 0.5
	}
	return sum / norm
}

// Landscape is a deterministic synthetic earth surface. WorldX/WorldY place
// the scene in world coordinates so overlapping scenes sample the same
// latent fields (co-registration).
type Landscape struct {
	Seed uint64
	// Scale is the world-units-per-noise-cell factor; larger values make
	// broader geographic features.
	Scale float64
}

// NewLandscape returns a landscape with a sensible feature scale.
func NewLandscape(seed uint64) *Landscape {
	return &Landscape{Seed: seed, Scale: 64}
}

// Latent surface fields, each in [0, 1]: elevation (5 octaves) and
// moisture (4), and their seeds.
const (
	elevOctaves, moistOctaves = 5, 4
	elevSeed, moistSeed       = 0xE1E7, 0x301C
)

// fields is the lattice of a scene's latent fields: per column and per
// row, each octave's cells, for elevation and for moisture.
type fields struct {
	l                            *Landscape
	elevX, elevY, moistX, moistY []cell
}

// sceneFields computes the cells of every column and row of spec once.
func (l *Landscape) sceneFields(spec SceneSpec) *fields {
	x := func(c int) float64 { return spec.OriginX + float64(float64(c)*spec.CellSize) }
	y := func(r int) float64 { return spec.OriginY + float64(float64(r)*spec.CellSize) }
	return &fields{l: l,
		elevX:  axisCells(spec.Cols, elevOctaves, func(c int) float64 { return x(c) / l.Scale }, hashX),
		elevY:  axisCells(spec.Rows, elevOctaves, func(r int) float64 { return y(r) / l.Scale }, hashY),
		moistX: axisCells(spec.Cols, moistOctaves, func(c int) float64 { return float64(x(c)/l.Scale*1.3) + 100 }, hashX),
		moistY: axisCells(spec.Rows, moistOctaves, func(r int) float64 { return float64(y(r)/l.Scale*1.3) - 40 }, hashY),
	}
}

func (f *fields) elevation(r, c int) float64 {
	return fbmCells(f.l.Seed^elevSeed, f.elevX[c*elevOctaves:][:elevOctaves], f.elevY[r*elevOctaves:][:elevOctaves])
}

func (f *fields) moisture(r, c int) float64 {
	return fbmCells(f.l.Seed^moistSeed, f.moistX[c*moistOctaves:][:moistOctaves], f.moistY[r*moistOctaves:][:moistOctaves])
}

// surface is the latent surface at one world point, each field in [0, 1].
type surface struct {
	elev, veg, water, soil float64
}

// surfaceOf derives every latent field from moisture m and elevation e.
// Vegetation responds to moisture and elevation plus the seasonal cycle
// s, with an amplitude that grows with moisture so arid regions stay
// flat across seasons, as real NDVI does; water is 1 where elevation
// falls below the water table; soil is what neither covers.
func surfaceOf(m, e, s float64) surface {
	veg := clamp(float64(m*0.7)+float64((1-e)*0.2)+float64(0.25*s*m), 0, 1)
	var wat float64
	if e < 0.22 {
		wat = 1
	}
	return surface{elev: e, veg: veg, water: wat, soil: clamp(1-veg-wat, 0, 1)}
}

// reflectance mixes a band's surface reflectance from the latent fields.
// Coefficients are loosely modelled on vegetation/soil/water spectral
// signatures: vegetation absorbs red and reflects NIR strongly, water
// absorbs NIR, soil is flat.
func (s surface) reflectance(b Band) float64 {
	veg, soil, wat := s.veg, s.soil, s.water
	var r float64
	switch b {
	case BandBlue:
		r = float64(0.06*veg) + float64(0.10*soil) + float64(0.08*wat)
	case BandGreen:
		r = float64(0.12*veg) + float64(0.14*soil) + float64(0.06*wat)
	case BandRed:
		r = float64(0.05*veg) + float64(0.22*soil) + float64(0.04*wat)
	case BandNIR:
		r = float64(0.55*veg) + float64(0.30*soil) + float64(0.02*wat)
	case BandSWIR:
		r = float64(0.25*veg) + float64(0.35*soil) + float64(0.01*wat)
	case BandThermal:
		r = 0.6 - float64(0.3*s.elev) - float64(0.15*veg)
	}
	return clamp(r, 0, 1)
}

// Band identifies a simulated sensor band.
type Band int

// Simulated bands: the visible/NIR bands NDVI and classification need.
const (
	BandBlue Band = iota
	BandGreen
	BandRed
	BandNIR
	BandSWIR
	BandThermal
	NumBands int = 6
)

var bandNames = [...]string{"blue", "green", "red", "nir", "swir", "thermal"}

// String returns the band's conventional name.
func (b Band) String() string {
	if b < 0 || int(b) >= len(bandNames) {
		return "band?"
	}
	return bandNames[b]
}

// SceneSpec describes one scene acquisition: a world-coordinate window,
// raster shape, acquisition day-of-year, and sensor noise level.
type SceneSpec struct {
	OriginX, OriginY float64 // world coordinates of pixel (0, 0)
	CellSize         float64 // world units per pixel
	Rows, Cols       int
	DayOfYear        float64 // acquisition date within the year
	Year             int     // shifts the vegetation field slightly year-on-year
	Noise            float64 // sensor noise stddev in reflectance units (0-1 scale)
	PixType          PixType // output pixel type; default float4
}

// GenerateBand renders one band of a scene: GenerateScene of that band.
func (l *Landscape) GenerateBand(spec SceneSpec, b Band) (*Image, error) {
	imgs, err := l.GenerateScene(spec, []Band{b})
	if err != nil {
		return nil, err
	}
	return imgs[0], nil
}

// GenerateScene renders the requested bands of a scene, co-registered. The
// latent surface is evaluated once per pixel and every band is mixed from
// it. Sensor noise is deterministic in (seed, band, pixel, year, day) so
// identical specs yield identical scenes.
func (l *Landscape) GenerateScene(spec SceneSpec, bands []Band) ([]*Image, error) {
	pt := spec.PixType
	if pt == "" {
		pt = PixFloat4
	}
	out := make([]*Image, len(bands))
	vals := make([][]float64, len(bands))
	// Each band's noise draws lattice points (4i+k, band) under its own
	// seed; the seed and the band's row hash are folded once here.
	noiseKeys := make([]uint64, len(bands))
	for j, b := range bands {
		img, err := New(spec.Rows, spec.Cols, pt)
		if err != nil {
			return nil, err
		}
		out[j] = img
		vals[j] = make([]float64, spec.Rows*spec.Cols)
		noiseSeed := l.Seed ^ splitmix64(uint64(b)+0xBAD) ^ splitmix64(uint64(spec.Year)*366+uint64(spec.DayOfYear))
		noiseKeys[j] = noiseSeed ^ hashY(int64(b))
	}
	// Vegetation's seasonal cycle, in [0, 1]; the year shifts it slightly.
	day := spec.DayOfYear + float64(float64(spec.Year%7)*3.1)
	s := 0.5 + float64(0.5*math.Sin(2*math.Pi*(day-80)/365))
	f := l.sceneFields(spec)
	var hx [4]uint64 // a pixel's noise column hashes, shared by every band
	i := 0
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			surf := surfaceOf(f.moisture(r, c), f.elevation(r, c), s)
			if spec.Noise > 0 {
				for k := range hx {
					hx[k] = hashX(int64(i)*4 + int64(k))
				}
			}
			for j, b := range bands {
				v := surf.reflectance(b)
				if spec.Noise > 0 {
					// Deterministic pseudo-Gaussian noise via sum of uniforms.
					var u float64
					for _, h := range hx {
						u += unitHash(noiseKeys[j] ^ h)
					}
					v += float64(spec.Noise * (u - 2)) // mean 0, stddev ~ spec.Noise*0.577
				}
				if pt == PixChar {
					v *= 255 // scale reflectance to byte range
				}
				vals[j][i] = clamp(v, 0, math.Inf(1))
			}
			i++
		}
	}
	for j, img := range out {
		if err := img.SetFloat64s(vals[j]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RainfallField renders an annual-precipitation raster (mm/year) for the
// desert-concept experiments: rainfall follows moisture with an elevation
// bonus, ranging roughly 0–1000 mm.
func (l *Landscape) RainfallField(spec SceneSpec) (*Image, error) {
	pt := spec.PixType
	if pt == "" {
		pt = PixFloat4
	}
	img, err := New(spec.Rows, spec.Cols, pt)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, spec.Rows*spec.Cols)
	f := l.sceneFields(spec)
	i := 0
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			vals[i] = float64(1000*math.Pow(f.moisture(r, c), 1.5)) + float64(150*f.elevation(r, c))
			i++
		}
	}
	if err := img.SetFloat64s(vals); err != nil {
		return nil, err
	}
	return img, nil
}

// TemperatureField renders a mean-temperature raster (°C): hot lowlands,
// cold highlands, modulated by day of year.
func (l *Landscape) TemperatureField(spec SceneSpec) (*Image, error) {
	pt := spec.PixType
	if pt == "" {
		pt = PixFloat4
	}
	img, err := New(spec.Rows, spec.Cols, pt)
	if err != nil {
		return nil, err
	}
	season := float64(10 * math.Sin(2*math.Pi*(spec.DayOfYear-80)/365))
	vals := make([]float64, spec.Rows*spec.Cols)
	f := l.sceneFields(spec)
	i := 0
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			vals[i] = 32 - float64(28*f.elevation(r, c)) + season
			i++
		}
	}
	if err := img.SetFloat64s(vals); err != nil {
		return nil, err
	}
	return img, nil
}
