package imgops

import (
	"fmt"
	"math"

	"gaea/internal/raster"
)

// Unsupervised classification — the unsuperclassify() operator of process
// P20 (Figure 3): group pixels of a composited multi-band image into k land
// cover classes by similarity. We implement k-means with deterministic
// k-means++-style seeding driven by a caller-supplied seed, because the
// paper's reproducibility goal requires that re-running a task yields the
// same classification.
//
// Exactness contract. The class image is bit for bit the one plain Lloyd
// iteration gives: every pixel takes the centre of least sqDist, the first
// in index order on a tie, centres are the means summed in pixel order, an
// empty cluster is re-seeded at the worst-fitted pixel, and the loop stops
// at the first pass after the first that changes no assignment. A
// re-derivation must reproduce its stored output, so no faster kernel may
// move a single pixel.
//
// One pass per iteration. Each iteration visits every pixel once, in
// order: it carries the pixel's bounds across the last recompute, skips the
// pixel if they prove its centre nearest or else scans all k centres, and
// adds the pixel into its centre's running sum. A centre's sum thus grows
// in pixel order, as in plain Lloyd, and the means are the same bits.
// Between passes the centres are recomputed from the sums, an empty
// cluster re-seeded, and the centres' drifts and half distances taken.
//
// Two kernels. A three-band composite, the one every land cover here
// classifies, runs on [3]float64 pixels and centres with the squared
// distance written out term by term; any other band count runs the same
// pass on flat slices. Both add the same terms in the same order, so the
// choice, made from the band count alone, moves no pixel.
//
// No fused multiply-add. Some architectures (arm64, ppc64, s390x) may fuse
// x*y + z into one instruction that rounds once, and a land cover derived
// on one machine must Reproduce equal on another. The Go specification
// lets an explicit conversion block the fusion, so every product that is
// summed into a distance, a seeding total or a bound is written
// float64(x*y). amd64 never fuses, so the conversions change no bit there.
//
// Lloyd is pruned with Hamerly's bounds, which decide only which pixels need
// no distance computed at all: per pixel an upper bound on the distance to
// its centre and a lower bound on the distance to every other centre, per
// centre half the distance to its nearest other centre. After a recompute a
// centre's drift raises the upper bounds of its pixels, and the largest
// drift of the other centres lowers a pixel's lower bound. A pixel is
// skipped when its upper bound is strictly below the larger of its centre's
// half distance and its lower bound, as it stands or once tightened to the
// pixel's distance to its centre; every other pixel runs the plain loop over
// all k centres, which also takes its bounds afresh.
//
// The margin argument. By the triangle inequality a skipped pixel's centre
// is strictly nearest in real arithmetic, but plain Lloyd compares computed
// squared distances, so the bounds must also leave room for rounding. Upper
// bounds are plain roots and sums of non-negative drifts, within a few
// roundings of a true distance. Lower bounds and half distances carry a
// relative margin, prune: they are deflated by 1-prune when taken from a
// root, and each loosening takes prune·(bound + drift) more off than the
// drift, which covers that step's own roundings. A sqDist of d terms is
// within (d+2)·2⁻⁵³ of its value and a root within 2⁻⁵³, orders of
// magnitude below the margin for d < maxPruneBands. So when a pixel is
// skipped every other centre is truly further than its own by a relative
// margin near prune/2, far more than sqDist's rounding, and plain Lloyd's
// strict < picks the same centre whatever the index order. An exact tie is
// never skipped: that is why the test is strict. Two ends are closed off: a
// lower bound under minLower, where squared differences may be subnormal
// and lose their relative precision, or not finite (overflow, ±Inf or NaN
// pixels and centres) counts as 0; a NaN drift counts as infinite; and an
// infinite or NaN upper bound never passes the strict test.

// ClassifyOptions tunes Unsuperclassify.
type ClassifyOptions struct {
	MaxIter int    // maximum Lloyd iterations; default 50
	Seed    uint64 // deterministic seeding; default 1
}

func (o ClassifyOptions) withDefaults() ClassifyOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Unsuperclassify clusters the pixels of the given co-registered bands into
// k classes and returns a char image of class codes 0..k-1. It is
// deterministic for a given (input, k, options) triple.
func Unsuperclassify(bands []*raster.Image, k int, opts ClassifyOptions) (*raster.Image, error) {
	return unsuperclassify(bands, k, opts, len(bands) == 3)
}

// unsuperclassify is Unsuperclassify on the three-band kernels if three is
// set, which needs three bands, and on the flat ones otherwise.
func unsuperclassify(bands []*raster.Image, k int, opts ClassifyOptions, three bool) (*raster.Image, error) {
	if err := checkSameShape(bands); err != nil {
		return nil, err
	}
	if k < 1 || k > 255 {
		return nil, fmt.Errorf("%w: k = %d (want 1..255)", ErrBadParam, k)
	}
	opts = opts.withDefaults()
	n := bands[0].Pixels()
	if k > n {
		return nil, fmt.Errorf("%w: k = %d exceeds pixel count %d", ErrBadParam, k, n)
	}
	out, err := raster.New(bands[0].Rows(), bands[0].Cols(), raster.PixChar)
	if err != nil {
		return nil, err
	}

	m := newKmeans(bands, k, three)
	m.seed(opts.Seed)
	pruned := m.d < maxPruneBands
	for iter := 0; iter < opts.MaxIter; iter++ {
		changed := m.pass(pruned && iter > 0)
		if iter > 0 && changed == 0 {
			break
		}
		m.recompute()
		if pruned {
			m.separate()
		}
	}

	codes := out.Data()
	for i, c := range m.assign {
		codes[i] = byte(c)
	}
	return out, nil
}

// kmeans is the working state of one classification. Its float arrays are
// cut from one allocation and its int arrays from another.
type kmeans struct {
	d, k  int
	three bool // run the three-band kernels

	px []float64 // the pixels, d bands each, pixel-major
	// Per centre, d bands each: where it is, where it was before the last
	// recompute, and the running sums of the pass's pixels.
	centers, old, sums []float64
	// Per pixel, Hamerly's bounds: its distance to its centre or more, to
	// any other centre or less.
	upper, lower []float64
	// Per centre: half its distance to the nearest other centre or less,
	// how far the last recompute moved it, and what the lower bounds of its
	// pixels lose in the next pass: the furthest move of the other centres,
	// with the margin.
	half, drift, loss []float64
	assign, counts    []int // per pixel its centre, per centre its pixel count
}

// newKmeans lays out the state of classifying bands into k classes and
// gathers their pixels.
func newKmeans(bands []*raster.Image, k int, three bool) kmeans {
	d, n := len(bands), bands[0].Pixels()
	slab := make([]float64, n*d+2*n+3*k*d+3*k)
	cut := func(l int) []float64 {
		s := slab[:l:l]
		slab = slab[l:]
		return s
	}
	ints := make([]int, n+k)
	m := kmeans{d: d, k: k, three: three,
		px: cut(n * d), upper: cut(n), lower: cut(n),
		centers: cut(k * d), old: cut(k * d), sums: cut(k * d),
		half: cut(k), drift: cut(k), loss: cut(k),
		assign: ints[:n:n], counts: ints[n:]}
	// Each band is widened into upper, which the first pass overwrites.
	for b, im := range bands {
		im.ReadFloat64s(m.upper)
		for i, v := range m.upper {
			m.px[i*d+b] = v
		}
	}
	return m
}

// seed picks the k initial centres k-means++-style with a deterministic
// splitmix64 stream. It keeps each pixel's squared distance to its nearest
// chosen centre in lower, which the first pass overwrites.
func (m *kmeans) seed(seed uint64) {
	n, d, k := len(m.assign), m.d, m.k
	state := seed
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / float64(1<<53)
	}
	idx := int(next() * float64(n))
	if idx >= n {
		idx = n - 1
	}
	for c := 0; ; c++ {
		copy(m.centers[c*d:(c+1)*d], m.px[idx*d:(idx+1)*d])
		if c == k-1 {
			return
		}
		total := m.nearer(c)
		idx = 0
		if total > 0 {
			target := next() * total
			var acc float64
			for i, dd := range m.lower {
				acc += dd
				if acc >= target {
					idx = i
					break
				}
			}
		} else {
			// All points coincide with chosen centers; spread deterministically.
			idx = ((c + 1) * n) / k
		}
	}
}

// nearer lowers each pixel's squared distance in lower to the one to centre
// c, which sets it when c is the first, and returns their sum, added in
// pixel order.
func (m *kmeans) nearer(c int) (total float64) {
	dist := m.lower
	if m.three {
		w := (*[3]float64)(m.centers[3*c:])
		for i := range dist {
			if dd := sq3((*[3]float64)(m.px[3*i:]), w); c == 0 || dd < dist[i] {
				dist[i] = dd
			}
			total += dist[i]
		}
		return total
	}
	d := m.d
	w := m.centers[c*d : (c+1)*d]
	for i := range dist {
		if dd := sqDist(m.px[i*d:(i+1)*d], w); c == 0 || dd < dist[i] {
			dist[i] = dd
		}
		total += dist[i]
	}
	return total
}

// pass assigns every pixel to its nearest centre and sums the pixels of
// each centre, skipping the pixels whose bounds, carried across the last
// recompute, prove their centre nearest if prune is set. It returns how
// many pixels changed centre.
func (m *kmeans) pass(prune bool) int {
	clear(m.sums)
	clear(m.counts)
	if m.three {
		return m.pass3(prune)
	}
	return m.passFlat(prune)
}

// pass3 is pass on three-band pixels and centres.
func (m *kmeans) pass3(prune bool) (changed int) {
	px, centers, sums := m.px, m.centers, m.sums
	half, drift, loss := m.half, m.drift, m.loss
	assign, counts := m.assign, m.counts
	upper, lower := m.upper[:len(assign)], m.lower[:len(assign)]
	for i, a := range assign {
		v := (*[3]float64)(px[3*i:])
		scan := true
		if prune {
			u, l, bound := carry(upper[i], lower[i], drift[a], loss[a], half[a])
			if !(u < bound) {
				u = math.Sqrt(sq3(v, (*[3]float64)(centers[3*a:])))
			}
			upper[i], lower[i] = u, l
			scan = !(u < bound)
		}
		if scan {
			best, bestD, second := nearest3(v, centers)
			upper[i], lower[i] = math.Sqrt(bestD), lowerRoot(second)
			if a != best {
				assign[i], a = best, best
				changed++
			}
		}
		counts[a]++
		s := (*[3]float64)(sums[3*a:])
		s[0] += v[0]
		s[1] += v[1]
		s[2] += v[2]
	}
	return changed
}

// passFlat is pass on pixels and centres of any band count.
func (m *kmeans) passFlat(prune bool) (changed int) {
	d, px, centers, sums := m.d, m.px, m.centers, m.sums
	half, drift, loss := m.half, m.drift, m.loss
	assign, counts := m.assign, m.counts
	upper, lower := m.upper[:len(assign)], m.lower[:len(assign)]
	for i, a := range assign {
		v := px[i*d : (i+1)*d : (i+1)*d]
		scan := true
		if prune {
			u, l, bound := carry(upper[i], lower[i], drift[a], loss[a], half[a])
			if !(u < bound) {
				u = math.Sqrt(sqDist(v, centers[a*d:(a+1)*d]))
			}
			upper[i], lower[i] = u, l
			scan = !(u < bound)
		}
		if scan {
			best, bestD, second := nearestFlat(v, centers)
			upper[i], lower[i] = math.Sqrt(bestD), lowerRoot(second)
			if a != best {
				assign[i], a = best, best
				changed++
			}
		}
		counts[a]++
		s := sums[a*d : (a+1)*d]
		for j := range v {
			s[j] += v[j]
		}
	}
	return changed
}

// nearest3 scans the centres for the one nearest a three-band pixel, the
// first in index order on a tie. It returns it, its squared distance and
// the second least one.
func nearest3(v *[3]float64, centers []float64) (best int, bestD, second float64) {
	bestD, second = math.Inf(1), math.Inf(1)
	for c := 0; len(centers) >= 3; c++ {
		if dist := sq3(v, (*[3]float64)(centers)); dist < bestD {
			best, bestD, second = c, dist, bestD
		} else if dist < second {
			second = dist
		}
		centers = centers[3:]
	}
	return best, bestD, second
}

// nearestFlat is nearest3 for pixels of len(v) bands.
func nearestFlat(v, centers []float64) (best int, bestD, second float64) {
	d := len(v)
	bestD, second = math.Inf(1), math.Inf(1)
	for c := 0; len(centers) >= d; c++ {
		if dist := sqDist(v, centers[:d]); dist < bestD {
			best, bestD, second = c, dist, bestD
		} else if dist < second {
			second = dist
		}
		centers = centers[d:]
	}
	return best, bestD, second
}

// carry takes a pixel's bounds u and l across the last recompute, given its
// centre's drift, the loss of its lower bound and its half distance. It
// returns them and the bound the upper one must stay strictly below for the
// pixel to be skipped.
func carry(u, l, drift, loss, half float64) (float64, float64, float64) {
	l = trusted(float64(l*(1-prune)) - loss)
	bound := l
	if half > bound {
		bound = half
	}
	return u + drift, l, bound
}

// recompute moves each centre to the mean of its pixels, summed by the last
// pass, and the centre of an empty cluster to the pixel farthest from its
// own centre.
func (m *kmeans) recompute() {
	d, px, centers := m.d, m.px, m.centers
	copy(m.old, centers)
	for c, count := range m.counts {
		if count == 0 {
			// Re-seed deterministically: pick the globally worst-fitted
			// pixel.
			worst, worstD := 0, -1.0
			for i, a := range m.assign {
				dd := sqDist(px[i*d:(i+1)*d], centers[a*d:(a+1)*d])
				if dd > worstD {
					worst, worstD = i, dd
				}
			}
			copy(centers[c*d:(c+1)*d], px[worst*d:(worst+1)*d])
			continue
		}
		for j := c * d; j < (c+1)*d; j++ {
			centers[j] = m.sums[j] / float64(count)
		}
	}
}

// separate takes the centres' drifts in the last recompute, their pixels'
// losses and the half distances afresh. A NaN distance between centres is
// left out of a half distance: a NaN centre wins no pixel until a
// recompute moves it, and then its drift, like any NaN drift, counts as
// infinite.
func (m *kmeans) separate() {
	d, k, centers, half, drift := m.d, m.k, m.centers, m.half, m.drift
	far, next := 0, 0.0 // the centre that drifted furthest; the furthest drift of the others
	for c := range k {
		drift[c] = math.Sqrt(sqDist(m.old[c*d:(c+1)*d], centers[c*d:(c+1)*d]))
		if math.IsNaN(drift[c]) {
			drift[c] = math.Inf(1)
		}
		if drift[c] > drift[far] {
			far, next = c, drift[far]
		} else if c != far && drift[c] > next {
			next = drift[c]
		}
	}
	for c := range k {
		other := drift[far]
		if c == far {
			other = next
		}
		m.loss[c] = float64(other * (1 + prune))
	}
	for c := range half {
		half[c] = math.Inf(1)
	}
	for c := range k {
		for o := c + 1; o < k; o++ {
			sq := sqDist(centers[c*d:(c+1)*d], centers[o*d:(o+1)*d])
			if sq < half[c] {
				half[c] = sq
			}
			if sq < half[o] {
				half[o] = sq
			}
		}
		half[c] = lowerRoot(half[c]) / 2
	}
}

const (
	// prune is the relative margin by which lower bounds and half distances
	// are made conservative. It must stay far above the rounding of a
	// squared distance and its root; within that, its value changes no
	// classification, only how many pixels are skipped.
	prune = 1e-9
	// minLower is the least lower bound trusted: the squares of shorter
	// distances may be subnormal and lose their relative precision.
	minLower = 0x1p-480
	// maxPruneBands bounds the band count for which (d+2)·2⁻⁵³, the
	// rounding of a squared distance, stays well below prune/2.
	maxPruneBands = 1 << 20
)

// lowerRoot turns a computed squared distance into a lower bound on the
// distance, deflated by the margin.
func lowerRoot(sq float64) float64 {
	return trusted(math.Sqrt(sq) * (1 - prune))
}

// trusted passes a finite lower bound of at least minLower and turns any
// other (tiny, negative, infinite or NaN) into 0, which skips nothing.
func trusted(l float64) float64 {
	if l >= minLower && l < math.Inf(1) {
		return l
	}
	return 0
}

// sqDist is the squared distance between two points of len(a) bands.
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}

// sq3 is sqDist of two three-band points, its terms written out.
func sq3(a, b *[3]float64) float64 {
	t0, t1, t2 := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return float64(t0*t0) + float64(t1*t1) + float64(t2*t2)
}
