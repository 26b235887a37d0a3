package imgops

import (
	"fmt"
	"math"
	"math/bits"

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
// Seeding finds the first pass's answer. k-means++ computes every pixel's
// squared distance to each centre it chooses but the last, so it also keeps
// per pixel the nearest of them, the first in index order on a tie, and the
// second least distance, passing NaNs over as the scan does. The first pass
// then weighs only the last centre, and sums every centre's pixels in
// pixel order.
//
// A pass in three loops. Every later pass first carries each pixel's
// bounds across the last recompute, with no branch that depends on the
// data: the test's outcome only decides whether the pixel's index is
// appended to a work list. A second loop tightens the listed pixels' upper
// bounds to their distance to their centre and keeps those still
// unproved; a third scans the survivors over all k centres, which also
// takes their bounds afresh. Between passes the centres are recomputed
// from the sums, an empty cluster re-seeded, and the centres' drifts and
// half distances taken.
//
// Sums that move with the pixels. A pixel that changes centre takes its
// values out of its old centre's sums and into its new one's. That is
// plain Lloyd's pixel-order sum only when every sum is exact, which one
// check per band at the start proves (exactSums): the values are finite
// and, each a multiple of 2^lo below 2^hi in magnitude, bits.Len(n) + hi −
// lo ≤ 53, so any sum of a subset of them, in any order of adds and
// subtracts, is the exact sum and the same bits. Every scene the
// repository benchmark classifies passes. Otherwise each pass takes the
// sums afresh, adding the pixels in pixel order.
//
// Two kernels. A three-band composite, the one every land cover here
// classifies, seeds, tightens and scans on [3]float64 pixels and centres
// with the squared distance written out term by term; any other band count
// runs the same loops on flat slices. Both add the same terms in the same
// order, so the choice, made from the band count alone, moves no pixel.
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
// pixel's distance to its centre; every other pixel is scanned.
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
// pixels and centres) counts as 0 (a carried one is kept as it falls, even
// below 0, and the test counts it as 0 while it is under minLower); a NaN
// drift counts as infinite; and an infinite or NaN upper bound never
// passes the strict test.

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
		if iter == 0 {
			m.first()
		} else if m.pass(pruned) == 0 {
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
	// exact is set when every sum of a subset of any band's pixels is exact
	// in float64 (exactSums), so the sums need not be taken again in pixel
	// order on every pass: they move with the pixels that change centre.
	exact bool

	px []float64 // the pixels, d bands each, pixel-major
	// Per centre, d bands each: where it is, where it was before the last
	// recompute, and the sums of its pixels.
	centers, old, sums []float64
	// Per pixel, Hamerly's bounds: its distance to its centre or more, to
	// any other centre or less. While seeding they hold the least squared
	// distance to the centres chosen so far and the second least.
	upper, lower []float64
	// Per centre: half its distance to the nearest other centre or less,
	// how far the last recompute moved it, and what the lower bounds of its
	// pixels lose in the next pass: the furthest move of the other centres,
	// with the margin.
	half, drift, loss []float64
	assign, counts    []int // per pixel its centre, per centre its pixel count
	work              []int // the pixels a pass has yet to settle, in pixel order
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
	ints := make([]int, 2*n+k)
	m := kmeans{d: d, k: k, three: three, exact: true,
		px: cut(n * d), upper: cut(n), lower: cut(n),
		centers: cut(k * d), old: cut(k * d), sums: cut(k * d),
		half: cut(k), drift: cut(k), loss: cut(k),
		assign: ints[:n:n], work: ints[n : 2*n : 2*n], counts: ints[2*n:]}
	// Each band is widened into upper, which seeding overwrites.
	for b, im := range bands {
		im.ReadFloat64s(m.upper)
		for i, v := range m.upper {
			m.px[i*d+b] = v
		}
		m.exact = m.exact && exactSums(m.upper)
	}
	return m
}

// exactSums reports whether every sum of a subset of vals is exact in
// float64, in whatever order its terms are added and taken away: when all
// are finite and, with every one a multiple of 2^lo and under 2^hi in
// magnitude, any such sum is a multiple of 2^lo under n·2^hi, which 53 bits
// hold when bits.Len(n) + hi - lo ≤ 53 and which does not overflow when
// bits.Len(n) + hi ≤ 1024.
func exactSums(vals []float64) bool {
	lo, hi := math.MaxInt, math.MinInt
	for _, v := range vals {
		if v == 0 {
			continue
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
		// v is ±mant·2^exp with an integer mant.
		b := math.Float64bits(v)
		exp, mant := int(b>>52&0x7ff), b&(1<<52-1)
		if exp == 0 {
			exp = 1 // subnormal: the least normal exponent, no implicit bit
		} else {
			mant |= 1 << 52
		}
		exp -= 1075
		lo = min(lo, exp+bits.TrailingZeros64(mant))
		hi = max(hi, exp+bits.Len64(mant))
	}
	width := bits.Len(uint(len(vals))) + hi
	return lo == math.MaxInt || width-lo <= 53 && width <= 1024
}

// seed picks the k initial centres k-means++-style with a deterministic
// splitmix64 stream. Weighing each chosen centre against every pixel, it
// keeps per pixel what the first pass needs (weigh), so that pass weighs
// only the last centre.
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
	for i := range m.upper {
		m.upper[i], m.lower[i] = math.Inf(1), math.Inf(1)
	}
	idx := int(next() * float64(n))
	if idx >= n {
		idx = n - 1
	}
	poisoned := false
	for c := 0; ; c++ {
		copy(m.centers[c*d:(c+1)*d], m.px[idx*d:(idx+1)*d])
		if c == k-1 {
			return
		}
		total := m.weigh(c)
		if c == 0 {
			// k-means++ weighs a pixel by its least squared distance to
			// the chosen centres, and one that is NaN to the first centre
			// stays NaN, so the total does too. weigh passes NaNs over,
			// as nearest3 does, so such a pixel is looked for here; exact
			// sums need finite pixels, which are never NaN apart.
			poisoned = !m.exact && m.nanTo(0)
		}
		idx = 0
		if total > 0 && !poisoned {
			target := next() * total
			var acc float64
			for i, dd := range m.upper {
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

// weigh takes centre c into each pixel's nearest centre so far (assign),
// its squared distance (upper) and the second least one (lower), as
// nearest3 would, and returns the sum of upper, added in pixel order: the
// k-means++ total unless a pixel is NaN to the first centre.
func (m *kmeans) weigh(c int) (total float64) {
	upper, lower, assign := m.upper, m.lower[:len(m.upper)], m.assign[:len(m.upper)]
	if m.three {
		w := (*[3]float64)(m.centers[3*c:])
		for i := range upper {
			if dd := sq3((*[3]float64)(m.px[3*i:]), w); dd < upper[i] {
				assign[i], upper[i], lower[i] = c, dd, upper[i]
			} else if dd < lower[i] {
				lower[i] = dd
			}
			total += upper[i]
		}
		return total
	}
	d := m.d
	w := m.centers[c*d : (c+1)*d]
	for i := range upper {
		if dd := sqDist(m.px[i*d:(i+1)*d], w); dd < upper[i] {
			assign[i], upper[i], lower[i] = c, dd, upper[i]
		} else if dd < lower[i] {
			lower[i] = dd
		}
		total += upper[i]
	}
	return total
}

// nanTo reports whether any pixel's squared distance to centre c is NaN.
func (m *kmeans) nanTo(c int) bool {
	d := m.d
	w := m.centers[c*d : (c+1)*d]
	for i := range m.assign {
		if math.IsNaN(sqDist(m.px[i*d:(i+1)*d], w)) {
			return true
		}
	}
	return false
}

// first is the first pass: seeding has weighed every centre but the last,
// so it weighs that one, takes each pixel's bounds from its two least
// squared distances, and sums every centre's pixels.
func (m *kmeans) first() {
	m.weigh(m.k - 1)
	for i, sq := range m.upper {
		m.upper[i], m.lower[i] = math.Sqrt(sq), lowerRoot(m.lower[i])
	}
	m.sum()
}

// sum takes each centre's pixel count and sums afresh, adding its pixels
// in pixel order.
func (m *kmeans) sum() {
	d, sums, counts := m.d, m.sums, m.counts
	clear(sums)
	clear(counts)
	for i, a := range m.assign {
		counts[a]++
		s := sums[a*d : (a+1)*d]
		for j, v := range m.px[i*d : (i+1)*d] {
			s[j] += v
		}
	}
}

// pass assigns every pixel to its nearest centre, considering only the
// pixels whose bounds, carried across the last recompute, do not prove
// their centre nearest if prune is set, and returns how many pixels
// changed centre. The sums follow the pixels that move when they are
// exact, and are taken afresh otherwise.
func (m *kmeans) pass(prune bool) (changed int) {
	work := m.work
	if prune {
		work = m.tighten(m.carry())
	} else {
		for i := range work {
			work[i] = i
		}
	}
	if m.three {
		changed = m.scan3(work)
	} else {
		changed = m.scanFlat(work)
	}
	if !m.exact {
		m.sum()
	}
	return changed
}

// carry takes every pixel's bounds across the last recompute and returns
// the pixels whose bounds do not prove their centre nearest. Whether a
// pixel is kept decides only how far the list grows, not which code runs.
func (m *kmeans) carry() []int {
	assign, drift, loss, half := m.assign, m.drift, m.loss, m.half
	upper, lower, work := m.upper[:len(assign)], m.lower[:len(assign)], m.work[:len(assign)]
	kept := 0
	for i, a := range assign {
		u, l := upper[i]+drift[a], float64(lower[i]*(1-prune))-loss[a]
		upper[i], lower[i] = u, l
		work[kept] = i
		kept += unproved(u, l, half[a])
	}
	return work[:kept]
}

// tighten sets the upper bound of each pixel of work to its distance to
// its centre and returns, in place, the pixels whose bounds still do not
// prove their centre nearest.
func (m *kmeans) tighten(work []int) []int {
	px, centers, assign, half := m.px, m.centers, m.assign, m.half
	upper, lower := m.upper[:len(assign)], m.lower[:len(assign)]
	kept := 0
	for _, i := range work {
		a := assign[i]
		var sq float64
		if m.three {
			sq = sq3((*[3]float64)(px[3*i:]), (*[3]float64)(centers[3*a:]))
		} else {
			d := m.d
			sq = sqDist(px[i*d:(i+1)*d], centers[a*d:(a+1)*d])
		}
		u := math.Sqrt(sq)
		upper[i] = u
		work[kept] = i
		kept += unproved(u, lower[i], half[a])
	}
	return work[:kept]
}

// scan3 assigns each three-band pixel of work to its nearest centre,
// scanning all k, takes its bounds afresh, and returns how many pixels
// changed centre.
func (m *kmeans) scan3(work []int) (changed int) {
	px, centers, assign := m.px, m.centers, m.assign
	upper, lower := m.upper[:len(assign)], m.lower[:len(assign)]
	for _, i := range work {
		best, bestD, second := nearest3((*[3]float64)(px[3*i:]), centers)
		upper[i], lower[i] = math.Sqrt(bestD), lowerRoot(second)
		if a := assign[i]; a != best {
			m.move(i, a, best)
			changed++
		}
	}
	return changed
}

// scanFlat is scan3 on pixels and centres of any band count.
func (m *kmeans) scanFlat(work []int) (changed int) {
	d, px, centers, assign := m.d, m.px, m.centers, m.assign
	upper, lower := m.upper[:len(assign)], m.lower[:len(assign)]
	for _, i := range work {
		best, bestD, second := nearestFlat(px[i*d:(i+1)*d:(i+1)*d], centers)
		upper[i], lower[i] = math.Sqrt(bestD), lowerRoot(second)
		if a := assign[i]; a != best {
			m.move(i, a, best)
			changed++
		}
	}
	return changed
}

// move hands pixel i from centre a to centre b, with its count and its
// share of the sums.
func (m *kmeans) move(i, a, b int) {
	d := m.d
	m.assign[i] = b
	m.counts[a]--
	m.counts[b]++
	from, to := m.sums[a*d:(a+1)*d], m.sums[b*d:(b+1)*d]
	for j, v := range m.px[i*d : (i+1)*d] {
		from[j] -= v
		to[j] += v
	}
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

// unproved is 0 when the upper bound u of a pixel lies strictly below its
// lower bound l or its centre's half distance, which proves its centre
// nearest, and 1 otherwise. A lower bound under minLower counts as 0.
func unproved(u, l, half float64) int {
	n := 1
	if max(u, minLower) < l {
		n = 0
	}
	if u < half {
		n = 0
	}
	return n
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
// distance, deflated by the margin: a finite one of at least minLower, and
// 0, which skips nothing, for any other (tiny, infinite or NaN).
func lowerRoot(sq float64) float64 {
	if l := math.Sqrt(sq) * (1 - prune); l >= minLower && l < math.Inf(1) {
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
