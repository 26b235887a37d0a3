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

	centers := seedCenters(px, n, d, k, opts.Seed)
	assign := make([]int, n)
	counts := make([]int, k)
	sums := make([]float64, k*d)

	// Hamerly's bounds (see the exactness contract above).
	upper := make([]float64, n) // distance from a pixel to its centre, or more
	lower := make([]float64, n) // distance from a pixel to any other centre, or less
	half := make([]float64, k)  // half the distance to the nearest other centre, or less
	drift := make([]float64, k) // distance a centre moved in the last recompute
	old := make([]float64, k*d)
	pruned := d < maxPruneBands

	for iter := 0; iter < opts.MaxIter; iter++ {
		changed := 0
		for i := 0; i < n; i++ {
			// Both slices are cut to length and capacity d so that the
			// compiler drops the bounds checks of the distance loops.
			v := px[i*d : (i+1)*d : (i+1)*d]
			if pruned && iter > 0 {
				// Skip the pixel if its bounds prove its centre strictly
				// nearest: first as they stand, then with the upper bound
				// tightened.
				a := assign[i]
				bound := lower[i]
				if half[a] > bound {
					bound = half[a]
				}
				if upper[i] < bound {
					continue
				}
				upper[i] = math.Sqrt(sqDist(v, centers[a*d:(a+1)*d]))
				if upper[i] < bound {
					continue
				}
			}
			best, bestD, second := 0, math.Inf(1), math.Inf(1)
			for c := 0; c < k; c++ {
				w := centers[c*d : (c+1)*d : (c+1)*d]
				var dist float64
				for j := range v {
					t := v[j] - w[j]
					dist += t * t
				}
				if dist < bestD {
					best, bestD, second = c, dist, bestD
				} else if dist < second {
					second = dist
				}
			}
			upper[i], lower[i] = math.Sqrt(bestD), lowerRoot(second)
			if assign[i] != best {
				assign[i] = best
				changed++
			}
		}
		if iter > 0 && changed == 0 {
			break
		}
		copy(old, centers)
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
		if pruned {
			loosen(upper, lower, half, drift, assign, old, centers, d)
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

// seedCenters picks k initial centers k-means++-style with a deterministic
// splitmix64 stream.
func seedCenters(px []float64, n, d, k int, seed uint64) []float64 {
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

// loosen carries the bounds across a centre recompute from old to centers:
// each centre's drift raises the upper bounds of its own pixels, the
// largest drift of the other centres lowers each pixel's lower bound, and
// the half distances are taken afresh. A NaN distance between centres is left out of a half distance: a
// NaN centre wins no pixel until a recompute moves it, and then its drift,
// like any NaN drift, counts as infinite.
func loosen(upper, lower, half, drift []float64, assign []int, old, centers []float64, d int) {
	k := len(half)
	far, next := 0, 0.0 // the centre that drifted furthest; the furthest drift of the others
	for c := 0; c < k; c++ {
		drift[c] = math.Sqrt(sqDist(old[c*d:(c+1)*d], centers[c*d:(c+1)*d]))
		if math.IsNaN(drift[c]) {
			drift[c] = math.Inf(1)
		}
		if drift[c] > drift[far] {
			far, next = c, drift[far]
		} else if c != far && drift[c] > next {
			next = drift[c]
		}
	}
	for i, a := range assign {
		upper[i] += drift[a]
		other := drift[far]
		if a == far {
			other = next
		}
		lower[i] = trusted(lower[i]*(1-prune) - other*(1+prune))
	}
	for c := range half {
		half[c] = math.Inf(1)
	}
	for c := 0; c < k; c++ {
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

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// WithinClusterSS returns the total within-cluster sum of squared distances
// of a classification against its source bands — the objective k-means
// minimises. Tests use it to verify classification quality invariants.
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
