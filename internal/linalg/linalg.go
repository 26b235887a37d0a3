// Package linalg provides the dense matrix and vector primitives the PCA
// compound operator (Figure 4 of the paper) is built from: matrices,
// covariance computation, a Jacobi eigen-solver, and linear combinations.
// It is the "standard mathematics library" the paper assumes the scientific
// community shares (§1), implemented from scratch on the stdlib.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Errors returned by shape-checked operations.
var (
	ErrShape    = errors.New("linalg: shape mismatch")
	ErrNotSq    = errors.New("linalg: matrix not square")
	ErrConverge = errors.New("linalg: eigen iteration did not converge")
)

// Matrix is a dense row-major matrix of float64s.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("linalg: dimensions must be positive, got %dx%d", rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}, nil
}

// MustMatrix is NewMatrix for statically correct shapes; panics on error.
func MustMatrix(rows, cols int) *Matrix {
	m, err := NewMatrix(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// FromData wraps a row-major float64 buffer of length rows*cols.
func FromData(rows, cols int, data []float64) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("linalg: dimensions must be positive")
	}
	if len(data) != rows*cols {
		return nil, fmt.Errorf("%w: %d values for %dx%d", ErrShape, len(data), rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: data}, nil
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// Data exposes the row-major backing slice.
func (m *Matrix) Data() []float64 { return m.data }

// At returns element (i, j); panics on out-of-range like slice indexing.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Matrix{rows: m.rows, cols: m.cols, data: d}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Equalish reports whether two matrices agree within tol elementwise.
func (m *Matrix) Equalish(o *Matrix, tol float64) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for diagnostics.
func (m *Matrix) String() string {
	return fmt.Sprintf("matrix(%dx%d)", m.rows, m.cols)
}

// Norm returns the Euclidean norm of v.
func Norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// Scale multiplies v by k in place and returns it.
func Scale(v []float64, k float64) []float64 {
	for i := range v {
		v[i] *= k
	}
	return v
}

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation of v.
func StdDev(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(v)))
}

// Covariance computes the d×d covariance matrix of d variables observed n
// times: samples is a d×n matrix whose rows are variables (the paper's
// compute-covariance operator takes a SET OF matrix, one per band). The
// population convention (divide by n) is used, matching remote-sensing
// practice.
func Covariance(samples *Matrix) (*Matrix, error) {
	d, n := samples.rows, samples.cols
	if n < 1 {
		return nil, fmt.Errorf("linalg: covariance needs at least 1 observation")
	}
	means := make([]float64, d)
	for i := 0; i < d; i++ {
		means[i] = Mean(samples.data[i*n : (i+1)*n])
	}
	cov := MustMatrix(d, d)
	for i := 0; i < d; i++ {
		ri := samples.data[i*n : (i+1)*n]
		for j := i; j < d; j++ {
			rj := samples.data[j*n : (j+1)*n]
			var s float64
			for k := 0; k < n; k++ {
				s += float64((ri[k] - means[i]) * (rj[k] - means[j]))
			}
			c := s / float64(n)
			cov.Set(i, j, c)
			cov.Set(j, i, c)
		}
	}
	return cov, nil
}

// Correlation computes the d×d correlation matrix (covariance normalised by
// the standard deviations). Standardized PCA (SPCA, Eastman [9]) eigen-
// decomposes the correlation matrix instead of the covariance matrix;
// constant variables (zero variance) correlate 0 with everything and 1 with
// themselves.
func Correlation(samples *Matrix) (*Matrix, error) {
	cov, err := Covariance(samples)
	if err != nil {
		return nil, err
	}
	d := cov.rows
	std := make([]float64, d)
	for i := 0; i < d; i++ {
		std[i] = math.Sqrt(cov.At(i, i))
	}
	corr := MustMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if i == j {
				corr.Set(i, j, 1)
				continue
			}
			if std[i] == 0 || std[j] == 0 {
				corr.Set(i, j, 0)
				continue
			}
			corr.Set(i, j, cov.At(i, j)/(std[i]*std[j]))
		}
	}
	return corr, nil
}

// EigenPair is one eigenvalue with its unit eigenvector.
type EigenPair struct {
	Value  float64
	Vector []float64
}

// EigenSym computes the full eigen-decomposition of a symmetric matrix
// using the cyclic Jacobi method, returning pairs sorted by descending
// eigenvalue (the paper's get-eigen-vector operator: PCA keeps the leading
// components). The input must be symmetric; asymmetry beyond 1e-9 is
// rejected.
func EigenSym(a *Matrix) ([]EigenPair, error) {
	if a.rows != a.cols {
		return nil, ErrNotSq
	}
	n := a.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > 1e-9 {
				return nil, fmt.Errorf("linalg: matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Work on a copy; v accumulates the rotations.
	w := a.Clone()
	v := MustMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += float64(w.At(i, j) * w.At(i, j))
			}
		}
		if off < 1e-22 {
			return collectEigen(w, v), nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				// Apply the rotation to rows/cols p and q.
				for k := 0; k < n; k++ {
					akp, akq := w.At(k, p), w.At(k, q)
					w.Set(k, p, float64(c*akp)-float64(s*akq))
					w.Set(k, q, float64(s*akp)+float64(c*akq))
				}
				for k := 0; k < n; k++ {
					apk, aqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, float64(c*apk)-float64(s*aqk))
					w.Set(q, k, float64(s*apk)+float64(c*aqk))
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, float64(c*vkp)-float64(s*vkq))
					v.Set(k, q, float64(s*vkp)+float64(c*vkq))
				}
			}
		}
	}
	return nil, ErrConverge
}

func collectEigen(w, v *Matrix) []EigenPair {
	n := w.rows
	pairs := make([]EigenPair, n)
	for i := 0; i < n; i++ {
		vec := v.Col(i)
		// Normalise and fix a sign convention (largest-magnitude component
		// positive) so decompositions are comparable across runs.
		if nrm := Norm(vec); nrm > 0 {
			Scale(vec, 1/nrm)
		}
		maxIdx := 0
		for k, x := range vec {
			if math.Abs(x) > math.Abs(vec[maxIdx]) {
				maxIdx = k
			}
		}
		if vec[maxIdx] < 0 {
			Scale(vec, -1)
		}
		pairs[i] = EigenPair{Value: w.At(i, i), Vector: vec}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Value > pairs[j].Value })
	return pairs
}

// LinearCombination computes sum_i coeffs[i]*rows_i over the rows of m,
// returning a vector of length Cols (the paper's linear-combination
// operator projects band pixels onto an eigenvector).
func LinearCombination(m *Matrix, coeffs []float64) ([]float64, error) {
	if len(coeffs) != m.rows {
		return nil, fmt.Errorf("%w: %d coefficients for %d rows", ErrShape, len(coeffs), m.rows)
	}
	out := make([]float64, m.cols)
	for i, c := range coeffs {
		if c == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, x := range row {
			out[j] += float64(c * x)
		}
	}
	return out, nil
}
