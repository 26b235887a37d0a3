package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(0, 3); err == nil {
		t.Error("zero rows must fail")
	}
	if _, err := NewMatrix(3, -1); err == nil {
		t.Error("negative cols must fail")
	}
	m := MustMatrix(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Error("shape accessors wrong")
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != 2 {
		t.Error("FromRows layout wrong")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows must fail")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("empty input must fail")
	}
}

func TestFromData(t *testing.T) {
	m, err := FromData(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 1) != 4 {
		t.Error("FromData layout wrong")
	}
	if _, err := FromData(2, 2, []float64{1}); err == nil {
		t.Error("length mismatch must fail")
	}
}

func TestRowColT(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if r := m.Row(1); r[0] != 4 || r[2] != 6 {
		t.Errorf("Row = %v", r)
	}
	if c := m.Col(2); c[0] != 3 || c[1] != 6 {
		t.Errorf("Col = %v", c)
	}
	// Mutating a returned row must not alias the matrix.
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) == 99 {
		t.Error("Row aliases matrix storage")
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	v, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Errorf("MulVec = %v", v)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("length mismatch must fail")
	}
}

func TestVectorHelpers(t *testing.T) {
	if n := Norm([]float64{3, 4}); n != 5 {
		t.Errorf("Norm = %g", n)
	}
	v := Scale([]float64{1, 2}, 3)
	if v[1] != 6 {
		t.Errorf("Scale = %v", v)
	}
	if m := Mean([]float64{2, 4, 6}); m != 4 {
		t.Errorf("Mean = %g", m)
	}
	if Mean(nil) != 0 {
		t.Error("Mean of empty is 0")
	}
	if s := StdDev([]float64{2, 4}); s != 1 {
		t.Errorf("StdDev = %g", s)
	}
}

func TestCovarianceKnownValues(t *testing.T) {
	// Two perfectly correlated variables.
	samples, _ := FromRows([][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8},
	})
	cov, err := Covariance(samples)
	if err != nil {
		t.Fatal(err)
	}
	// var(x) = 1.25, var(y) = 5, cov = 2.5 (population convention).
	if math.Abs(cov.At(0, 0)-1.25) > 1e-12 {
		t.Errorf("var(x) = %g", cov.At(0, 0))
	}
	if math.Abs(cov.At(1, 1)-5) > 1e-12 {
		t.Errorf("var(y) = %g", cov.At(1, 1))
	}
	if math.Abs(cov.At(0, 1)-2.5) > 1e-12 || cov.At(0, 1) != cov.At(1, 0) {
		t.Errorf("cov = %g / %g", cov.At(0, 1), cov.At(1, 0))
	}
}

func TestCorrelation(t *testing.T) {
	samples, _ := FromRows([][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8}, // perfectly correlated with row 0
		{5, 5, 5, 5}, // constant
		{4, 3, 2, 1}, // perfectly anti-correlated with row 0
	})
	corr, err := Correlation(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(corr.At(0, 1)-1) > 1e-12 {
		t.Errorf("corr(0,1) = %g, want 1", corr.At(0, 1))
	}
	if math.Abs(corr.At(0, 3)+1) > 1e-12 {
		t.Errorf("corr(0,3) = %g, want -1", corr.At(0, 3))
	}
	if corr.At(0, 2) != 0 || corr.At(2, 2) != 1 {
		t.Errorf("constant-variable handling wrong: %g, %g", corr.At(0, 2), corr.At(2, 2))
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a, _ := FromRows([][]float64{{3, 0}, {0, 1}})
	pairs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pairs[0].Value-3) > 1e-10 || math.Abs(pairs[1].Value-1) > 1e-10 {
		t.Errorf("eigenvalues = %g, %g", pairs[0].Value, pairs[1].Value)
	}
	// Sorted descending.
	if pairs[0].Value < pairs[1].Value {
		t.Error("pairs not sorted descending")
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/√2, (1,-1)/√2.
	a, _ := FromRows([][]float64{{2, 1}, {1, 2}})
	pairs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pairs[0].Value-3) > 1e-10 {
		t.Errorf("λ1 = %g", pairs[0].Value)
	}
	v := pairs[0].Vector
	if math.Abs(math.Abs(v[0])-1/math.Sqrt2) > 1e-10 || math.Abs(v[0]-v[1]) > 1e-10 {
		t.Errorf("v1 = %v", v)
	}
}

func TestEigenSymValidation(t *testing.T) {
	if _, err := EigenSym(MustMatrix(2, 3)); err == nil {
		t.Error("non-square must fail")
	}
	asym, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := EigenSym(asym); err == nil {
		t.Error("asymmetric must fail")
	}
}

// TestEigenSymProperty checks A·v = λ·v and orthonormality on random
// symmetric matrices.
func TestEigenSymProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		a := MustMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := r.NormFloat64() * 10
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		pairs, err := EigenSym(a)
		if err != nil {
			return false
		}
		for _, p := range pairs {
			av, err := a.MulVec(p.Vector)
			if err != nil {
				return false
			}
			for k := range av {
				if math.Abs(av[k]-p.Value*p.Vector[k]) > 1e-7 {
					return false
				}
			}
			if math.Abs(Norm(p.Vector)-1) > 1e-9 {
				return false
			}
		}
		// Eigenvalue sum equals trace.
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		for _, p := range pairs {
			sum += p.Value
		}
		return math.Abs(trace-sum) < 1e-7
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLinearCombination(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v, err := LinearCombination(m, []float64{2, -1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, -1, 0}
	for i := range want {
		if v[i] != want[i] {
			t.Errorf("LinearCombination = %v", v)
			break
		}
	}
	if _, err := LinearCombination(m, []float64{1}); err == nil {
		t.Error("coefficient count mismatch must fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Error("clone aliases original")
	}
}

func TestEqualish(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	b, _ := FromRows([][]float64{{1.0000001, 2}})
	if !a.Equalish(b, 1e-3) {
		t.Error("should be equal within tolerance")
	}
	if a.Equalish(b, 1e-9) {
		t.Error("should differ at tight tolerance")
	}
	c := MustMatrix(2, 1)
	if a.Equalish(c, 1) {
		t.Error("shape mismatch is never equal")
	}
}

// FromRows builds a matrix from row slices, which must be non-empty and of
// equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("linalg: FromRows needs non-empty input")
	}
	m, err := NewMatrix(len(rows), len(rows[0]))
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrShape, i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:], r)
	}
	return m, nil
}

// MulVec returns m×v for a column vector v of length Cols.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if len(v) != m.cols {
		return nil, fmt.Errorf("%w: vector length %d for %dx%d", ErrShape, len(v), m.rows, m.cols)
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		row := m.data[i*m.cols:]
		for j := 0; j < m.cols; j++ {
			s += float64(row[j] * v[j])
		}
		out[i] = s
	}
	return out, nil
}
