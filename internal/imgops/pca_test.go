package imgops

import (
	"math"
	"testing"

	"gaea/internal/raster"
)

func sceneBands(t *testing.T, n int) []*raster.Image {
	t.Helper()
	l := raster.NewLandscape(9)
	spec := raster.SceneSpec{OriginX: 0, OriginY: 0, CellSize: 30, Rows: 16, Cols: 16, DayOfYear: 200, Year: 1988, Noise: 0.005}
	all := []raster.Band{raster.BandBlue, raster.BandGreen, raster.BandRed, raster.BandNIR, raster.BandSWIR, raster.BandThermal}
	bands, err := l.GenerateScene(spec, all[:n])
	if err != nil {
		t.Fatal(err)
	}
	return bands
}

func TestPCABasics(t *testing.T) {
	bands := sceneBands(t, 4)
	res, err := PCA(bands, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Components) != 2 {
		t.Fatalf("components = %d", len(res.Components))
	}
	if len(res.Eigen) != 4 {
		t.Fatalf("eigenpairs = %d", len(res.Eigen))
	}
	// Eigenvalues descending, explained variance sums <= 1 and descending.
	for i := 1; i < len(res.Eigen); i++ {
		if res.Eigen[i].Value > res.Eigen[i-1].Value+1e-12 {
			t.Error("eigenvalues not descending")
		}
	}
	var sum float64
	for _, ev := range res.ExplainedVariance {
		sum += ev
	}
	if sum > 1+1e-9 {
		t.Errorf("explained variance sum %g > 1", sum)
	}
	if res.ExplainedVariance[0] < res.ExplainedVariance[1] {
		t.Error("explained variance not descending")
	}
	// keep <= 0 retains all.
	all, err := PCA(bands, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Components) != 4 {
		t.Errorf("keep=0 should retain all, got %d", len(all.Components))
	}
}

func TestPCAFirstComponentCapturesVariance(t *testing.T) {
	// Construct two bands that are nearly identical: PC1 should explain
	// almost all variance.
	a := raster.MustNew(4, 4, raster.PixFloat8)
	b := raster.MustNew(4, 4, raster.PixFloat8)
	for i := 0; i < 16; i++ {
		v := float64(i)
		a.Set(i/4, i%4, v)
		b.Set(i/4, i%4, v*1.01)
	}
	res, err := PCA([]*raster.Image{a, b}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExplainedVariance[0] < 0.99 {
		t.Errorf("PC1 explains %g, want > 0.99", res.ExplainedVariance[0])
	}
}

func TestPCAComponentsAreDecorrelated(t *testing.T) {
	bands := sceneBands(t, 3)
	res, err := PCA(bands, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Pairwise correlation between components should be ~0.
	m, err := ImagesToMatrix(res.Components)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			ri, rj := m.Row(i), m.Row(j)
			corr := pearson(ri, rj)
			if math.Abs(corr) > 0.05 {
				t.Errorf("components %d,%d correlate %g", i, j, corr)
			}
		}
	}
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

func TestPCANetworkMatchesFusedPCA(t *testing.T) {
	// The Figure 4 dataflow network must agree with the monolithic PCA.
	bands := sceneBands(t, 4)
	fused, err := PCA(bands, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := PCANetwork(bands, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Components) != len(net.Components) {
		t.Fatalf("component counts differ: %d vs %d", len(fused.Components), len(net.Components))
	}
	for i := range fused.Components {
		d, err := fused.Components[i].MaxAbsDiff(net.Components[i])
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-4 {
			t.Errorf("component %d differs by %g between network and fused PCA", i, d)
		}
	}
}

func TestSPCADiffersFromPCAButSameConcept(t *testing.T) {
	// Scale one band enormously: covariance PCA follows the scaled band,
	// correlation-based SPCA is scale-invariant, so the two first
	// components must differ — the paper's "same conceptual outcome via
	// different derivations".
	bands := sceneBands(t, 3)
	scaled, err := ScaleOffset(bands[0], 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := []*raster.Image{scaled, bands[1], bands[2]}

	p, err := PCA(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SPCA(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	// PCA's first eigenvector should be dominated by the scaled band.
	if math.Abs(p.Eigen[0].Vector[0]) < 0.99 {
		t.Errorf("PCA eigvec[0] = %v, expected domination by scaled band", p.Eigen[0].Vector)
	}
	// SPCA's must not be.
	if math.Abs(s.Eigen[0].Vector[0]) > 0.99 {
		t.Errorf("SPCA eigvec[0] = %v, should be scale-invariant", s.Eigen[0].Vector)
	}
}

func TestSPCAEigenvaluesSumToBandCount(t *testing.T) {
	// Correlation matrices have unit diagonal, so eigenvalues sum to d.
	bands := sceneBands(t, 4)
	res, err := SPCA(bands, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range res.Eigen {
		sum += p.Value
	}
	if math.Abs(sum-4) > 1e-6 {
		t.Errorf("SPCA eigenvalue sum = %g, want 4", sum)
	}
}

func TestPCAValidation(t *testing.T) {
	if _, err := PCA(nil, 1); err == nil {
		t.Error("no bands must fail")
	}
	a := raster.MustNew(2, 2, raster.PixFloat8)
	b := raster.MustNew(3, 3, raster.PixFloat8)
	if _, err := PCA([]*raster.Image{a, b}, 1); err == nil {
		t.Error("shape mismatch must fail")
	}
	if _, err := PCANetwork(nil, 1); err == nil {
		t.Error("network with no bands must fail")
	}
	if _, err := SPCA(nil, 1); err == nil {
		t.Error("SPCA with no bands must fail")
	}
}
