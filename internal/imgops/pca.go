package imgops

import (
	"gaea/internal/linalg"
	"gaea/internal/raster"
)

// Principal component analysis — the compound operator of Figure 4. The
// paper decomposes pca() into a dataflow network:
//
//	SET OF image → convert-image-matrix → SET OF matrix
//	             → compute-covariance   → matrix
//	             → get-eigen-vector     → vector(s)
//	             → linear-combination   → SET OF matrix
//	             → convert-matrix-image → SET OF image
//
// PCA here is the fused implementation; the ADT layer also registers each
// stage separately so the network form (exercised by the Figure 4
// experiment) can be compared against this monolith.

// PCAResult carries the principal-component images along with the
// decomposition, so experiments can report explained variance.
type PCAResult struct {
	Components []*raster.Image    // one image per retained component
	Eigen      []linalg.EigenPair // full decomposition, descending
	// ExplainedVariance[i] is Eigen[i].Value / sum of all eigenvalues.
	ExplainedVariance []float64
}

// PCA computes principal components of co-registered bands, retaining
// keep components (keep <= 0 retains all). It eigen-decomposes the
// covariance matrix, per Richards [31].
func PCA(bands []*raster.Image, keep int) (*PCAResult, error) {
	return pca(bands, keep, false)
}

// SPCA is Eastman's standardized PCA [9]: identical pipeline but the
// correlation matrix replaces the covariance matrix, giving each band unit
// weight. The paper's point — that PCA and SPCA produce the "same
// conceptual outcome" distinguishable only by their recorded derivation —
// is exercised by examples/vegchange.
func SPCA(bands []*raster.Image, keep int) (*PCAResult, error) {
	return pca(bands, keep, true)
}

func pca(bands []*raster.Image, keep int, standardized bool) (*PCAResult, error) {
	if err := checkSameShape(bands); err != nil {
		return nil, err
	}
	d := len(bands)
	if keep <= 0 || keep > d {
		keep = d
	}
	m, err := ImagesToMatrix(bands) // d×n
	if err != nil {
		return nil, err
	}
	var sym *linalg.Matrix
	if standardized {
		sym, err = linalg.Correlation(m)
	} else {
		sym, err = linalg.Covariance(m)
	}
	if err != nil {
		return nil, err
	}
	pairs, err := linalg.EigenSym(sym)
	if err != nil {
		return nil, err
	}

	// For SPCA, project standardized bands (zero mean, unit variance);
	// for PCA, project mean-centred bands.
	centered := centerRows(m, standardized)

	var total float64
	for _, p := range pairs {
		total += p.Value
	}
	res := &PCAResult{Eigen: pairs}
	for i := 0; i < keep; i++ {
		proj, err := linalg.LinearCombination(centered, pairs[i].Vector)
		if err != nil {
			return nil, err
		}
		img, err := raster.New(bands[0].Rows(), bands[0].Cols(), raster.PixFloat4)
		if err != nil {
			return nil, err
		}
		if err := img.SetFloat64s(proj); err != nil {
			return nil, err
		}
		res.Components = append(res.Components, img)
		ev := 0.0
		if total != 0 {
			ev = pairs[i].Value / total
		}
		res.ExplainedVariance = append(res.ExplainedVariance, ev)
	}
	return res, nil
}

// centerRows returns a copy of m with each row mean-subtracted, and, when
// standardize is set, divided by its standard deviation (constant rows are
// left at zero).
func centerRows(m *linalg.Matrix, standardize bool) *linalg.Matrix {
	out := m.Clone()
	d, n := out.Rows(), out.Cols()
	data := out.Data()
	for i := 0; i < d; i++ {
		row := data[i*n : (i+1)*n]
		mean := linalg.Mean(row)
		for j := range row {
			row[j] -= mean
		}
		if standardize {
			sd := linalg.StdDev(row)
			if sd > 0 {
				for j := range row {
					row[j] /= sd
				}
			}
		}
	}
	return out
}

// PCANetwork executes PCA as the explicit Figure 4 dataflow, stage by
// stage, using only the registered single-purpose operators. It exists so
// the Figure 4 experiment can verify that the compound-operator network and
// the fused PCA agree, and to measure the network's overhead.
//
//lint:gaea-allow deadcode BenchmarkFig4PCANetwork measures Figure 4's network against the fused PCA
func PCANetwork(bands []*raster.Image, keep int) (*PCAResult, error) {
	if err := checkSameShape(bands); err != nil {
		return nil, err
	}
	d := len(bands)
	if keep <= 0 || keep > d {
		keep = d
	}
	// Stage 1: convert-image-matrix.
	m, err := ImagesToMatrix(bands)
	if err != nil {
		return nil, err
	}
	// Stage 2: compute-covariance.
	cov, err := linalg.Covariance(m)
	if err != nil {
		return nil, err
	}
	// Stage 3: get-eigen-vector.
	pairs, err := linalg.EigenSym(cov)
	if err != nil {
		return nil, err
	}
	// Stage 4: linear-combination per retained component.
	centered := centerRows(m, false)
	projData := make([]float64, keep*m.Cols())
	for i := 0; i < keep; i++ {
		proj, err := linalg.LinearCombination(centered, pairs[i].Vector)
		if err != nil {
			return nil, err
		}
		copy(projData[i*m.Cols():(i+1)*m.Cols()], proj)
	}
	projMatrix, err := linalg.FromData(keep, m.Cols(), projData)
	if err != nil {
		return nil, err
	}
	// Stage 5: convert-matrix-image.
	imgs, err := MatrixToImages(projMatrix, bands[0].Rows(), bands[0].Cols(), raster.PixFloat4)
	if err != nil {
		return nil, err
	}
	var total float64
	for _, p := range pairs {
		total += p.Value
	}
	res := &PCAResult{Components: imgs, Eigen: pairs}
	for i := 0; i < keep; i++ {
		ev := 0.0
		if total != 0 {
			ev = pairs[i].Value / total
		}
		res.ExplainedVariance = append(res.ExplainedVariance, ev)
	}
	return res, nil
}
