package surrogate

import (
	"fmt"
	"math"

	"e2clab/internal/linalg"
)

// matern52 is the Matérn ν = 5/2 covariance k(a, b) for length scale ls,
// skopt's GP default kernel. The explicit float64 conversion rounds the
// product before a caller's add or subtract, so an inlined call can never be
// fused into one multiply-add and the GP outputs stay bit-stable.
func matern52(a, b []float64, ls float64) float64 {
	d := math.Sqrt(sqDist(a, b)) / ls
	s := math.Sqrt(5) * d
	return float64((1 + s + 5*d*d/3) * math.Exp(-s))
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// GPConfig controls the Gaussian-process (Kriging) surrogate.
type GPConfig struct {
	// Noise is the diagonal jitter / observation noise variance (alpha).
	Noise float64
}

// DefaultGPConfig returns the default observation-noise jitter, 1e-6.
func DefaultGPConfig() GPConfig {
	return GPConfig{Noise: 1e-6}
}

// gpLengthScales is the log-spaced grid Fit searches for the length scale
// that maximizes the log marginal likelihood.
var gpLengthScales = [...]float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2}

// GP is Gaussian-process regression ("Kriging models for global
// approximation") with a Matérn 5/2 kernel. Targets are internally
// standardized; the length scale is selected by grid-search maximum marginal
// likelihood, which is robust and derivative-free (stdlib-only constraint).
type GP struct {
	cfg   GPConfig
	X     [][]float64
	alpha []float64 // K⁻¹ (y - μ)
	chol  *linalg.Cholesky
	yMean float64
	yStd  float64
	ls    float64
	ok    bool
}

// NewGP returns an untrained GP.
func NewGP(cfg GPConfig) *GP {
	if cfg.Noise <= 0 {
		cfg.Noise = 1e-6
	}
	return &GP{cfg: cfg}
}

// Name implements Model.
func (g *GP) Name() string { return "GP" }

// Fit implements Model.
func (g *GP) Fit(X [][]float64, y []float64) error {
	n, _, err := validate(X, y)
	if err != nil {
		return err
	}
	g.X = X
	g.yMean = mean(y)
	var varSum float64
	for _, v := range y {
		d := v - g.yMean
		varSum += d * d
	}
	g.yStd = math.Sqrt(varSum / float64(n))
	if g.yStd < 1e-12 {
		g.yStd = 1 // constant targets: predict the mean with unit scaling
	}
	z := make([]float64, n)
	for i, v := range y {
		z[i] = (v - g.yMean) / g.yStd
	}

	bestLL := math.Inf(-1)
	var bestChol *linalg.Cholesky
	var bestAlpha []float64
	for _, ls := range gpLengthScales {
		k := g.gram(X, ls)
		ch, err := linalg.NewCholesky(k)
		if err != nil {
			continue
		}
		a := ch.Solve(z)
		// log marginal likelihood = -0.5 zᵀα - 0.5 log|K| - n/2 log 2π
		ll := -0.5*linalg.Dot(z, a) - 0.5*ch.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi)
		if ll > bestLL {
			bestLL, bestChol, bestAlpha, g.ls = ll, ch, a, ls
		}
	}
	if bestChol == nil {
		return fmt.Errorf("surrogate: GP fit failed for all length scales (n=%d)", n)
	}
	g.chol, g.alpha, g.ok = bestChol, bestAlpha, true
	return nil
}

// gram builds K + noise*I.
func (g *GP) gram(X [][]float64, ls float64) *linalg.Matrix {
	n := len(X)
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := matern52(X[i], X[j], ls)
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		k.Set(i, i, k.At(i, i)+g.cfg.Noise)
	}
	return k
}

// Predict implements Model.
func (g *GP) Predict(x []float64) float64 {
	m, _ := g.PredictWithStd(x)
	return m
}

// PredictWithStd implements Model: standard GP posterior mean and std.
func (g *GP) PredictWithStd(x []float64) (float64, float64) {
	if !g.ok {
		return 0, 0
	}
	n := len(g.X)
	ks := make([]float64, n)
	for i := range g.X {
		ks[i] = matern52(x, g.X[i], g.ls)
	}
	zMean := linalg.Dot(ks, g.alpha)
	v := g.chol.SolveVecL(ks)
	variance := matern52(x, x, g.ls) - linalg.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return g.yMean + g.yStd*zMean, g.yStd * math.Sqrt(variance)
}

// PredictBatch implements Model. Candidates are sharded across the
// worker pool; each shard builds its cross-covariance block and runs one
// multi-RHS forward substitution (Cholesky.SolveLBatch), reusing the factor
// computed at fit time across the whole pool instead of re-solving per
// point. Per candidate the arithmetic order matches PredictWithStd, so the
// outputs are bit-identical.
func (g *GP) PredictBatch(X [][]float64) ([]float64, []float64) {
	m := len(X)
	means := make([]float64, m)
	stds := make([]float64, m)
	if !g.ok || m == 0 {
		return means, stds
	}
	n := len(g.X)
	// Candidates are processed in blocks small enough that the n x block
	// cross-covariance stays cache-resident through the forward
	// substitution; blocks shard across the worker pool.
	const blockCols = 64
	nBlocks := (m + blockCols - 1) / blockCols
	parallelFor(nBlocks, 1, func(bLo, bHi int) {
		for blk := bLo; blk < bHi; blk++ {
			lo := blk * blockCols
			hi := lo + blockCols
			if hi > m {
				hi = m
			}
			cnt := hi - lo
			// ks holds k(x_j, X_train) column-wise: ks[i][j] pairs training
			// row i with candidate lo+j.
			ks := linalg.NewMatrix(n, cnt)
			zm := make([]float64, cnt)
			for i := 0; i < n; i++ {
				ki := ks.Row(i)
				xi := g.X[i]
				ai := g.alpha[i]
				for j := 0; j < cnt; j++ {
					ki[j] = matern52(X[lo+j], xi, g.ls)
					// Posterior mean ksᵀ α, accumulated per candidate in
					// training-row order exactly like linalg.Dot.
					zm[j] += ki[j] * ai
				}
			}
			// Posterior variance: k(x,x) - ||L⁻¹ ks||², one forward
			// substitution for the whole block.
			v := g.chol.SolveLBatch(ks)
			dot := make([]float64, cnt)
			for i := 0; i < n; i++ {
				vi := v.Row(i)
				for j := 0; j < cnt; j++ {
					dot[j] += vi[j] * vi[j]
				}
			}
			for j := 0; j < cnt; j++ {
				means[lo+j] = g.yMean + g.yStd*zm[j]
				x := X[lo+j]
				variance := matern52(x, x, g.ls) - dot[j]
				if variance < 0 {
					variance = 0
				}
				stds[lo+j] = g.yStd * math.Sqrt(variance)
			}
		}
	})
	return means, stds
}
