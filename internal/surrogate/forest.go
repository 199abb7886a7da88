package surrogate

import (
	"math"
	"math/rand"
)

// ForestConfig controls Random Forest / Extra Trees ensembles.
type ForestConfig struct {
	NEstimators    int
	MaxDepth       int
	MinSamplesLeaf int
}

// DefaultForestConfig mirrors skopt's forest defaults (100 estimators,
// unbounded depth).
func DefaultForestConfig() ForestConfig {
	return ForestConfig{NEstimators: 100, MinSamplesLeaf: 1}
}

// Forest is an ensemble of regression trees. Predictive uncertainty is the
// across-tree standard deviation, which is how skopt obtains return_std for
// its 'ET' and 'RF' base estimators.
type Forest struct {
	name  string
	trees []*Tree
	// seedSrc/seedRng replay the construction-time tree seeding on Reseed,
	// so a cached forest can be re-fit with fresh streams without
	// reallocating 100 math/rand sources per optimization cycle.
	seedSrc rand.Source
	seedRng *rand.Rand
}

// NewRandomForest builds a Breiman Random Forest: bootstrap resampling with
// exhaustive CART splits.
func NewRandomForest(cfg ForestConfig, r *rand.Rand) *Forest {
	return newForest("RF", cfg, r, false, true)
}

// NewExtraTrees builds an Extremely Randomized Trees ensemble (the paper's
// base_estimator='ET'): full training set per tree, random split thresholds.
func NewExtraTrees(cfg ForestConfig, r *rand.Rand) *Forest {
	return newForest("ET", cfg, r, true, false)
}

func newForest(name string, cfg ForestConfig, r *rand.Rand, randomThresholds, bootstrap bool) *Forest {
	if r == nil {
		//simlint:allow rngseed deterministic fallback for a nil rng; the pipeline always passes a derived stream
		r = rand.New(rand.NewSource(1))
	}
	if cfg.NEstimators <= 0 {
		cfg.NEstimators = 100
	}
	f := &Forest{name: name}
	for i := 0; i < cfg.NEstimators; i++ {
		tc := TreeConfig{
			MaxDepth:         cfg.MaxDepth,
			MinSamplesLeaf:   cfg.MinSamplesLeaf,
			RandomThresholds: randomThresholds,
			Bootstrap:        bootstrap,
		}
		src := rand.NewSource(r.Int63())
		t := NewTree(tc, rand.New(src))
		t.src = src
		f.trees = append(f.trees, t)
	}
	return f
}

// Reseed implements Reseeder: it re-seeds every tree's RNG source exactly as
// newForest would with a fresh rand.New(rand.NewSource(seed)), so a
// subsequent Fit is bit-identical to one on a newly constructed forest —
// while node arrays, walk mirrors, and sources stay allocated.
func (f *Forest) Reseed(seed int64) {
	if f.seedSrc == nil {
		f.seedSrc = rand.NewSource(seed)
		f.seedRng = rand.New(f.seedSrc)
	} else {
		f.seedSrc.Seed(seed)
	}
	for _, t := range f.trees {
		t.src.Seed(f.seedRng.Int63())
	}
}

// Name implements Model.
func (f *Forest) Name() string { return f.name }

// Fit implements Model. Trees train concurrently on the package worker
// pool; results are bit-identical to sequential training because every tree
// draws only from its own RNG, seeded at construction time. Each worker
// shard carries one fit scratch through all of its trees, so buffer
// allocation is per worker, not per tree.
func (f *Forest) Fit(X [][]float64, y []float64) error {
	if _, _, err := validate(X, y); err != nil {
		return err
	}
	errs := make([]error, len(f.trees))
	parallelFor(len(f.trees), 4, func(lo, hi int) {
		var scratch treeScratch
		for i := lo; i < hi; i++ {
			errs[i] = f.trees[i].fit(X, y, &scratch)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fitted reports whether the trees have been trained (by Fit or
// Unmarshal); an unfitted forest predicts 0.
func (f *Forest) fitted() bool {
	return len(f.trees) > 0 && len(f.trees[0].walk) > 0
}

// Predict implements Model.
func (f *Forest) Predict(x []float64) float64 {
	if !f.fitted() {
		return 0
	}
	var s float64
	for _, t := range f.trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.trees))
}

// PredictWithStd implements Model: mean and standard deviation across trees.
func (f *Forest) PredictWithStd(x []float64) (float64, float64) {
	if !f.fitted() {
		return 0, 0
	}
	n := float64(len(f.trees))
	var sum, sumSq float64
	for _, t := range f.trees {
		p := t.Predict(x)
		sum += p
		sumSq += p * p
	}
	m := sum / n
	v := sumSq/n - m*m
	if v < 0 {
		v = 0
	}
	return m, math.Sqrt(v)
}

// PredictBatch implements Model: rows are scored concurrently in
// shards, each row exactly as PredictWithStd would score it. Within a shard
// the loop runs tree-outer, row-inner: one tree's node array stays
// cache-resident across the whole candidate pool instead of all trees being
// cycled through for every row. Per-row accumulation order over trees is
// unchanged, so results are bit-identical to PredictWithStd.
func (f *Forest) PredictBatch(X [][]float64) ([]float64, []float64) {
	means := make([]float64, len(X))
	stds := make([]float64, len(X))
	if !f.fitted() {
		return means, stds
	}
	n := float64(len(f.trees))
	parallelFor(len(X), 16, func(lo, hi int) {
		// Tree pairs walk each row together: the two descents are
		// independent dependency chains, so the second hides most of the
		// first's load-compare-select latency. Accumulation stays in tree
		// order (t, then t+1), bit-identical to the sequential loop.
		k := 0
		for ; k+1 < len(f.trees); k += 2 {
			w1, w2 := f.trees[k].walk, f.trees[k+1].walk
			for i := lo; i < hi; i++ {
				x := X[i]
				j1, j2 := 0, 0
				for {
					n1, n2 := w1[j1], w2[j2]
					if n1.feat < 0 && n2.feat < 0 {
						break
					}
					if n1.feat >= 0 {
						if x[n1.feat] <= n1.thr {
							j1++
						} else {
							j1 = int(n1.right)
						}
					}
					if n2.feat >= 0 {
						if x[n2.feat] <= n2.thr {
							j2++
						} else {
							j2 = int(n2.right)
						}
					}
				}
				v1 := w1[j1].thr
				v2 := w2[j2].thr
				means[i] += v1
				stds[i] += v1 * v1
				means[i] += v2
				stds[i] += v2 * v2
			}
		}
		for ; k < len(f.trees); k++ {
			w := f.trees[k].walk
			for i := lo; i < hi; i++ {
				v := walkPredict(w, X[i])
				means[i] += v
				stds[i] += v * v
			}
		}
		for i := lo; i < hi; i++ {
			m := means[i] / n
			v := stds[i]/n - m*m
			if v < 0 {
				v = 0
			}
			means[i] = m
			stds[i] = math.Sqrt(v)
		}
	})
	return means, stds
}
