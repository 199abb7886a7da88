package surrogate

import (
	"math"
	"math/rand"
)

// GBRTConfig controls gradient-boosted regression trees.
type GBRTConfig struct {
	NEstimators    int
	LearningRate   float64
	MaxDepth       int
	MinSamplesLeaf int
}

// DefaultGBRTConfig mirrors sklearn's GradientBoostingRegressor defaults.
func DefaultGBRTConfig() GBRTConfig {
	return GBRTConfig{NEstimators: 100, LearningRate: 0.1, MaxDepth: 3, MinSamplesLeaf: 1}
}

// GBRT is least-squares gradient boosting (Friedman 2001, the paper's
// "Gradient Boosting Regression Trees" candidate). Predictive std is the
// training-residual standard deviation — a homoscedastic noise estimate,
// since boosted ensembles have no native posterior.
type GBRT struct {
	cfg         GBRTConfig
	rng         *rand.Rand
	src         rand.Source // rng's source once Reseed has taken ownership
	base        float64
	stages      []*Tree
	stagePool   []*Tree // recycled stage trees (nodes, walk, RNG sources)
	residualStd float64
	scratch     treeScratch // one fit scratch shared by all boosting stages
	pred, resid []float64   // per-row fit buffers, reused across Fits
}

// Reseed implements Reseeder: the boosting RNG restarts exactly as a fresh
// NewGBRT(cfg, rand.New(rand.NewSource(seed))) would, while stage trees and
// fit buffers stay pooled.
func (g *GBRT) Reseed(seed int64) {
	if g.src == nil {
		g.src = rand.NewSource(seed)
		g.rng = rand.New(g.src)
	} else {
		g.src.Seed(seed)
	}
}

// NewGBRT returns an untrained GBRT model.
func NewGBRT(cfg GBRTConfig, r *rand.Rand) *GBRT {
	if r == nil {
		//simlint:allow rngseed deterministic fallback for a nil rng; the pipeline always passes a derived stream
		r = rand.New(rand.NewSource(1))
	}
	if cfg.NEstimators <= 0 {
		cfg.NEstimators = 100
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	return &GBRT{cfg: cfg, rng: r}
}

// Name implements Model.
func (g *GBRT) Name() string { return "GBRT" }

// stageTree returns the s-th boosting tree, recycling the pool. The seed
// draw and source seeding replay exactly what a fresh
// NewTree(tc, rand.New(rand.NewSource(g.rng.Int63()))) construction does.
func (g *GBRT) stageTree(s int, tc TreeConfig) *Tree {
	seed := g.rng.Int63()
	if s < len(g.stagePool) {
		t := g.stagePool[s]
		if t.src != nil {
			t.src.Seed(seed)
			t.cfg = tc
			return t
		}
	}
	src := rand.NewSource(seed)
	t := NewTree(tc, rand.New(src))
	t.src = src
	if s < len(g.stagePool) {
		g.stagePool[s] = t
	} else {
		g.stagePool = append(g.stagePool, t)
	}
	return t
}

// Fit implements Model.
func (g *GBRT) Fit(X [][]float64, y []float64) error {
	n, _, err := validate(X, y)
	if err != nil {
		return err
	}
	g.base = mean(y)
	g.stages = g.stages[:0]
	if cap(g.pred) < n {
		g.pred = make([]float64, n)
		g.resid = make([]float64, n)
	}
	pred := g.pred[:n]
	for i := range pred {
		pred[i] = g.base
	}
	resid := g.resid[:n]
	for s := 0; s < g.cfg.NEstimators; s++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		tc := TreeConfig{MaxDepth: g.cfg.MaxDepth, MinSamplesLeaf: g.cfg.MinSamplesLeaf}
		tree := g.stageTree(s, tc)
		if err := tree.fit(X, resid, &g.scratch); err != nil {
			return err
		}
		g.stages = append(g.stages, tree)
		// The per-row update only reads the freshly fitted tree and writes
		// pred[i], so rows shard cleanly across the worker pool.
		parallelFor(n, 64, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pred[i] += g.cfg.LearningRate * tree.Predict(X[i])
			}
		})
	}
	var sse float64
	for i := range pred {
		d := y[i] - pred[i]
		sse += d * d
	}
	g.residualStd = math.Sqrt(sse / float64(n))
	return nil
}

// Predict implements Model.
func (g *GBRT) Predict(x []float64) float64 {
	p := g.base
	for _, t := range g.stages {
		p += g.cfg.LearningRate * t.Predict(x)
	}
	return p
}

// PredictWithStd implements Model.
func (g *GBRT) PredictWithStd(x []float64) (float64, float64) {
	return g.Predict(x), g.residualStd
}

// PredictBatch implements Model: rows are scored concurrently in
// shards; each row accumulates its stages in the same order as Predict. The
// shard loop runs stage-outer, row-inner so one stage's node array stays
// cache-resident across the whole pool (see Forest.PredictBatch).
func (g *GBRT) PredictBatch(X [][]float64) ([]float64, []float64) {
	means := make([]float64, len(X))
	stds := make([]float64, len(X))
	parallelFor(len(X), 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			means[i] = g.base
			stds[i] = g.residualStd
		}
		for _, t := range g.stages {
			w := t.walk
			for i := lo; i < hi; i++ {
				means[i] += g.cfg.LearningRate * walkPredict(w, X[i])
			}
		}
	})
	return means, stds
}
