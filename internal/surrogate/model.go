// Package surrogate implements the four surrogate families skopt offers as
// its base_estimator, which the paper's Phase II uses to explore the search
// space of long-running applications: Extra Trees (the paper's choice,
// Listing 1 base_estimator='ET'), Random Forest, Gradient Boosting
// Regression Trees, and a Gaussian process (Kriging) with skopt's Matérn 5/2
// kernel. The tree ensembles are built from one CART regression tree, Tree.
//
// All models regress y on points in the unit hypercube (package space maps
// real configurations there) and expose predictive uncertainty so that
// acquisition functions can trade exploration against exploitation.
//
// # Concurrency model
//
// Training and prediction parallelize internally across a worker pool sized
// by GOMAXPROCS (see parallelFor): Forest.Fit trains its trees concurrently,
// and every PredictBatch scores candidate shards concurrently. Parallelism never changes results — each tree owns a
// dedicated RNG seeded at construction time exactly as in the sequential
// code, and batch prediction computes element i of its outputs purely from
// input row i, so outputs are bit-identical to the sequential paths for a
// fixed seed. The models themselves are not safe for concurrent external
// use: callers must not invoke Fit/Predict on the same model from multiple
// goroutines.
//
// # Batch prediction contract
//
// PredictBatch(X) must return means[i], stds[i] equal (bit for bit) to
// PredictWithStd(X[i]) for every row; callers such as the acquisition loop
// in internal/bo rely on this equivalence to score whole candidate pools in
// one call.
package surrogate

import (
	"fmt"
	"math/rand"
)

// Model is a trainable regression surrogate.
type Model interface {
	// Fit trains on rows X (points in [0,1]^d) and targets y.
	Fit(X [][]float64, y []float64) error
	// Predict returns the posterior mean at x.
	Predict(x []float64) float64
	// PredictWithStd returns the posterior mean and a standard-deviation
	// estimate at x. Models without a principled posterior return a
	// residual-based estimate (documented per model).
	PredictWithStd(x []float64) (mean, std float64)
	// PredictBatch returns the posterior mean and standard deviation for
	// every row of X; element i is bit-identical to PredictWithStd(X[i]).
	// Implementations parallelize across rows internally.
	PredictBatch(X [][]float64) (means, stds []float64)
	// Name identifies the model in reproducibility summaries.
	Name() string
}

// PredictBatch scores every row of X under m. It is the entry point
// acquisition optimizers use to score candidate pools.
func PredictBatch(m Model, X [][]float64) (means, stds []float64) {
	return m.PredictBatch(X)
}

// Factory builds a fresh model; optimizers refit from scratch at every
// iteration, mirroring skopt.
type Factory func(r *rand.Rand) Model

// Reseeder is implemented by models whose construction-time RNG streams can
// be reset in place. Reseed(seed) must leave the model drawing exactly the
// stream a fresh Factory(rand.New(rand.NewSource(seed))) construction would
// produce, while keeping its internal buffers (tree node arrays, fit
// scratch, ensemble RNG sources) warm. Optimizers that refit a surrogate
// every iteration use this to avoid rebuilding the whole ensemble — in
// particular the 607-word math/rand source per tree — on every Ask.
type Reseeder interface {
	Reseed(seed int64)
}

// ByName maps skopt's estimator names ("ET", "RF", "GBRT", "GP") to
// factories.
func ByName(name string) (Factory, error) {
	switch name {
	case "ET":
		return func(r *rand.Rand) Model { return NewExtraTrees(DefaultForestConfig(), r) }, nil
	case "RF":
		return func(r *rand.Rand) Model { return NewRandomForest(DefaultForestConfig(), r) }, nil
	case "GBRT":
		return func(r *rand.Rand) Model { return NewGBRT(DefaultGBRTConfig(), r) }, nil
	case "GP":
		return func(r *rand.Rand) Model { return NewGP(DefaultGPConfig()) }, nil
	default:
		return nil, fmt.Errorf("surrogate: unknown estimator %q", name)
	}
}

// validate checks a training set for shape consistency.
func validate(X [][]float64, y []float64) (n, d int, err error) {
	if len(X) == 0 || len(X) != len(y) {
		return 0, 0, fmt.Errorf("surrogate: bad training set: %d rows, %d targets", len(X), len(y))
	}
	d = len(X[0])
	if d == 0 {
		return 0, 0, fmt.Errorf("surrogate: zero-dimensional inputs")
	}
	for i, row := range X {
		if len(row) != d {
			return 0, 0, fmt.Errorf("surrogate: ragged row %d: %d cols, want %d", i, len(row), d)
		}
	}
	return len(X), d, nil
}

func mean(y []float64) float64 {
	var s float64
	for _, v := range y {
		s += v
	}
	return s / float64(len(y))
}
