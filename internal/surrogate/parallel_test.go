package surrogate

import (
	"math/rand"
	"testing"
)

// grid builds a deterministic probe set independent of the training data.
func probeGrid(n, d int) [][]float64 {
	r := rand.New(rand.NewSource(99))
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = r.Float64()
		}
	}
	return X
}

// TestParallelForestFitDeterminism asserts that a forest fitted on the
// worker pool is byte-identical to one fitted sequentially from the same
// seed: per-tree RNGs are seeded at construction, so tree training order
// cannot change results.
func TestParallelForestFitDeterminism(t *testing.T) {
	X, y := trainSet(rand.New(rand.NewSource(1)), 120, 4, quadratic)
	probes := probeGrid(50, 4)
	for _, mk := range []struct {
		name  string
		build func(seed int64) *Forest
	}{
		{"ET", func(s int64) *Forest { return NewExtraTrees(DefaultForestConfig(), rand.New(rand.NewSource(s))) }},
		{"RF", func(s int64) *Forest { return NewRandomForest(DefaultForestConfig(), rand.New(rand.NewSource(s))) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			seq := mk.build(7)
			restore := setWorkers(1)
			err1 := seq.Fit(X, y)
			restore()
			par := mk.build(7)
			restore = setWorkers(8)
			err2 := par.Fit(X, y)
			restore()
			if err1 != nil || err2 != nil {
				t.Fatalf("fit errors: %v, %v", err1, err2)
			}
			for _, p := range probes {
				m1, s1 := seq.PredictWithStd(p)
				m2, s2 := par.PredictWithStd(p)
				if m1 != m2 || s1 != s2 {
					t.Fatalf("parallel fit diverged: (%v,%v) != (%v,%v)", m2, s2, m1, s1)
				}
			}
		})
	}
}

// TestPredictBatchMatchesSequential asserts the batch prediction contract
// for every estimator family: PredictBatch must be bit-identical to a
// PredictWithStd loop, with the worker pool both disabled and enabled.
func TestPredictBatchMatchesSequential(t *testing.T) {
	X, y := trainSet(rand.New(rand.NewSource(2)), 80, 3, quadratic)
	probes := probeGrid(137, 3) // odd size to exercise ragged shards
	for _, name := range []string{"ET", "RF", "GBRT", "GP"} {
		t.Run(name, func(t *testing.T) {
			factory, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			m := factory(rand.New(rand.NewSource(3)))
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			wantM := make([]float64, len(probes))
			wantS := make([]float64, len(probes))
			for i, p := range probes {
				wantM[i], wantS[i] = m.PredictWithStd(p)
			}
			for _, workers := range []int{1, 8} {
				restore := setWorkers(workers)
				gotM, gotS := PredictBatch(m, probes)
				restore()
				for i := range probes {
					if gotM[i] != wantM[i] || gotS[i] != wantS[i] {
						t.Fatalf("workers=%d row %d: batch (%v,%v) != sequential (%v,%v)",
							workers, i, gotM[i], gotS[i], wantM[i], wantS[i])
					}
				}
			}
		})
	}
}

// TestGBRTParallelFitDeterminism checks the sharded per-stage residual
// update cannot change boosting results.
func TestGBRTParallelFitDeterminism(t *testing.T) {
	X, y := trainSet(rand.New(rand.NewSource(4)), 150, 4, quadratic)
	probes := probeGrid(20, 4)
	restore := setWorkers(1)
	seq := NewGBRT(DefaultGBRTConfig(), rand.New(rand.NewSource(5)))
	err1 := seq.Fit(X, y)
	restore()
	restore = setWorkers(8)
	par := NewGBRT(DefaultGBRTConfig(), rand.New(rand.NewSource(5)))
	err2 := par.Fit(X, y)
	restore()
	if err1 != nil || err2 != nil {
		t.Fatalf("fit errors: %v, %v", err1, err2)
	}
	for _, p := range probes {
		if a, b := seq.Predict(p), par.Predict(p); a != b {
			t.Fatalf("parallel GBRT fit diverged: %v != %v", b, a)
		}
	}
	if seq.residualStd != par.residualStd {
		t.Fatalf("residualStd diverged: %v != %v", par.residualStd, seq.residualStd)
	}
}

// TestParallelForCoversRange asserts every index is visited exactly once
// for a spread of sizes and worker counts.
func TestParallelForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 17, 64, 100} {
			restore := setWorkers(workers)
			counts := make([]int, n) // disjoint shard writes; no lock needed
			parallelFor(n, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					counts[i]++
				}
			})
			restore()
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
	}
}
