package surrogate

import (
	"math"
	"math/rand"
	"testing"
)

// trainSet builds n samples of fn over [0,1]^d.
func trainSet(r *rand.Rand, n, d int, fn func([]float64) float64) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = r.Float64()
		}
		y[i] = fn(X[i])
	}
	return X, y
}

func quadratic(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += (v - 0.5) * (v - 0.5)
	}
	return s
}

func allModels(r *rand.Rand) []Model {
	return []Model{
		NewRandomForest(ForestConfig{NEstimators: 50, MinSamplesLeaf: 1}, r),
		NewExtraTrees(ForestConfig{NEstimators: 50, MinSamplesLeaf: 1}, r),
		NewGBRT(GBRTConfig{NEstimators: 80, LearningRate: 0.1, MaxDepth: 3}, r),
		NewGP(DefaultGPConfig()),
	}
}

// TestAllModelsLearnQuadratic: every surrogate family must achieve a far
// better RMSE than predicting the mean on a smooth quadratic.
func TestAllModelsLearnQuadratic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	X, y := trainSet(r, 200, 2, quadratic)
	Xt, yt := trainSet(r, 200, 2, quadratic)
	// Baseline: constant mean predictor RMSE.
	m := mean(y)
	var base float64
	for _, v := range yt {
		base += (v - m) * (v - m)
	}
	base = math.Sqrt(base / float64(len(yt)))
	for _, model := range allModels(r) {
		if err := model.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", model.Name(), err)
		}
		var sse float64
		for i := range Xt {
			d := model.Predict(Xt[i]) - yt[i]
			sse += d * d
		}
		rmse := math.Sqrt(sse / float64(len(Xt)))
		if rmse > base*0.5 {
			t.Errorf("%s: rmse %.4f vs baseline %.4f — did not learn", model.Name(), rmse, base)
		}
	}
}

func TestModelsRejectBadInput(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	type fitter interface {
		Fit(X [][]float64, y []float64) error
	}
	fitters := map[string]fitter{"Tree": NewTree(DefaultTreeConfig(), r)}
	for _, m := range allModels(r) {
		fitters[m.Name()] = m
	}
	for name, model := range fitters {
		if err := model.Fit(nil, nil); err == nil {
			t.Errorf("%s accepted empty training set", name)
		}
		if err := model.Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
			t.Errorf("%s accepted ragged rows", name)
		}
		if err := model.Fit([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
			t.Errorf("%s accepted row/target mismatch", name)
		}
	}
}

func TestTreeInterpolatesTrainingData(t *testing.T) {
	// An unpruned CART tree with MinSamplesLeaf=1 and distinct inputs must
	// reproduce its training targets exactly.
	r := rand.New(rand.NewSource(5))
	X, y := trainSet(r, 60, 3, quadratic)
	tr := NewTree(DefaultTreeConfig(), r)
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if math.Abs(tr.Predict(X[i])-y[i]) > 1e-9 {
			t.Fatalf("tree does not interpolate row %d: %v vs %v", i, tr.Predict(X[i]), y[i])
		}
	}
	if tr.LeafCount() < 2 {
		t.Error("tree did not split")
	}
}

func TestTreeMaxDepth(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	X, y := trainSet(r, 200, 2, quadratic)
	tr := NewTree(TreeConfig{MaxDepth: 3, MinSamplesLeaf: 1}, r)
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if d := tr.Depth(); d > 4 { // depth counts nodes; 3 splits -> <= 4 levels
		t.Errorf("Depth = %d beyond MaxDepth 3", d)
	}
	if lc := tr.LeafCount(); lc > 8 {
		t.Errorf("LeafCount = %d, want <= 8 at depth 3", lc)
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	X, y := trainSet(r, 100, 2, quadratic)
	tr := NewTree(TreeConfig{MinSamplesLeaf: 10}, r)
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for _, nd := range tr.nodes {
		if nd.feature < 0 && nd.count < 10 {
			t.Fatalf("leaf with %d samples, want >= 10", nd.count)
		}
	}
}

func TestTreeConstantTarget(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	X, _ := trainSet(r, 50, 2, quadratic)
	y := make([]float64, 50)
	for i := range y {
		y[i] = 7
	}
	tr := NewTree(DefaultTreeConfig(), r)
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.LeafCount() != 1 {
		t.Errorf("constant target grew %d leaves, want 1", tr.LeafCount())
	}
	if tr.Predict(X[0]) != 7 {
		t.Errorf("Predict = %v, want 7", tr.Predict(X[0]))
	}
}

func TestForestUncertainty(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	// Constant targets: every tree predicts the constant, so the
	// across-tree std must be exactly zero.
	X, _ := trainSet(r, 50, 2, quadratic)
	flat := make([]float64, len(X))
	for i := range flat {
		flat[i] = 4
	}
	f := NewExtraTrees(ForestConfig{NEstimators: 50}, r)
	if err := f.Fit(X, flat); err != nil {
		t.Fatal(err)
	}
	if m, s := f.PredictWithStd([]float64{0.5, 0.5}); m != 4 || s > 1e-9 {
		t.Errorf("constant-target forest: mean %v std %v, want 4, 0", m, s)
	}
	// Two clusters with different targets: in the gap between them the
	// trees must disagree (std > 0), because each tree places its random
	// split boundary differently.
	X2 := make([][]float64, 60)
	y2 := make([]float64, 60)
	for i := range X2 {
		if i%2 == 0 {
			X2[i] = []float64{r.Float64() * 0.2, r.Float64()}
			y2[i] = 0
		} else {
			X2[i] = []float64{0.8 + r.Float64()*0.2, r.Float64()}
			y2[i] = 10
		}
	}
	f2 := NewExtraTrees(ForestConfig{NEstimators: 50}, r)
	if err := f2.Fit(X2, y2); err != nil {
		t.Fatal(err)
	}
	if _, s := f2.PredictWithStd([]float64{0.5, 0.5}); s <= 0 {
		t.Errorf("gap std = %v, want > 0 (trees should disagree)", s)
	}
	// PredictWithStd mean must agree with Predict.
	m, _ := f2.PredictWithStd([]float64{0.3, 0.3})
	if math.Abs(m-f2.Predict([]float64{0.3, 0.3})) > 1e-12 {
		t.Error("PredictWithStd mean != Predict")
	}
}

func TestForestDeterministicGivenSeed(t *testing.T) {
	X, y := trainSet(rand.New(rand.NewSource(2)), 60, 2, quadratic)
	a := NewExtraTrees(ForestConfig{NEstimators: 20}, rand.New(rand.NewSource(77)))
	b := NewExtraTrees(ForestConfig{NEstimators: 20}, rand.New(rand.NewSource(77)))
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pt := []float64{0.3, 0.7}
	if a.Predict(pt) != b.Predict(pt) {
		t.Error("same-seed forests disagree")
	}
}

func TestGBRTImprovesWithStages(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	X, y := trainSet(r, 150, 2, quadratic)
	Xt, yt := trainSet(r, 150, 2, quadratic)
	rmse := func(m Model) float64 {
		var s float64
		for i := range Xt {
			d := m.Predict(Xt[i]) - yt[i]
			s += d * d
		}
		return math.Sqrt(s / float64(len(Xt)))
	}
	small := NewGBRT(GBRTConfig{NEstimators: 5, LearningRate: 0.1, MaxDepth: 3}, rand.New(rand.NewSource(1)))
	big := NewGBRT(GBRTConfig{NEstimators: 100, LearningRate: 0.1, MaxDepth: 3}, rand.New(rand.NewSource(1)))
	if err := small.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := big.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if rmse(big) >= rmse(small) {
		t.Errorf("more stages did not help: %v vs %v", rmse(big), rmse(small))
	}
}

func TestGPExactInterpolationLowNoise(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	X, y := trainSet(r, 30, 2, quadratic)
	gp := NewGP(GPConfig{Noise: 1e-8})
	if err := gp.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		m, s := gp.PredictWithStd(X[i])
		if math.Abs(m-y[i]) > 1e-3 {
			t.Fatalf("GP far from training point %d: %v vs %v", i, m, y[i])
		}
		if s > 0.05 {
			t.Fatalf("GP std at training point = %v, want ~0", s)
		}
	}
}

func TestGPUncertaintyGrowsAwayFromData(t *testing.T) {
	X := [][]float64{{0.1, 0.1}, {0.2, 0.2}, {0.15, 0.25}, {0.25, 0.1}}
	y := []float64{1, 2, 1.5, 1.2}
	gp := NewGP(DefaultGPConfig())
	if err := gp.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	_, nearStd := gp.PredictWithStd([]float64{0.15, 0.15})
	_, farStd := gp.PredictWithStd([]float64{0.9, 0.9})
	if farStd <= nearStd {
		t.Errorf("far std %v <= near std %v", farStd, nearStd)
	}
}

func TestGPConstantTargets(t *testing.T) {
	X := [][]float64{{0.1}, {0.5}, {0.9}}
	y := []float64{3, 3, 3}
	gp := NewGP(DefaultGPConfig())
	if err := gp.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if m := gp.Predict([]float64{0.3}); math.Abs(m-3) > 1e-6 {
		t.Errorf("constant-target GP predicts %v, want 3", m)
	}
}

func TestKernelsBasicProperties(t *testing.T) {
	a := []float64{0.2, 0.4}
	b := []float64{0.6, 0.1}
	if v := matern52(a, a, 0.5); math.Abs(v-1) > 1e-12 {
		t.Errorf("k(a,a) = %v, want 1", v)
	}
	ab, ba := matern52(a, b, 0.5), matern52(b, a, 0.5)
	if ab != ba {
		t.Error("not symmetric")
	}
	if ab <= 0 || ab >= 1 {
		t.Errorf("k(a,b) = %v outside (0,1)", ab)
	}
	// Longer length scale -> higher correlation.
	if matern52(a, b, 2) <= matern52(a, b, 0.2) {
		t.Error("correlation not increasing in length scale")
	}
}

func TestByName(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []string{"ET", "RF", "GBRT", "GP"} {
		f, err := ByName(n)
		if err != nil {
			t.Errorf("ByName(%q): %v", n, err)
			continue
		}
		if m := f(r); m == nil || m.Name() != n {
			t.Errorf("ByName(%q) factory built %v", n, m)
		}
	}
	// skopt offers exactly these four; anything else is unknown.
	for _, n := range []string{"XGB", "TREE", "POLY", "LSSVM", "KNN", "et"} {
		if _, err := ByName(n); err == nil {
			t.Errorf("unknown estimator %q accepted", n)
		}
	}
}

// TestUntrainedPredictIsSafe: an unfitted model predicts 0 with std 0 on
// every path, and its batch path neither panics nor reads a tree.
func TestUntrainedPredictIsSafe(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	X := [][]float64{{0.5, 0.5}, {0.1, 0.9}, {1, 0}}
	for _, m := range allModels(r) {
		if v := m.Predict(X[0]); v != 0 {
			t.Errorf("%s: untrained Predict = %v, want 0", m.Name(), v)
		}
		if mu, sd := m.PredictWithStd(X[0]); mu != 0 || sd != 0 {
			t.Errorf("%s: untrained PredictWithStd = (%v, %v), want (0, 0)", m.Name(), mu, sd)
		}
		means, stds := m.PredictBatch(X)
		if len(means) != len(X) || len(stds) != len(X) {
			t.Fatalf("%s: untrained PredictBatch returned %d/%d rows, want %d", m.Name(), len(means), len(stds), len(X))
		}
		for i := range X {
			if means[i] != 0 || stds[i] != 0 {
				t.Errorf("%s: untrained PredictBatch row %d = (%v, %v), want (0, 0)", m.Name(), i, means[i], stds[i])
			}
		}
		if means, stds := m.PredictBatch(nil); len(means) != 0 || len(stds) != 0 {
			t.Errorf("%s: empty PredictBatch returned %d/%d rows", m.Name(), len(means), len(stds))
		}
	}
}
