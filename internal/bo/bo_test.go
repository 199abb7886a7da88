package bo

import (
	"math"
	"slices"
	"testing"

	"e2clab/internal/space"
)

func sphere(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += (v - 0.3) * (v - 0.3)
	}
	return s
}

func floatSpace(d int) *space.Space {
	dims := make([]space.Dimension, d)
	for i := range dims {
		dims[i] = space.Float(string(rune('a'+i)), 0, 1)
	}
	return space.New(dims...)
}

func runLoop(t *testing.T, o *Optimizer, fn func([]float64) float64, n int) float64 {
	t.Helper()
	for i := 0; i < n; i++ {
		x := o.Ask()
		if x == nil {
			t.Fatal("Ask returned nil")
		}
		o.Tell(x, fn(x))
	}
	_, best := o.Best()
	return best
}

func TestOptimizerBeatsInitialDesign(t *testing.T) {
	for _, est := range []string{"ET", "RF", "GBRT", "GP"} {
		s := floatSpace(2)
		o, err := New(s, Config{BaseEstimator: est, NInitialPoints: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		best := runLoop(t, o, sphere, 45)
		// The model phase must improve on the best of the 10-point design.
		initBest := slices.Min(o.y[:10])
		if best > initBest {
			t.Errorf("%s: final best %v worse than initial design best %v", est, best, initBest)
		}
		if best > 0.05 {
			t.Errorf("%s: best %v after 45 evals, want < 0.05", est, best)
		}
	}
}

func TestAcquisitionFunctions(t *testing.T) {
	for _, acq := range []string{"EI", "PI", "LCB", "gp_hedge"} {
		s := floatSpace(2)
		o, err := New(s, Config{AcqFunc: acq, NInitialPoints: 8, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if best := runLoop(t, o, sphere, 40); best > 0.08 {
			t.Errorf("%s: best %v after 40 evals", acq, best)
		}
	}
}

func TestUnknownConfigRejected(t *testing.T) {
	s := floatSpace(1)
	if _, err := New(s, Config{BaseEstimator: "XGB"}); err == nil {
		t.Error("unknown estimator accepted")
	}
	if _, err := New(s, Config{AcqFunc: "UCBX"}); err == nil {
		t.Error("unknown acquisition accepted")
	}
	if _, err := New(s, Config{InitialPointGenerator: "magic"}); err == nil {
		t.Error("unknown generator accepted")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	mk := func() []float64 {
		s := floatSpace(2)
		o, err := New(s, Config{NInitialPoints: 6, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		runLoop(t, o, sphere, 20)
		x, _ := o.Best()
		return x
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

func TestIntSpaceNoDuplicateProposals(t *testing.T) {
	// On the Pl@ntNet integer space, Ask must not re-propose evaluated
	// configurations (wasted testbed deployments).
	p := space.PlantNetProblem()
	o, err := New(p.Space, Config{NInitialPoints: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 30; i++ {
		x := o.Ask()
		k := p.Space.Format(x)
		if seen[k] {
			t.Fatalf("iteration %d re-proposed %s", i, k)
		}
		seen[k] = true
		// Simple separable objective with optimum at upper bounds.
		o.Tell(x, -(x[0] + x[1] + x[2] + 10*x[3]))
	}
}

func TestIntSpaceConvergesToGoodCorner(t *testing.T) {
	p := space.PlantNetProblem()
	o, err := New(p.Space, Config{NInitialPoints: 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Minimum at http=54, extract=6 (quadratic bowl).
	fn := func(x []float64) float64 {
		return math.Pow(x[0]-54, 2)/100 + math.Pow(x[3]-6, 2)
	}
	best := runLoop(t, o, fn, 60)
	x, _ := o.Best()
	if best > 1.2 {
		t.Errorf("best %v at %v, want near (54, *, *, 6)", best, x)
	}
	if math.Abs(x[3]-6) > 1 {
		t.Errorf("extract converged to %v, want 6±1", x[3])
	}
}

func TestConstantLiarParallelAsks(t *testing.T) {
	s := floatSpace(2)
	o, err := New(s, Config{NInitialPoints: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Drain initial design.
	for i := 0; i < 4; i++ {
		x := o.Ask()
		o.Tell(x, sphere(x))
	}
	// Two parallel asks (max_concurrent=2 in Listing 1) must differ.
	a := o.Ask()
	b := o.Ask()
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Errorf("parallel asks identical: %v", a)
	}
	o.Tell(a, sphere(a))
	o.Tell(b, sphere(b))
	if o.N() != 6 {
		t.Errorf("N = %d, want 6", o.N())
	}
}

func TestBestBeforeAnyTell(t *testing.T) {
	s := floatSpace(1)
	o, err := New(s, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x, v := o.Best()
	if x != nil || !math.IsInf(v, 1) {
		t.Errorf("Best before Tell = %v, %v", x, v)
	}
}

func TestEvaluationsArchive(t *testing.T) {
	s := floatSpace(2)
	o, err := New(s, Config{NInitialPoints: 3, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	runLoop(t, o, sphere, 5)
	X, y := o.Evaluations()
	if len(X) != 5 || len(y) != 5 {
		t.Fatalf("archive sizes %d, %d", len(X), len(y))
	}
	// Mutating the returned slices must not corrupt the optimizer.
	y[0] = -999
	_, best := o.Best()
	if best == -999 {
		t.Error("Evaluations leaked internal state")
	}
}

func TestTellExternalPoint(t *testing.T) {
	// Users can seed the optimizer with externally evaluated points (e.g.
	// the production baseline configuration).
	p := space.PlantNetProblem()
	o, err := New(p.Space, Config{NInitialPoints: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	baseline := []float64{40, 40, 40, 7}
	o.Tell(baseline, 2.657)
	x, v := o.Best()
	if v != 2.657 {
		t.Errorf("Best = %v, want 2.657", v)
	}
	for i := range baseline {
		if x[i] != baseline[i] {
			t.Errorf("Best x = %v, want baseline", x)
		}
	}
}

func TestLHSInitialDesignUsed(t *testing.T) {
	s := floatSpace(2)
	o, err := New(s, Config{NInitialPoints: 16, InitialPointGenerator: "lhs", Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	// First 16 asks come from the LHS design: each dimension stratified.
	var xs []float64
	for i := 0; i < 16; i++ {
		x := o.Ask()
		o.Tell(x, sphere(x))
		xs = append(xs, x[0])
	}
	seen := make([]bool, 16)
	for _, v := range xs {
		c := int(v * 16)
		if c >= 16 || seen[c] {
			t.Fatalf("initial design not LHS-stratified (cell %d)", c)
		}
		seen[c] = true
	}
}
