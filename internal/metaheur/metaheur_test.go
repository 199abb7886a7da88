package metaheur

import (
	"math"
	"testing"

	"e2clab/internal/space"
)

// Standard test functions over value space.
func sphereAt(c float64) func([]float64) float64 {
	return func(x []float64) float64 {
		var s float64
		for _, v := range x {
			s += (v - c) * (v - c)
		}
		return s
	}
}

func rastrigin(x []float64) float64 {
	s := 10 * float64(len(x))
	for _, v := range x {
		s += v*v - 10*math.Cos(2*math.Pi*v)
	}
	return s
}

func floatSpace(d int, lo, hi float64) *space.Space {
	dims := make([]space.Dimension, d)
	for i := range dims {
		dims[i] = space.Float(string(rune('a'+i)), lo, hi)
	}
	return space.New(dims...)
}

func algorithms(seed int64) []Algorithm {
	return []Algorithm{
		GA{Seed: seed},
		DE{Seed: seed},
		SA{Seed: seed},
		PSO{Seed: seed},
	}
}

func TestAllAlgorithmsSolveSphere(t *testing.T) {
	s := floatSpace(3, -5, 5)
	for _, alg := range algorithms(3) {
		res := alg.Minimize(s, sphereAt(1.2), 2000)
		if res.Y > 0.05 {
			t.Errorf("%s: best %v after %d evals, want < 0.05 (x=%v)", alg.Name(), res.Y, res.Evals, res.X)
		}
		for _, v := range res.X {
			if math.Abs(v-1.2) > 0.5 {
				t.Errorf("%s: solution %v far from optimum 1.2", alg.Name(), res.X)
			}
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	s := floatSpace(2, 0, 1)
	for _, alg := range algorithms(5) {
		count := 0
		fn := func(x []float64) float64 { count++; return sphereAt(0.5)(x) }
		res := alg.Minimize(s, fn, 137)
		if count != 137 {
			t.Errorf("%s: %d evaluations, budget 137", alg.Name(), count)
		}
		if res.Evals != 137 {
			t.Errorf("%s: Evals = %d", alg.Name(), res.Evals)
		}
		if len(res.History) != 137 {
			t.Errorf("%s: history length %d", alg.Name(), len(res.History))
		}
	}
}

func TestHistoryMonotoneNonIncreasing(t *testing.T) {
	s := floatSpace(2, -3, 3)
	for _, alg := range algorithms(7) {
		res := alg.Minimize(s, rastrigin, 500)
		for i := 1; i < len(res.History); i++ {
			if res.History[i] > res.History[i-1] {
				t.Fatalf("%s: history increased at %d", alg.Name(), i)
			}
		}
		if res.History[len(res.History)-1] != res.Y {
			t.Errorf("%s: final history %v != Y %v", alg.Name(), res.History[len(res.History)-1], res.Y)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	s := floatSpace(2, -2, 2)
	for _, mk := range []func(int64) Algorithm{
		func(seed int64) Algorithm { return GA{Seed: seed} },
		func(seed int64) Algorithm { return DE{Seed: seed} },
		func(seed int64) Algorithm { return SA{Seed: seed} },
		func(seed int64) Algorithm { return PSO{Seed: seed} },
	} {
		a := mk(9).Minimize(s, rastrigin, 300)
		b := mk(9).Minimize(s, rastrigin, 300)
		if a.Y != b.Y {
			t.Errorf("%s: same seed, different results %v vs %v", mk(9).Name(), a.Y, b.Y)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	s := floatSpace(2, -2, 2)
	a := DE{Seed: 1}.Minimize(s, rastrigin, 100)
	b := DE{Seed: 2}.Minimize(s, rastrigin, 100)
	if a.Y == b.Y && a.X[0] == b.X[0] {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestDEOnRastrigin(t *testing.T) {
	// DE is the strongest of the four on multimodal functions; it should
	// get close to the global optimum at 0.
	s := floatSpace(2, -5.12, 5.12)
	res := DE{Seed: 4, PopSize: 20}.Minimize(s, rastrigin, 4000)
	if res.Y > 1.0 {
		t.Errorf("DE on rastrigin: %v, want < 1.0", res.Y)
	}
}

func TestIntegerSpace(t *testing.T) {
	// The Pl@ntNet space is integer-valued; solutions must be integers in
	// bounds.
	p := space.PlantNetProblem()
	fn := func(x []float64) float64 {
		return math.Abs(x[0]-54) + math.Abs(x[1]-54) + math.Abs(x[2]-53) + 10*math.Abs(x[3]-6)
	}
	for _, alg := range algorithms(11) {
		res := alg.Minimize(p.Space, fn, 1500)
		if !p.Space.Contains(res.X) {
			t.Errorf("%s: solution %v not in space", alg.Name(), res.X)
		}
		if res.Y > 6 {
			t.Errorf("%s: best %v (x=%v), want near optimum", alg.Name(), res.Y, res.X)
		}
	}
}

func TestPenalizedConstraintHandling(t *testing.T) {
	p := space.PlantNetProblem()
	p.Constraints = []space.Constraint{{Name: "http_le_40", Fn: func(x []float64) float64 { return x[0] - 40 }}}
	// Unconstrained optimum at http=60, but constraint forces http<=40.
	fn := Penalized(p, func(x []float64) float64 { return -x[0] }, 1e6)
	res := DE{Seed: 13}.Minimize(p.Space, fn, 1500)
	if res.X[0] > 40 {
		t.Errorf("constraint violated: http=%v", res.X[0])
	}
	if res.X[0] < 39 {
		t.Errorf("over-penalized: http=%v, want 40", res.X[0])
	}
}

func TestPenalizedNoPenaltyWhenFeasible(t *testing.T) {
	p := space.PlantNetProblem()
	fn := Penalized(p, func(x []float64) float64 { return 7 }, 1e6)
	if got := fn([]float64{40, 40, 40, 7}); got != 7 {
		t.Errorf("feasible point penalized: %v", got)
	}
}

func TestSmallBudgetSafe(t *testing.T) {
	s := floatSpace(2, 0, 1)
	for _, alg := range algorithms(15) {
		res := alg.Minimize(s, sphereAt(0.5), 3)
		if res.Evals != 3 || res.X == nil {
			t.Errorf("%s: tiny budget mishandled: %+v", alg.Name(), res)
		}
	}
}

func TestTabuSolvesSphere(t *testing.T) {
	s := floatSpace(3, -5, 5)
	res := Tabu{Seed: 21}.Minimize(s, sphereAt(1.2), 3000)
	if res.Y > 0.1 {
		t.Errorf("tabu best %v (x=%v)", res.Y, res.X)
	}
}

func TestTabuBudgetAndDeterminism(t *testing.T) {
	s := floatSpace(2, -2, 2)
	count := 0
	fn := func(x []float64) float64 { count++; return rastrigin(x) }
	a := Tabu{Seed: 4}.Minimize(s, fn, 250)
	if count != 250 || a.Evals != 250 {
		t.Errorf("evals = %d/%d", count, a.Evals)
	}
	b := Tabu{Seed: 4}.Minimize(s, rastrigin, 250)
	if a.Y != b.Y {
		t.Error("tabu not deterministic for seed")
	}
}

func TestTabuEscapesRevisits(t *testing.T) {
	// On a small integer space, tabu memory must keep the search moving:
	// it should visit many distinct configurations, not oscillate.
	s := space.New(space.Int("a", 0, 9), space.Int("b", 0, 9))
	visited := map[string]int{}
	fn := func(x []float64) float64 {
		visited[s.Format(x)]++
		return math.Abs(x[0]-5) + math.Abs(x[1]-5)
	}
	res := Tabu{Seed: 6, Sigma: 0.2}.Minimize(s, fn, 400)
	if res.Y != 0 {
		t.Errorf("tabu missed the optimum on a 100-point space: %v", res.Y)
	}
	if len(visited) < 30 {
		t.Errorf("tabu visited only %d distinct configs", len(visited))
	}
}
