package sensitivity

import (
	"math"
	"testing"

	"e2clab/internal/space"
)

func TestOATSweepExtract(t *testing.T) {
	p := space.PlantNetProblem()
	center := []float64{54, 54, 53, 7}
	// Objective with extract optimum at 6.
	fn := func(x []float64) float64 { return math.Abs(x[3] - 6) }
	r, err := OAT(p.Space, center, "extract", 2, fn)
	if err != nil {
		t.Fatal(err)
	}
	// extract 7 ± 2 -> values 5..9: 5 points, the paper's Figure 9 sweep.
	if len(r.Points) != 5 {
		t.Fatalf("points = %d, want 5", len(r.Points))
	}
	for i, want := range []float64{5, 6, 7, 8, 9} {
		if r.Points[i].Value != want {
			t.Errorf("point %d value %v, want %v", i, r.Points[i].Value, want)
		}
		// All other dims stay at the center.
		for j := 0; j < 3; j++ {
			if r.Points[i].X[j] != center[j] {
				t.Errorf("point %d mutated dim %d", i, j)
			}
		}
	}
	if best := r.Best(); best.Value != 6 {
		t.Errorf("Best = %v, want 6", best.Value)
	}
}

func TestOATClippingAtBounds(t *testing.T) {
	p := space.PlantNetProblem()
	center := []float64{54, 54, 53, 9} // extract at its upper bound
	fn := func(x []float64) float64 { return x[3] }
	r, err := OAT(p.Space, center, "extract", 2, fn)
	if err != nil {
		t.Fatal(err)
	}
	// 9 ± 2 clips to {7, 8, 9}: duplicates removed.
	if len(r.Points) != 3 {
		t.Errorf("points = %d, want 3 after clipping", len(r.Points))
	}
}

func TestOATErrors(t *testing.T) {
	p := space.PlantNetProblem()
	fn := func(x []float64) float64 { return 0 }
	if _, err := OAT(p.Space, []float64{54, 54, 53, 7}, "nope", 1, fn); err == nil {
		t.Error("unknown dimension accepted")
	}
	if _, err := OAT(p.Space, []float64{54, 54, 53, 99}, "extract", 1, fn); err == nil {
		t.Error("out-of-space center accepted")
	}
	if _, err := OAT(p.Space, []float64{54, 54, 53, 7}, "extract", 0, fn); err == nil {
		t.Error("zero delta accepted")
	}
}

// TestRefinePaperProtocol reproduces Section IV-C's refinement: sweep
// extract ±2 then simsearch ±3 from the preliminary optimum, adopting each
// best — landing on the refined optimum.
func TestRefinePaperProtocol(t *testing.T) {
	p := space.PlantNetProblem()
	center := []float64{54, 54, 53, 7}
	// Response surface with minimum at simsearch=55, extract=6.
	fn := func(x []float64) float64 {
		return 2.4 + 0.02*math.Pow(x[3]-6, 2) + 0.001*math.Pow(x[2]-55, 2)
	}
	refined, sweeps, err := Refine(p.Space, center, []string{"extract", "simsearch"}, 3, fn)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 2 {
		t.Fatalf("sweeps = %d", len(sweeps))
	}
	if refined[3] != 6 {
		t.Errorf("refined extract = %v, want 6", refined[3])
	}
	if refined[2] != 55 {
		t.Errorf("refined simsearch = %v, want 55", refined[2])
	}
	// The refined point must be at least as good as the center.
	if fn(refined) > fn(center) {
		t.Error("refinement made things worse")
	}
}
