package metaheur_test

import (
	"fmt"

	"e2clab/internal/metaheur"
	"e2clab/internal/space"
)

// Differential evolution on the Pl@ntNet integer space: the Phase II choice
// for short-time running applications.
func ExampleDE() {
	p := space.PlantNetProblem()
	surface := func(x []float64) float64 {
		d := x[3] - 6
		return 2.4 + d*d/40
	}
	res := metaheur.DE{Seed: 2}.Minimize(p.Space, surface, 800)
	fmt.Printf("extract=%d resp=%.2f after %d evaluations\n", int(res.X[3]), res.Y, res.Evals)
	// Output:
	// extract=6 resp=2.40 after 800 evaluations
}
