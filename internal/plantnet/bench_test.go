package plantnet

import "testing"

// BenchmarkEngineSimulation measures the cost of one 200-second engine
// experiment at the 80-request workload (the unit of every optimization
// evaluation).
func BenchmarkEngineSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(RunOptions{Pools: Baseline, Clients: 80, Duration: 200, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSimulationPooled is the same experiment on a reused
// Runner — the RunRepeated steady state, where the per-run setup
// (engine arena, replicas, reservoir, request nodes) is already paid.
func BenchmarkEngineSimulationPooled(b *testing.B) {
	rn := NewRunner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rn.Run(RunOptions{Pools: Baseline, Clients: 80, Duration: 200, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSimulationHeavy is the 160-client saturated case.
func BenchmarkEngineSimulationHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(RunOptions{Pools: PreliminaryOptimum, Clients: 160, Duration: 200, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
