package core

import (
	"e2clab/internal/plantnet"
	"e2clab/internal/rngutil"
)

// PlantNetObjective builds the paper's UserResponseTime objective function:
// each model evaluation deploys the engine with the candidate thread-pool
// configuration (Equation 2 variable order), exercises it with `clients`
// simultaneous requests for the spec's duration and repetitions, and
// returns the pooled mean user response time.
func PlantNetObjective(clients int, seed int64) Objective {
	return func(ev *Evaluation) (float64, error) {
		cfg := plantnet.FromVector(ev.X)
		if err := cfg.Validate(); err != nil {
			return 0, err
		}
		// Derive the evaluation's seed from (root seed, index) so parallel
		// evaluations are independent yet reproducible.
		s := rngutil.NewSeeder(seed + int64(ev.Index)*7919)
		rep, err := plantnet.RunRepeated(plantnet.RunOptions{
			Pools:       cfg,
			Clients:     clients,
			Duration:    ev.Duration,
			MaxParallel: ev.RepeatParallelism,
			Seed:        s.Next(),
		}, ev.Repeat)
		if err != nil {
			return 0, err
		}
		return rep.UserResponseTime.Mean, nil
	}
}
