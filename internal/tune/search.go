package tune

import (
	"math/rand"
	"sync"

	"e2clab/internal/rngutil"
	"e2clab/internal/space"
)

// RandomSearch samples configurations uniformly from the space — tune's
// basic variant generator for config dicts like Listing 1's tune.randint
// ranges.
type RandomSearch struct {
	Space *space.Space
	rng   *rand.Rand
	once  sync.Once
	Seed  int64
}

// Ask implements SearchAlgorithm.
func (r *RandomSearch) Ask() []float64 {
	r.once.Do(func() { r.rng = rngutil.New(r.Seed + 1) })
	u := make([]float64, r.Space.Len())
	for i := range u {
		u[i] = r.rng.Float64()
	}
	return r.Space.FromUnit(u)
}

// Tell implements SearchAlgorithm (random search does not learn).
func (r *RandomSearch) Tell([]float64, float64) {}
