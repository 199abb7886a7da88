package tune

import (
	"math"
	"sort"
	"sync"
)

// AsyncHyperBand is the Async Successive Halving (ASHA) scheduler of
// Listing 1's AsyncHyperBandScheduler: trials report at increasing
// iterations ("rungs"); at each rung, a trial continues only if its value
// is within the top 1/ReductionFactor of all values recorded at that rung
// so far. Being asynchronous, decisions never wait for other trials.
type AsyncHyperBand struct {
	// GracePeriod is the minimum iterations before a trial can be stopped
	// (default 1).
	GracePeriod int
	// ReductionFactor is eta (default 4, Ray's default).
	ReductionFactor int
	// MaxT caps useful training iterations (default 100).
	MaxT int

	mu    sync.Mutex
	rungs map[int][]float64    // rung iteration -> values recorded (min-oriented)
	seen  map[int]map[int]bool // rung iteration -> trial IDs already recorded there
}

func (a *AsyncHyperBand) defaults() (grace, eta, maxT int) {
	grace, eta, maxT = a.GracePeriod, a.ReductionFactor, a.MaxT
	if grace <= 0 {
		grace = 1
	}
	if eta <= 1 {
		eta = 4
	}
	if maxT <= 0 {
		maxT = 100
	}
	return grace, eta, maxT
}

// OnReport implements Scheduler.
//
// Trials rarely report at a rung iteration exactly (a trial reporting every
// 5 iterations never lands on rungs 4/16/64), so the decision fires at the
// first report *crossing* each rung: the report's value is recorded — at
// most once per trial — at every rung it newly crosses, and the halving
// decision is taken at the highest of them. Repeat reports at an
// already-recorded rung neither re-enter the cutoff quantile nor trigger a
// decision.
func (a *AsyncHyperBand) OnReport(trialID, iteration int, value float64) Decision {
	grace, eta, maxT := a.defaults()
	if iteration >= maxT {
		return Stop // trained long enough; stop to free resources
	}
	if iteration < grace {
		return Continue
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.rungs == nil {
		a.rungs = make(map[int][]float64)
		a.seen = make(map[int]map[int]bool)
	}
	decide := -1
	for r := grace; r <= iteration && r <= maxT; r *= eta {
		if a.seen[r] == nil {
			a.seen[r] = make(map[int]bool)
		}
		if a.seen[r][trialID] {
			continue // this trial already recorded at this rung
		}
		a.seen[r][trialID] = true
		a.rungs[r] = append(a.rungs[r], value)
		decide = r
	}
	if decide < 0 {
		return Continue // no rung newly crossed by this report
	}
	vals := a.rungs[decide]
	if len(vals) < eta {
		return Continue // not enough evidence at this rung yet
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	cut := sorted[int(math.Ceil(float64(len(sorted))/float64(eta)))-1]
	if value <= cut {
		return Continue
	}
	return Stop
}

// OnDone implements Scheduler.
func (a *AsyncHyperBand) OnDone(int) {}
