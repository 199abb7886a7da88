package workload

import "fmt"

// RatePhase is one piecewise-constant segment of a time-varying arrival
// process: requests arrive at Rate req/s for DurationSeconds.
type RatePhase struct {
	Rate            float64 `json:"rate"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// PiecewiseRate is a piecewise-constant arrival-rate profile λ(t) — the
// open-loop form of the bursty/diurnal workload shapes. Where a phased
// closed-loop lowering restarts the engine between phases (queue state
// lost at every boundary), a PiecewiseRate drives ONE engine run as a
// nonhomogeneous Poisson process realized by Lewis-Shedler thinning:
// candidate arrivals are generated at the max rate and accepted with
// probability λ(t)/λmax, so backlog built during a burst drains into the
// next phase exactly as it would in production.
type PiecewiseRate struct {
	Phases []RatePhase `json:"phases"`
}

// Validate rejects empty, negative, and never-arriving profiles.
func (p *PiecewiseRate) Validate() error {
	if p == nil || len(p.Phases) == 0 {
		return fmt.Errorf("workload: piecewise rate has no phases")
	}
	max := 0.0
	for i, ph := range p.Phases {
		if ph.Rate < 0 || ph.Rate != ph.Rate {
			return fmt.Errorf("workload: phase %d has rate %v", i, ph.Rate)
		}
		if ph.DurationSeconds <= 0 {
			return fmt.Errorf("workload: phase %d has duration %v", i, ph.DurationSeconds)
		}
		if ph.Rate > max {
			max = ph.Rate
		}
	}
	if max <= 0 {
		return fmt.Errorf("workload: piecewise rate is zero everywhere")
	}
	return nil
}

// Max returns λmax, the thinning envelope rate.
func (p *PiecewiseRate) Max() float64 {
	max := 0.0
	for _, ph := range p.Phases {
		if ph.Rate > max {
			max = ph.Rate
		}
	}
	return max
}

// TotalDuration sums the phase durations.
func (p *PiecewiseRate) TotalDuration() float64 {
	var d float64
	for _, ph := range p.Phases {
		d += ph.DurationSeconds
	}
	return d
}

// At returns λ(t). Before zero it is the first phase's rate; beyond the
// profile it is the last phase's rate (a run slightly longer than the
// profile keeps the final plateau instead of silently going quiet).
func (p *PiecewiseRate) At(t float64) float64 {
	if len(p.Phases) == 0 {
		return 0
	}
	for _, ph := range p.Phases {
		if t < ph.DurationSeconds {
			return ph.Rate
		}
		t -= ph.DurationSeconds
	}
	return p.Phases[len(p.Phases)-1].Rate
}
