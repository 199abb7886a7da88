package workload

import (
	"math"
	"testing"
)

func TestPiecewiseRateValidate(t *testing.T) {
	good := &PiecewiseRate{Phases: []RatePhase{{Rate: 5, DurationSeconds: 10}, {Rate: 0, DurationSeconds: 5}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	cases := []*PiecewiseRate{
		nil,
		{},
		{Phases: []RatePhase{{Rate: -1, DurationSeconds: 1}}},
		{Phases: []RatePhase{{Rate: 1, DurationSeconds: 0}}},
		{Phases: []RatePhase{{Rate: 0, DurationSeconds: 1}}}, // zero everywhere
		{Phases: []RatePhase{{Rate: math.NaN(), DurationSeconds: 1}}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted: %+v", i, p)
		}
	}
}

func TestPiecewiseRateLookup(t *testing.T) {
	p := &PiecewiseRate{Phases: []RatePhase{
		{Rate: 2, DurationSeconds: 10},
		{Rate: 8, DurationSeconds: 20},
		{Rate: 4, DurationSeconds: 10},
	}}
	if got := p.Max(); got != 8 {
		t.Errorf("Max = %v", got)
	}
	if got := p.TotalDuration(); got != 40 {
		t.Errorf("TotalDuration = %v", got)
	}
	for _, c := range []struct{ t, want float64 }{
		{0, 2}, {9.999, 2}, {10, 8}, {29, 8}, {30, 4}, {39, 4},
		{40, 4}, {1000, 4}, // beyond the profile: last plateau persists
	} {
		if got := p.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}
