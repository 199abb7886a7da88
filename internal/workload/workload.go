// Package workload defines the request workloads driving the Pl@ntNet
// engine experiments and the long-term user-growth model of the paper's
// Figure 2 ("exponential growth of new users every spring, peaks in
// May-June"), which motivates the optimization: anticipating the
// infrastructure evolution needed to pass the upcoming spring peak.
package workload

import (
	"math"

	"e2clab/internal/rngutil"
)

// GrowthModel generates the Figure 2 new-users-per-week curve: a baseline
// growing exponentially year over year, multiplied by a seasonal profile
// peaking in May-June, plus multiplicative noise.
type GrowthModel struct {
	// StartYear is the first modeled year (Figure 2 spans 2015-2021).
	StartYear int
	// Years is the number of modeled years.
	Years int
	// BaseUsersPerWeek is the year-1 off-season level.
	BaseUsersPerWeek float64
	// AnnualGrowth is the year-over-year multiplier (e.g. 1.45).
	AnnualGrowth float64
	// PeakAmplitude is the spring-peak multiplier over the off-season
	// level (e.g. 6 means peak weeks see ~7x the base).
	PeakAmplitude float64
	// NoiseCV is the multiplicative noise coefficient of variation.
	NoiseCV float64
	// Seed drives the noise.
	Seed int64
}

// DefaultGrowthModel approximates Figure 2: ~45% annual growth with strong
// May-June peaks.
func DefaultGrowthModel() GrowthModel {
	return GrowthModel{
		StartYear:        2015,
		Years:            7,
		BaseUsersPerWeek: 20000,
		AnnualGrowth:     1.45,
		PeakAmplitude:    6,
		NoiseCV:          0.10,
		Seed:             1,
	}
}

// WeekPoint is one week of the generated trace.
type WeekPoint struct {
	Year     int
	Week     int // 0..51
	NewUsers float64
}

// Generate produces the weekly trace.
func (g GrowthModel) Generate() []WeekPoint {
	if g.Years <= 0 {
		return nil
	}
	r := rngutil.New(g.Seed)
	out := make([]WeekPoint, 0, g.Years*52)
	for y := 0; y < g.Years; y++ {
		yearLevel := g.BaseUsersPerWeek * math.Pow(g.AnnualGrowth, float64(y))
		for w := 0; w < 52; w++ {
			season := g.seasonal(w)
			noise := 1 + g.NoiseCV*r.NormFloat64()
			if noise < 0.1 {
				noise = 0.1
			}
			out = append(out, WeekPoint{
				Year:     g.StartYear + y,
				Week:     w,
				NewUsers: yearLevel * season * noise,
			})
		}
	}
	return out
}

// seasonal is the within-year profile: a Gaussian bump centered on week 21
// (late May) with width ~4 weeks, floored at 1 (off-season).
func (g GrowthModel) seasonal(week int) float64 {
	d := float64(week) - 21
	return 1 + g.PeakAmplitude*math.Exp(-d*d/(2*16))
}

// PeakWeek returns the week index with the most new users in a given year
// of the trace.
func PeakWeek(trace []WeekPoint, year int) (week int, users float64) {
	week = -1
	for _, p := range trace {
		if p.Year == year && p.NewUsers > users {
			week, users = p.Week, p.NewUsers
		}
	}
	return week, users
}

// YearTotal sums new users of one year.
func YearTotal(trace []WeekPoint, year int) float64 {
	var s float64
	for _, p := range trace {
		if p.Year == year {
			s += p.NewUsers
		}
	}
	return s
}
