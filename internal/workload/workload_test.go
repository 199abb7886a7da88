package workload

import "testing"

func TestGrowthTraceShape(t *testing.T) {
	trace := DefaultGrowthModel().Generate()
	if len(trace) != 7*52 {
		t.Fatalf("trace length %d, want %d", len(trace), 7*52)
	}
	// Figure 2's defining property: every year peaks in May-June
	// (weeks ~17-26) and year totals grow.
	prevTotal := 0.0
	for y := 2015; y <= 2021; y++ {
		week, users := PeakWeek(trace, y)
		if week < 17 || week > 26 {
			t.Errorf("year %d peaks at week %d, want May-June (17-26)", y, week)
		}
		if users <= 0 {
			t.Errorf("year %d has nonpositive peak", y)
		}
		total := YearTotal(trace, y)
		if total <= prevTotal {
			t.Errorf("year %d total %.0f did not grow over %.0f", y, total, prevTotal)
		}
		prevTotal = total
	}
}

func TestGrowthPeakDominatesOffSeason(t *testing.T) {
	trace := DefaultGrowthModel().Generate()
	_, peak := PeakWeek(trace, 2020)
	// Off-season: week 45.
	var offSeason float64
	for _, p := range trace {
		if p.Year == 2020 && p.Week == 45 {
			offSeason = p.NewUsers
		}
	}
	if peak < 3*offSeason {
		t.Errorf("peak %.0f not >> off-season %.0f", peak, offSeason)
	}
}

func TestGrowthDeterministic(t *testing.T) {
	a := DefaultGrowthModel().Generate()
	b := DefaultGrowthModel().Generate()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different trace")
		}
	}
}

func TestGrowthEmptyYears(t *testing.T) {
	g := DefaultGrowthModel()
	g.Years = 0
	if got := g.Generate(); got != nil {
		t.Errorf("zero years should yield nil, got %d points", len(got))
	}
}

func TestPeakWeekMissingYear(t *testing.T) {
	trace := DefaultGrowthModel().Generate()
	if w, _ := PeakWeek(trace, 1999); w != -1 {
		t.Errorf("missing year returned week %d", w)
	}
}
