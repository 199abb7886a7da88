package tune

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"e2clab/internal/bo"
	"e2clab/internal/space"
)

func plantSpace() *space.Space { return space.PlantNetProblem().Space }

func sphereObjective(ctx *Context, x []float64) (float64, error) {
	var s float64
	for _, v := range x {
		s += (v - 0.5) * (v - 0.5)
	}
	return s, nil
}

func unitSpace(d int) *space.Space {
	dims := make([]space.Dimension, d)
	for i := range dims {
		dims[i] = space.Float(fmt.Sprintf("x%d", i), 0, 1)
	}
	return space.New(dims...)
}

func TestRunCompletesAllSamples(t *testing.T) {
	s := unitSpace(2)
	a, err := Run(RunConfig{Name: "t", Metric: "m", NumSamples: 12, MaxConcurrent: 4},
		&RandomSearch{Space: s, Seed: 1}, sphereObjective)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trials) != 12 {
		t.Fatalf("got %d trials", len(a.Trials))
	}
	if got := a.CountByStatus()[Completed]; got != 12 {
		t.Errorf("completed = %d, want 12", got)
	}
	if a.Best() == nil {
		t.Fatal("no best trial")
	}
}

func TestRunValidation(t *testing.T) {
	s := unitSpace(1)
	if _, err := Run(RunConfig{NumSamples: 0}, &RandomSearch{Space: s}, sphereObjective); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := Run(RunConfig{NumSamples: 1}, nil, sphereObjective); err == nil {
		t.Error("nil search accepted")
	}
	if _, err := Run(RunConfig{NumSamples: 1}, &RandomSearch{Space: s}, nil); err == nil {
		t.Error("nil objective accepted")
	}
}

func TestConcurrencyLimit(t *testing.T) {
	s := unitSpace(1)
	var cur, peak int64
	var mu sync.Mutex
	obj := func(ctx *Context, x []float64) (float64, error) {
		c := atomic.AddInt64(&cur, 1)
		mu.Lock()
		if c > peak {
			peak = c
		}
		mu.Unlock()
		defer atomic.AddInt64(&cur, -1)
		// Busy-wait a moment to force overlap.
		for i := 0; i < 100000; i++ {
			_ = i
		}
		return x[0], nil
	}
	if _, err := Run(RunConfig{NumSamples: 16, MaxConcurrent: 2}, &RandomSearch{Space: s, Seed: 2}, obj); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Errorf("peak concurrency %d exceeded limit 2", peak)
	}
}

// askCounter hands out its ask count as the configuration and records the
// most asks ever outstanding (asked, not yet told). Run calls it under its
// mutex.
type askCounter struct {
	asks, tells, peak int
}

func (c *askCounter) Ask() []float64 {
	c.asks++
	c.peak = max(c.peak, c.asks-c.tells)
	return []float64{float64(c.asks - 1)}
}

func (c *askCounter) Tell([]float64, float64) { c.tells++ }

// TestTrialsKeepAskOrder: trials are numbered and listed in Ask order, and
// with the limiter at 3 no more than 3 configurations are ever asked and
// not yet told.
func TestTrialsKeepAskOrder(t *testing.T) {
	c := &askCounter{}
	a, err := Run(RunConfig{NumSamples: 40, MaxConcurrent: 3}, c, sphereObjective)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range a.Trials {
		if tr.ID != i || tr.Config[0] != float64(i) {
			t.Errorf("trial %d has ID %d and config %v, want ID %d and config [%d]", i, tr.ID, tr.Config, i, i)
		}
	}
	if c.asks != 40 || c.tells != 40 || c.peak > 3 {
		t.Errorf("%d asks, %d tells, %d outstanding at most; want 40, 40, <= 3", c.asks, c.tells, c.peak)
	}
}

func TestFailedTrialsRecorded(t *testing.T) {
	s := unitSpace(1)
	obj := func(ctx *Context, x []float64) (float64, error) {
		if ctx.TrialID()%2 == 0 {
			return 0, errors.New("deployment failed")
		}
		return x[0], nil
	}
	a, err := Run(RunConfig{NumSamples: 6}, &RandomSearch{Space: s, Seed: 3}, obj)
	if err != nil {
		t.Fatal(err)
	}
	counts := a.CountByStatus()
	if counts[Failed] != 3 || counts[Completed] != 3 {
		t.Errorf("counts = %v", counts)
	}
	best := a.Best()
	if best == nil || best.Status != Completed {
		t.Error("Best should skip failed trials")
	}
}

func TestAllTrialsFailed(t *testing.T) {
	s := unitSpace(1)
	obj := func(ctx *Context, x []float64) (float64, error) { return 0, errors.New("boom") }
	a, err := Run(RunConfig{NumSamples: 3}, &RandomSearch{Space: s, Seed: 4}, obj)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best() != nil {
		t.Error("Best() should be nil when everything failed")
	}
}

func TestModeMaxSelectsLargest(t *testing.T) {
	s := unitSpace(1)
	obj := func(ctx *Context, x []float64) (float64, error) { return x[0], nil }
	a, err := Run(RunConfig{NumSamples: 20, Mode: space.Max}, &RandomSearch{Space: s, Seed: 5}, obj)
	if err != nil {
		t.Fatal(err)
	}
	best := a.Best()
	for _, tr := range a.Trials {
		if tr.Value > best.Value {
			t.Errorf("trial %v better than Best %v under Max", tr.Value, best.Value)
		}
	}
}

func TestBOIntegrationListing1(t *testing.T) {
	// The Listing 1 stack: SkOpt-style search + concurrency limiter 2 +
	// ASHA + 30 samples on the Pl@ntNet space with a synthetic response
	// surface whose optimum is (54, 54, 53, 6).
	sp := plantSpace()
	opt, err := bo.New(sp, bo.Config{BaseEstimator: "ET", NInitialPoints: 10,
		InitialPointGenerator: "lhs", AcqFunc: "gp_hedge", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	obj := func(ctx *Context, x []float64) (float64, error) {
		v := 2.4 + math.Pow(x[0]-54, 2)/800 + math.Pow(x[1]-54, 2)/3000 +
			math.Pow(x[2]-53, 2)/2500 + math.Pow(x[3]-6, 2)/40
		return v, nil
	}
	a, err := Run(RunConfig{Name: "plantnet_engine", Metric: "user_resp_time",
		Mode: space.Min, NumSamples: 30, MaxConcurrent: 2,
		Scheduler: &AsyncHyperBand{}}, opt, obj)
	if err != nil {
		t.Fatal(err)
	}
	best := a.Best()
	if best == nil {
		t.Fatal("no best")
	}
	if best.Value > 2.55 {
		t.Errorf("best %v at %v — BO failed to descend", best.Value, best.Config)
	}
}

func TestASHAStopsBadTrials(t *testing.T) {
	sched := &AsyncHyperBand{GracePeriod: 1, ReductionFactor: 2, MaxT: 64}
	// Four trials report at rung 1: values 1, 2, 3, 4. With eta=2 the
	// top half (<= 2) continues.
	if d := sched.OnReport(0, 1, 1); d != Continue {
		t.Error("first report should continue (not enough evidence)")
	}
	if d := sched.OnReport(1, 1, 2); d != Stop {
		t.Error("value 2 of {1,2} is below the top-1/2 cut (only the best continues)")
	}
	if d := sched.OnReport(2, 1, 3); d != Stop {
		t.Error("value 3 of {1,2,3} should stop (cut=2)")
	}
	if d := sched.OnReport(3, 1, 0.5); d != Continue {
		t.Error("best value should continue")
	}
}

func TestASHADecidesBetweenRungs(t *testing.T) {
	// Rungs are 1, 4, 16, 64 (grace=1, eta=4). A trial reporting every 5
	// iterations never lands on a rung exactly; decisions must fire at the
	// first report crossing each rung, or bad trials are never halved.
	sched := &AsyncHyperBand{GracePeriod: 1, ReductionFactor: 4, MaxT: 100}
	// Four trials cross rungs 1 and 4 with their first report at iteration
	// 5. With eta=4 the cutoff at rung 4 is the best value; the fourth
	// (worst) trial must stop.
	for id, v := range []float64{1, 2, 3} {
		if d := sched.OnReport(id, 5, v); d != Continue {
			t.Errorf("trial %d should continue (not enough evidence yet)", id)
		}
	}
	if d := sched.OnReport(3, 5, 9); d != Stop {
		t.Error("worst of 4 trials crossing rung 4 off-boundary should stop")
	}
}

func TestASHARecordsTrialOncePerRung(t *testing.T) {
	// Repeat reports at an already-recorded rung must not re-enter the
	// cutoff quantile: one chatty trial used to fill a rung by itself and
	// trigger premature halving of the next reporter.
	sched := &AsyncHyperBand{GracePeriod: 1, ReductionFactor: 4, MaxT: 100}
	for i := 0; i < 4; i++ {
		if d := sched.OnReport(0, 1, 1); d != Continue {
			t.Fatal("single-trial rung should never decide")
		}
	}
	// Only the second distinct trial at rung 1: 2 < eta values recorded,
	// so no decision yet — even though trial 0 reported four times.
	if d := sched.OnReport(1, 1, 5); d != Stop && d != Continue {
		t.Fatalf("unexpected decision %v", d)
	} else if d == Stop {
		t.Error("trial stopped off a rung double-counted by repeat reports")
	}
}

func TestASHAGracePeriod(t *testing.T) {
	sched := &AsyncHyperBand{GracePeriod: 8, ReductionFactor: 2}
	for i := 0; i < 20; i++ {
		if d := sched.OnReport(i, 3, float64(1000+i)); d != Stop && true {
			if d == Stop {
				t.Fatal("stopped before grace period")
			}
		}
	}
}

func TestASHAMaxT(t *testing.T) {
	sched := &AsyncHyperBand{GracePeriod: 1, ReductionFactor: 2, MaxT: 10}
	if d := sched.OnReport(0, 10, 1); d != Stop {
		t.Error("report at MaxT should stop (training budget exhausted)")
	}
}

func TestSchedulerStopsViaContext(t *testing.T) {
	s := unitSpace(1)
	// A scheduler that stops everything after the first report.
	sched := &stopAllScheduler{}
	obj := func(ctx *Context, x []float64) (float64, error) {
		for it := 1; it <= 100; it++ {
			if !ctx.Report(it, x[0]) {
				return x[0], nil // stopped early
			}
		}
		return x[0], nil
	}
	a, err := Run(RunConfig{NumSamples: 4, Scheduler: sched}, &RandomSearch{Space: s, Seed: 6}, obj)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.CountByStatus()[Stopped]; got != 4 {
		t.Errorf("stopped = %d, want 4", got)
	}
	for _, tr := range a.Trials {
		if len(tr.Reports) != 1 {
			t.Errorf("trial %d has %d reports, want 1", tr.ID, len(tr.Reports))
		}
	}
}

type stopAllScheduler struct{}

func (stopAllScheduler) OnReport(int, int, float64) Decision { return Stop }
func (stopAllScheduler) OnDone(int)                          {}

func TestStatusString(t *testing.T) {
	want := map[Status]string{Pending: "pending", Running: "running",
		Completed: "completed", Stopped: "stopped", Failed: "failed"}
	for st, w := range want {
		if st.String() != w {
			t.Errorf("%d.String() = %q", int(st), st.String())
		}
	}
}

func TestStoppedTrialsFeedSearch(t *testing.T) {
	// Even early-stopped trials must Tell the optimizer (asynchronous
	// model optimization uses every observation).
	s := unitSpace(1)
	var telles int64
	cs := &countingSearch{inner: &RandomSearch{Space: s, Seed: 7}, tells: &telles}
	obj := func(ctx *Context, x []float64) (float64, error) {
		ctx.Report(1, x[0])
		return x[0], nil
	}
	if _, err := Run(RunConfig{NumSamples: 5, Scheduler: &stopAllScheduler{}}, cs, obj); err != nil {
		t.Fatal(err)
	}
	if telles != 5 {
		t.Errorf("search received %d tells, want 5", telles)
	}
}

type countingSearch struct {
	inner SearchAlgorithm
	tells *int64
}

func (c *countingSearch) Ask() []float64 { return c.inner.Ask() }
func (c *countingSearch) Tell(x []float64, y float64) {
	atomic.AddInt64(c.tells, 1)
	c.inner.Tell(x, y)
}

func TestCheckpointSaveLoad(t *testing.T) {
	s := unitSpace(2)
	obj := func(ctx *Context, x []float64) (float64, error) {
		if ctx.TrialID() == 2 {
			return 0, errors.New("node lost")
		}
		ctx.Report(1, x[0])
		return x[0] + x[1], nil
	}
	a, err := Run(RunConfig{Name: "ckpt", Metric: "m", Mode: space.Max, NumSamples: 5},
		&RandomSearch{Space: s, Seed: 12}, obj)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/analysis.json"
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "ckpt" || got.Metric != "m" || got.Mode != space.Max {
		t.Errorf("metadata lost: %+v", got)
	}
	if len(got.Trials) != 5 {
		t.Fatalf("trials = %d", len(got.Trials))
	}
	if got.Best().ID != a.Best().ID || got.Best().Value != a.Best().Value {
		t.Error("best trial changed across save/load")
	}
	counts := got.CountByStatus()
	if counts[Failed] != 1 || counts[Completed] != 4 {
		t.Errorf("statuses lost: %v", counts)
	}
	for _, tr := range got.Trials {
		if tr.Status == Completed && len(tr.Reports) != 1 {
			t.Errorf("trial %d reports lost", tr.ID)
		}
		if tr.Status == Failed && tr.Err == nil {
			t.Error("failure error lost")
		}
	}
}

func TestCheckpointModeRoundTrip(t *testing.T) {
	s := unitSpace(1)
	obj := func(ctx *Context, x []float64) (float64, error) { return x[0], nil }
	for _, mode := range []space.Mode{space.Min, space.Max} {
		a, err := Run(RunConfig{Name: "modes", Metric: "m", Mode: mode, NumSamples: 3},
			&RandomSearch{Space: s, Seed: 21}, obj)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/analysis.json"
		if err := a.Save(path); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mode != mode {
			t.Errorf("mode %v became %v across save/load", mode, got.Mode)
		}
		if got.Best().ID != a.Best().ID || got.Best().Value != a.Best().Value {
			t.Errorf("mode %v: best trial changed across save/load", mode)
		}
	}
}

func TestLoadRejectsUnknownMode(t *testing.T) {
	// An unknown or corrupted mode string used to silently become Min,
	// flipping the optimization direction of a resumed max-mode run.
	dir := t.TempDir()
	for _, mode := range []string{"maximum", "", "MAX", "garbage"} {
		path := dir + "/bad.json"
		body := `{"name":"x","metric":"m","mode":"` + mode + `","trials":[]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("mode %q accepted", mode)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/analysis.json"); err == nil {
		t.Error("missing file accepted")
	}
}
