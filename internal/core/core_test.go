package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"e2clab/internal/netem"
	"e2clab/internal/plantnet"
	"e2clab/internal/provenance"
	"e2clab/internal/space"
	"e2clab/internal/surrogate"
	"e2clab/internal/testbed"
)

func paperExperiment() *Experiment {
	return &Experiment{
		Name:    "plantnet",
		Testbed: testbed.Grid5000(),
		Layers: []testbed.Layer{
			{Name: "cloud", Services: []testbed.Service{
				{Name: "plantnet_engine", Quantity: 1, Cluster: "chifflot",
					Env: map[string]string{"http": "40", "download": "40", "extract": "7", "simsearch": "40"}},
			}},
			{Name: "edge", Services: []testbed.Service{
				{Name: "client", Quantity: 8, Cluster: "chiclet"},
			}},
		},
		Network: netem.New(netem.Rule{Src: "edge", Dst: "cloud", DelayMS: 2, RateGbps: 10, Symmetric: true}),
	}
}

func TestExperimentValidateAndDeploy(t *testing.T) {
	e := paperExperiment()
	d, err := e.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	defer d.ReleaseAll()
	if d.NodeCount() != 9 {
		t.Errorf("deployed %d nodes", d.NodeCount())
	}
}

func TestExperimentValidationErrors(t *testing.T) {
	cases := []func(*Experiment){
		func(e *Experiment) { e.Name = "" },
		func(e *Experiment) { e.Testbed = nil },
		func(e *Experiment) { e.Layers = nil },
		func(e *Experiment) { e.Layers[0].Name = "" },
		func(e *Experiment) { e.Layers[0].Services = nil },
		func(e *Experiment) { e.Layers[0].Services[0].Cluster = "mars" },
		func(e *Experiment) { e.Layers = append(e.Layers, e.Layers[0]) }, // duplicate layer
		func(e *Experiment) {
			e.Network = netem.New(netem.Rule{Src: "edge", Dst: "nowhere"})
		},
	}
	for i, mutate := range cases {
		e := paperExperiment()
		mutate(e)
		if err := e.Validate(); err == nil {
			t.Errorf("case %d: invalid experiment accepted", i)
		}
	}
}

// TestListing1Reproduction runs the full user-facing stack of Listing 1:
// SkOpt search (ET, LHS, gp_hedge) + ConcurrencyLimiter(2) + ASHA +
// num_samples on the Pl@ntNet problem, against a fast synthetic surface,
// with the archive capturing prepare/launch/finalize artifacts.
func TestListing1Reproduction(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "backup")
	m, err := NewManager(Spec{
		Problem: space.PlantNetProblem(),
		Search: SearchSpec{Algorithm: "skopt", BaseEstimator: "ET",
			NInitialPoints: 8, InitialPointGenerator: "lhs", AcqFunc: "gp_hedge"},
		NumSamples:    24,
		MaxConcurrent: 2,
		UseASHA:       true,
		Seed:          17,
		ArchiveDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := func(ev *Evaluation) (float64, error) {
		x := ev.X
		return 2.4 + math.Pow(x[0]-54, 2)/800 + math.Pow(x[3]-6, 2)/40, nil
	}
	res, err := m.Optimize(obj)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestY > 2.6 {
		t.Errorf("best objective %.3f, optimization ineffective", res.BestY)
	}
	// Phase III summary archived and re-readable.
	a, err := provenance.NewArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := a.ReadSummary()
	if err != nil {
		t.Fatal(err)
	}
	if sum.SearchAlg != "skopt" || sum.Hyperparams["base_estimator"] != "ET" ||
		sum.Hyperparams["acq_func"] != "gp_hedge" || sum.Scheduler != "async_hyperband" {
		t.Errorf("summary methods wrong: %+v", sum)
	}
	if sum.Evaluations != 24 || sum.NumSamples != 24 || sum.MaxConcurrent != 2 {
		t.Errorf("summary counts wrong: %+v", sum)
	}
	evals, err := a.Evaluations()
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 24 {
		t.Errorf("archived %d evaluations, want 24", len(evals))
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := NewManager(Spec{}); err == nil {
		t.Error("nil problem accepted")
	}
	// A structurally valid two-objective problem is refused by the
	// single-objective Manager, with an error that says how to proceed.
	multi := &space.Problem{Name: "m", Space: space.New(space.Float("x", 0, 1)),
		Objectives: []space.Objective{{Name: "latency"}, {Name: "cost"}}}
	if err := multi.Validate(); err != nil {
		t.Fatalf("fixture must be a valid problem: %v", err)
	}
	if _, err := NewManager(Spec{Problem: multi}); err == nil {
		t.Error("multi-objective problem accepted by scalar manager")
	} else if !strings.Contains(err.Error(), "scalarize the objectives into one metric") {
		t.Errorf("multi-objective error does not say how to proceed: %v", err)
	}
	m, err := NewManager(Spec{Problem: space.PlantNetProblem(),
		Search: SearchSpec{Algorithm: "quantum"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Optimize(func(ev *Evaluation) (float64, error) { return 0, nil }); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := m.Optimize(nil); err == nil {
		t.Error("nil objective accepted")
	}
}

func TestManagerMetaheuristics(t *testing.T) {
	for _, alg := range []string{"ga", "de", "sa", "pso", "tabu"} {
		m, err := NewManager(Spec{
			Problem:    space.PlantNetProblem(),
			Search:     SearchSpec{Algorithm: alg},
			NumSamples: 600,
			Seed:       3,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Optimize(func(ev *Evaluation) (float64, error) {
			return math.Abs(ev.X[3] - 6), nil
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.BestY > 1 {
			t.Errorf("%s: best %.3f (x=%v)", alg, res.BestY, res.Best)
		}
		if len(res.History) != 600 {
			t.Errorf("%s: history %d", alg, len(res.History))
		}
	}
}

func TestManagerRandomSearch(t *testing.T) {
	m, err := NewManager(Spec{
		Problem:    space.PlantNetProblem(),
		Search:     SearchSpec{Algorithm: "random"},
		NumSamples: 50,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Optimize(func(ev *Evaluation) (float64, error) { return ev.X[0], nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] > 30 {
		t.Errorf("random search best http=%v after 50 draws", res.Best[0])
	}
}

func TestManagerMaximization(t *testing.T) {
	p := space.NewProblem("throughput", space.New(space.Int("x", 0, 100)),
		space.Objective{Name: "thr", Mode: space.Max})
	m, err := NewManager(Spec{Problem: p, Search: SearchSpec{Algorithm: "de"}, NumSamples: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Optimize(func(ev *Evaluation) (float64, error) { return ev.X[0], nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Best[0] < 95 {
		t.Errorf("maximization found %v, want ~100", res.Best[0])
	}
	if res.BestY < 95 {
		t.Errorf("BestY = %v", res.BestY)
	}
}

func TestEvaluationContext(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arch")
	m, err := NewManager(Spec{
		Problem:    space.PlantNetProblem(),
		NumSamples: 3,
		Repeat:     6,
		Duration:   1380,
		Seed:       2,
		ArchiveDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sawDirs, sawRepeat int
	_, err = m.Optimize(func(ev *Evaluation) (float64, error) {
		if ev.Dir != "" {
			sawDirs++
		}
		if ev.Repeat == 6 && ev.Duration == 1380 {
			sawRepeat++
		}
		return float64(ev.Index), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sawDirs != 3 || sawRepeat != 3 {
		t.Errorf("evaluation context incomplete: dirs=%d repeat=%d", sawDirs, sawRepeat)
	}
}

// TestPlantNetObjectiveEndToEnd exercises the real engine-backed objective
// with a short duration.
func TestPlantNetObjectiveEndToEnd(t *testing.T) {
	m, err := NewManager(Spec{
		Problem:    space.PlantNetProblem(),
		NumSamples: 1,
		Repeat:     1,
		Duration:   120,
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := PlantNetObjective(80, 9)
	// Single evaluation via the manager machinery.
	res, err := m.Optimize(obj)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestY < 1 || res.BestY > 6 {
		t.Errorf("response time %v implausible", res.BestY)
	}
}

// TestPlantNetObjectiveRejectsWarmupOnlyRun: a run no longer than the
// engine's 60 s warmup measures nothing, so the objective fails instead of
// returning NaN, and the Manager's all-failed error carries that cause.
func TestPlantNetObjectiveRejectsWarmupOnlyRun(t *testing.T) {
	obj := PlantNetObjective(80, 9)
	y, err := obj(&Evaluation{X: plantnet.Baseline.Vector(), Repeat: 1, Duration: 30})
	if err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Fatalf("30 s run: got %v, %v; want a warmup error", y, err)
	}
	m, err := NewManager(Spec{Problem: space.PlantNetProblem(), NumSamples: 2, Repeat: 1, Duration: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Optimize(obj); err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Errorf("Optimize = %v, want the evaluations' warmup error", err)
	}
}

// TestArchivedModelReloadable: a skopt run with an archive produces a
// serialized surrogate that reloads and predicts.
func TestArchivedModelReloadable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "arch")
	m, err := NewManager(Spec{
		Problem:    space.PlantNetProblem(),
		NumSamples: 12,
		Seed:       41,
		ArchiveDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Optimize(func(ev *Evaluation) (float64, error) {
		return ev.X[0] + ev.X[3], nil
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "model.json"))
	if err != nil {
		t.Fatal(err)
	}
	model, err := surrogate.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if model.Name() != "ET" {
		t.Errorf("archived model %q, want ET", model.Name())
	}
	// The surrogate learned the trend: low http+extract predicts lower.
	lo := model.Predict(space.PlantNetProblem().Space.ToUnit([]float64{20, 40, 40, 3}))
	hi := model.Predict(space.PlantNetProblem().Space.ToUnit([]float64{60, 40, 40, 9}))
	if lo >= hi {
		t.Errorf("archived model lost the trend: lo=%v hi=%v", lo, hi)
	}
}

// TestEndToEndDeterminism: two identical manager runs produce identical
// summaries — the reproducibility invariant of the whole stack.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() Summary2 {
		m, err := NewManager(Spec{
			Problem:       space.PlantNetProblem(),
			NumSamples:    10,
			MaxConcurrent: 1, // deterministic tell order
			Seed:          77,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Optimize(func(ev *Evaluation) (float64, error) {
			return math.Pow(ev.X[0]-54, 2) + math.Pow(ev.X[3]-6, 2), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return Summary2{Best: res.Best, BestY: res.BestY}
	}
	a, b := run(), run()
	if a.BestY != b.BestY {
		t.Errorf("BestY diverged: %v vs %v", a.BestY, b.BestY)
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Errorf("Best diverged: %v vs %v", a.Best, b.Best)
		}
	}
}

// Summary2 is a minimal comparable result for the determinism test.
type Summary2 struct {
	Best  []float64
	BestY float64
}
