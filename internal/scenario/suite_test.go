package scenario

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"e2clab/internal/config"
	"e2clab/internal/plantnet"
)

// testSuite is a small but diverse fixed-seed suite: topology sweep,
// degradation, heterogeneous mix, fog placement, and a shaped workload —
// five scenarios, short durations so the whole suite runs in tens of
// milliseconds.
func testSuite() Suite {
	base := Scenario{
		Name:     "base",
		Replicas: 1,
		Pools:    plantnet.Baseline,
		Gateways: []GatewayClass{
			{Name: "fiber", Count: 10, DelayMS: 2, RateGbps: 10},
		},
		ClientsPerGateway: 2,
	}
	scenarios := GatewaySweep(base, []int{10, 20})
	scenarios = append(scenarios, DegradationSweep(base, []Degradation{
		{Name: "lossy", Rules: []config.NetworkRule{
			{Src: "edge", Dst: "fog", DelayMS: 30, LossPct: 5, Symmetric: true},
		}},
	})...)
	fog := base
	fog.Name = "fog-offload"
	fog.EngineLayer = "fog"
	scenarios = append(scenarios, fog)
	scenarios = append(scenarios, ShapeSweep(base, []Shape{{Kind: "bursty", Phases: 2}})...)
	return Suite{
		Name:            "test-suite",
		Seed:            7,
		DurationSeconds: 60,
		Repeats:         2,
		Scenarios:       scenarios,
	}
}

// dump renders every Result field, floats in their shortest exact form,
// for whole-Result comparison. It is deliberately independent of the
// checkpoint layout: a field the checkpoint drops fails the resume tests.
func dump(r *Result) string { return fmt.Sprintf("%#v", *r) }

func mustRun(t *testing.T, s Suite, opts Options) *SuiteResult {
	t.Helper()
	sr, err := RunSuite(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range sr.Errs {
		if e != nil {
			t.Fatalf("scenario %d failed: %v", i, e)
		}
	}
	return sr
}

func TestSuiteParallelMatchesSequentialBitExact(t *testing.T) {
	s := testSuite()
	if len(s.Scenarios) < 5 {
		t.Fatalf("test suite has %d scenarios, want >= 5", len(s.Scenarios))
	}
	seq := mustRun(t, s, Options{Parallel: 1})
	par := mustRun(t, s, Options{Parallel: 4})
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		if dump(seq.Results[i]) != dump(par.Results[i]) {
			t.Errorf("scenario %d (%s): parallel result differs from sequential\nseq: %+v\npar: %+v",
				i, seq.Results[i].Name, seq.Results[i], par.Results[i])
		}
	}
	// The rendered comparison table — the user-facing aggregate — must be
	// byte-identical too.
	if ComparisonTable(seq).String() != ComparisonTable(par).String() {
		t.Error("comparison tables differ between sequential and parallel runs")
	}
}

func TestSuiteInterruptResumeSkipsCompleted(t *testing.T) {
	s := testSuite()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "suite.json")

	// Reference: one uninterrupted run, no checkpoint.
	ref := mustRun(t, s, Options{Parallel: 1})

	// Kill the suite after 2 scenarios.
	const killAfter = 2
	partial, err := RunSuite(s, Options{Parallel: 1, CheckpointPath: ckpt, InterruptAfter: killAfter})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if partial.Executed != killAfter {
		t.Fatalf("executed %d scenarios before the kill, want %d", partial.Executed, killAfter)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written before the kill: %v", err)
	}

	// Resume: completed scenarios must be skipped, the rest executed, and
	// the final aggregates bit-identical to the uninterrupted run.
	var events []string
	resumed, err := RunSuite(s, Options{Parallel: 1, CheckpointPath: ckpt,
		Logger: func(ev string, i int, name string) { events = append(events, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != killAfter {
		t.Errorf("resumed %d scenarios from checkpoint, want %d", resumed.Resumed, killAfter)
	}
	if want := len(s.Scenarios) - killAfter; resumed.Executed != want {
		t.Errorf("re-ran %d scenarios, want %d (completed ones must not re-run)", resumed.Executed, want)
	}
	for i := range ref.Results {
		if dump(ref.Results[i]) != dump(resumed.Results[i]) {
			t.Errorf("scenario %d (%s): resumed result differs from uninterrupted run",
				i, ref.Results[i].Name)
		}
	}
	if ComparisonTable(ref).String() != ComparisonTable(resumed).String() {
		t.Error("comparison tables differ between uninterrupted and resumed runs")
	}

	// A third run over the now-complete checkpoint re-runs nothing.
	again, err := RunSuite(s, Options{Parallel: 1, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if again.Executed != 0 || again.Resumed != len(s.Scenarios) {
		t.Errorf("complete checkpoint: executed=%d resumed=%d, want 0/%d",
			again.Executed, again.Resumed, len(s.Scenarios))
	}
}

func TestSuiteInterruptBoundHoldsUnderParallelPool(t *testing.T) {
	// The InterruptAfter bound cuts the pending list before the pool
	// starts: even with several workers, no more than InterruptAfter
	// scenarios execute.
	s := testSuite()
	ckpt := filepath.Join(t.TempDir(), "suite.json")
	partial, err := RunSuite(s, Options{Parallel: 3, CheckpointPath: ckpt, InterruptAfter: 2})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if partial.Executed != 2 {
		t.Errorf("executed %d scenarios, want exactly 2", partial.Executed)
	}
	// Resume with a parallel pool still re-runs only the remainder and
	// matches the uninterrupted aggregates bit-exactly.
	ref := mustRun(t, s, Options{Parallel: 1})
	resumed := mustRun(t, s, Options{Parallel: 3, CheckpointPath: ckpt})
	if resumed.Executed+resumed.Resumed != len(s.Scenarios) || resumed.Resumed != 2 {
		t.Errorf("resume executed=%d resumed=%d", resumed.Executed, resumed.Resumed)
	}
	for i := range ref.Results {
		if dump(ref.Results[i]) != dump(resumed.Results[i]) {
			t.Errorf("scenario %d: parallel resumed result differs from sequential uninterrupted run", i)
		}
	}
}

func TestSuiteCheckpointInvalidatedBySeedChange(t *testing.T) {
	s := testSuite()
	ckpt := filepath.Join(t.TempDir(), "suite.json")
	mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})

	// Same suite, different seed: every fingerprint changes, nothing may
	// be resumed from the stale checkpoint.
	s.Seed = 8
	sr := mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})
	if sr.Resumed != 0 || sr.Executed != len(s.Scenarios) {
		t.Errorf("stale checkpoint trusted: executed=%d resumed=%d", sr.Executed, sr.Resumed)
	}
}

func TestSuiteUnreachableScenarioFails(t *testing.T) {
	// A gateway uplink composing with a degradation rule to 100% loss is
	// unreachable: expected transfer time is +Inf (netem fix), and the
	// scenario must fail rather than report a finite response time.
	sc := Scenario{
		Name:     "dead-uplink",
		Gateways: []GatewayClass{{Name: "g", Count: 2, DelayMS: 10, LossPct: 40}},
		Degradation: []config.NetworkRule{
			{Src: "edge", Dst: "fog", LossPct: 100, Symmetric: true},
		},
		DurationSeconds: 60,
	}
	if !math.IsInf(sc.NetworkOverheadSeconds(), 1) {
		t.Fatalf("overhead = %v, want +Inf", sc.NetworkOverheadSeconds())
	}
	if _, err := sc.Run(1); err == nil {
		t.Fatal("unreachable scenario ran successfully")
	}
	// In a suite it fails without sinking the other scenarios.
	s := Suite{Name: "mixed", Seed: 3, DurationSeconds: 60,
		Scenarios: []Scenario{sc, {
			Name:            "alive",
			Gateways:        []GatewayClass{{Name: "g", Count: 2, DelayMS: 2, RateGbps: 1}},
			DurationSeconds: 60,
		}}}
	sr, err := RunSuite(s, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Errs[0] == nil {
		t.Error("unreachable scenario did not fail")
	}
	if sr.Results[1] == nil || sr.Errs[1] != nil {
		t.Errorf("healthy scenario sunk by unreachable one: %v", sr.Errs[1])
	}
	// The comparison table renders the failure in place of metrics (the
	// ragged-row form the export fix guarantees renders).
	out := ComparisonTable(sr).String()
	if out == "" {
		t.Error("comparison table empty")
	}
}

// TestNonFiniteDurationRejected: a NaN or infinite duration used to pass
// Validate and then spin forever in the event loop; it must fail
// validation (checked here without running anything).
func TestNonFiniteDurationRejected(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sc := Scenario{Name: "x", Gateways: []GatewayClass{{Name: "g", Count: 2}}, DurationSeconds: d}
		if err := sc.Validate(); err == nil {
			t.Errorf("duration %v: Validate accepted it", d)
		}
		sc.DurationSeconds = 0
		s := Suite{Name: "s", DurationSeconds: d, Scenarios: []Scenario{sc}}
		if _, err := s.resolved(); err == nil {
			t.Errorf("suite duration %v: resolved accepted it", d)
		}
	}
}

// TestNonFiniteSpecRejected: a spec holding a NaN cannot be fingerprinted
// (json.Marshal refuses it), so it must not run: before, every such spec
// hashed to the seed alone and a resumed campaign could trust a stale trial.
func TestNonFiniteSpecRejected(t *testing.T) {
	sc := Scenario{Name: "nan-delay", Gateways: []GatewayClass{{Name: "g", Count: 2, DelayMS: math.NaN()}}}
	s := Suite{Name: "nan", Seed: 1, DurationSeconds: 60, Scenarios: []Scenario{sc}}
	if _, err := RunSuite(s, Options{Parallel: 1}); err == nil {
		t.Error("RunSuite accepted a NaN gateway delay")
	}
	if _, _, err := fingerprint(sc, 1); err == nil {
		t.Error("fingerprint hashed a NaN spec")
	}
}

func TestScenarioDeploymentLowersToConfig(t *testing.T) {
	sc := PaperScenario()
	cfg, err := sc.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Layers) != 3 {
		t.Fatalf("layers = %d, want 3 (edge/fog/cloud)", len(cfg.Layers))
	}
	if cfg.Layers[0].Services[0].Quantity != 40 {
		t.Errorf("gateway quantity = %d, want 40", cfg.Layers[0].Services[0].Quantity)
	}
	// Fog placement drops the cloud layer.
	sc.EngineLayer = "fog"
	cfg, err = sc.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Layers) != 2 {
		t.Fatalf("fog placement layers = %d, want 2", len(cfg.Layers))
	}
}

func TestGenerators(t *testing.T) {
	base := PaperScenario()
	sweep := GatewaySweep(base, []int{10, 40, 80})
	if len(sweep) != 3 || sweep[0].TotalGateways() != 10 || sweep[2].TotalGateways() != 80 {
		t.Errorf("gateway sweep wrong: %+v", sweep)
	}
	if base.TotalGateways() != 40 {
		t.Error("generator mutated its base scenario")
	}
	// Multi-class bases must hit the requested total exactly (largest-
	// remainder apportionment), not truncate each class independently.
	hetero := base
	hetero.Gateways = []GatewayClass{
		{Name: "fiber", Count: 24}, {Name: "lte", Count: 14}, {Name: "sat", Count: 2},
	}
	for _, total := range []int{20, 50, 77} {
		got := GatewaySweep(hetero, []int{total})[0]
		if got.TotalGateways() != total {
			t.Errorf("hetero sweep to %d gateways produced %d (%+v)",
				total, got.TotalGateways(), got.Gateways)
		}
	}
	// The at-least-one-per-class floor is the documented exception to
	// exactness: at total=10 the sat class's share rounds to zero and is
	// floored to 1.
	if got := GatewaySweep(hetero, []int{10})[0]; got.TotalGateways() != 11 {
		t.Errorf("floored sweep produced %d gateways (%+v)", got.TotalGateways(), got.Gateways)
	}
	for _, s := range PlacementSweep(base) {
		if err := s.Validate(); err != nil {
			t.Errorf("placement %q invalid: %v", s.Name, err)
		}
	}
	mixes := MixSweep(base, map[string][]GatewayClass{
		"m1": {{Name: "a", Count: 1}},
		"m2": {{Name: "b", Count: 2}},
	})
	if len(mixes) != 2 || mixes[0].Name != "paper-42-nodes-m1" {
		t.Errorf("mix sweep wrong: %+v", mixes)
	}
	deg := DegradationSweep(base, []Degradation{{Name: "x",
		Rules: []config.NetworkRule{{Src: "fog", Dst: "cloud", DelayMS: 9}}}})
	if len(deg) != 1 || len(deg[0].Degradation) != 1 {
		t.Errorf("degradation sweep wrong: %+v", deg)
	}
	if len(base.Degradation) != 0 {
		t.Error("degradation sweep mutated its base")
	}
}

func TestShapeExpansion(t *testing.T) {
	if got := (Shape{}).Expand(80, 300); len(got) != 1 || got[0].Clients != 80 || got[0].DurationSeconds != 300 {
		t.Errorf("constant shape = %+v", got)
	}
	bursty := Shape{Kind: "bursty", Phases: 4, BaseFrac: 0.25}.Expand(80, 400)
	if len(bursty) != 4 {
		t.Fatalf("bursty phases = %d", len(bursty))
	}
	if bursty[0].Clients != 20 || bursty[1].Clients != 80 {
		t.Errorf("bursty alternation wrong: %+v", bursty)
	}
	diurnal := Shape{Kind: "diurnal", Phases: 8}.Expand(100, 800)
	if len(diurnal) != 8 {
		t.Fatalf("diurnal phases = %d", len(diurnal))
	}
	if diurnal[0].Clients >= diurnal[4].Clients {
		t.Errorf("diurnal trough/crest wrong: %+v", diurnal)
	}
	if err := (Shape{Kind: "square"}).Validate(); err == nil {
		t.Error("unknown shape kind accepted")
	}
}

func TestLoadSuiteJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "suite.json")
	body := `{
  "name": "mini",
  "seed": 5,
  "duration_seconds": 60,
  "scenarios": [
    {"name": "a", "gateways": [{"name": "g", "count": 2, "delay_ms": 2}]},
    {"name": "b", "gateways": [{"name": "g", "count": 4}],
     "workload": {"kind": "diurnal", "phases": 2}}
  ]
}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSuite(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "mini" || len(s.Scenarios) != 2 || s.Scenarios[1].Workload.Kind != "diurnal" {
		t.Errorf("loaded suite = %+v", s)
	}
	if _, err := s.resolved(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"name": "x", "bogus": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSuite(path); err == nil {
		t.Error("unknown suite field accepted")
	}
}

// TestExampleSuiteFileValidates loads the suite file the README and the
// experiments -suite docs point users to, so a spec change that breaks it
// fails here rather than in a user's campaign.
func TestExampleSuiteFileValidates(t *testing.T) {
	s, err := LoadSuite(filepath.Join("..", "..", "examples", "suite", "suite.json"))
	if err != nil {
		t.Fatal(err)
	}
	// resolved applies the suite-level defaults and validates every
	// scenario, exactly as RunSuite does before running.
	scs, err := s.resolved()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 12 {
		t.Errorf("example suite has %d scenarios, want 12", len(scs))
	}
	names := make(map[string]bool, len(scs))
	for _, sc := range scs {
		if names[sc.Name] {
			t.Errorf("duplicate scenario %q", sc.Name)
		}
		names[sc.Name] = true
	}
}

func TestStandardSuiteValidates(t *testing.T) {
	s := StandardSuite(60, 1, 42)
	if len(s.Scenarios) < 5 {
		t.Fatalf("standard suite ships %d scenarios, want >= 5", len(s.Scenarios))
	}
	if _, err := s.resolved(); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, sc := range s.Scenarios {
		if names[sc.Name] {
			t.Errorf("duplicate scenario %q", sc.Name)
		}
		names[sc.Name] = true
	}
}

func TestSuiteArchiveProvenance(t *testing.T) {
	s := Suite{Name: "arch", Seed: 2, DurationSeconds: 60,
		Scenarios: []Scenario{{
			Name:     "only",
			Gateways: []GatewayClass{{Name: "g", Count: 2, DelayMS: 2, RateGbps: 1}},
		}}}
	dir := t.TempDir()
	mustRun(t, s, Options{Parallel: 1, ArchiveDir: dir})
	if _, err := os.Stat(filepath.Join(dir, "suite.json")); err != nil {
		t.Errorf("suite manifest missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "optimization_0000", "evaluation.json")); err != nil {
		t.Errorf("per-scenario record missing: %v", err)
	}
}
