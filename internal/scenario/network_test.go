package scenario

import (
	"math"
	"path/filepath"
	"testing"

	"e2clab/internal/config"
)

// TestNetworkModelEquivalenceNoContention: under zero contention (one
// client per gateway, unconstrained backhaul) the simulated network mode's
// user response time converges to the analytical figure — engine mean plus
// netem.TransferSeconds path cost.
func TestNetworkModelEquivalenceNoContention(t *testing.T) {
	sc := Scenario{
		Name: "equiv",
		Gateways: []GatewayClass{
			// Slow enough that the network share is substantial (~0.5 s of
			// a ~3.2 s response), but one client per gateway keeps every
			// uplink contention-free.
			{Name: "dsl", Count: 2, DelayMS: 50, RateGbps: 0.05},
		},
		ClientsPerGateway: 1,
		Degradation: []config.NetworkRule{
			{Src: "fog", Dst: "cloud", DelayMS: 10, Symmetric: true}, // delay-only: cannot queue
		},
		DurationSeconds: 300,
	}
	ana, err := sc.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	sim := sc
	sim.NetworkModel = "simulated"
	simRes, err := sim.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if ana.NetModel != "analytical" || simRes.NetModel != "simulated" {
		t.Errorf("NetModel labels: %q / %q", ana.NetModel, simRes.NetModel)
	}
	if ana.NetOverheadSec <= 0.3 {
		t.Fatalf("test scenario's network share too small to be meaningful: %v", ana.NetOverheadSec)
	}
	if rel := math.Abs(simRes.RespMean-ana.RespMean) / ana.RespMean; rel > 0.05 {
		t.Errorf("simulated %0.4f vs analytical %0.4f: relative gap %.3f > 5%%",
			simRes.RespMean, ana.RespMean, rel)
	}
	// Both modes report the same closed-form reference figure.
	if math.Float64bits(simRes.NetOverheadSec) != math.Float64bits(ana.NetOverheadSec) {
		t.Errorf("NetOverheadSec differs: %v vs %v", simRes.NetOverheadSec, ana.NetOverheadSec)
	}
}

// TestNetworkModelQueueingChangesResult: a congested shared backhaul makes
// the simulated response time exceed the analytical one by far more than
// the closed-form transfer cost — the result class the paper's Table-style
// comparisons get wrong without gateway queueing.
func TestNetworkModelQueueingChangesResult(t *testing.T) {
	sc := Scenario{
		Name: "congested",
		Gateways: []GatewayClass{
			{Name: "fiber", Count: 20, DelayMS: 2, RateGbps: 10},
		},
		ClientsPerGateway: 2,
		Degradation: []config.NetworkRule{
			// 40 clients' 1.2 MB uploads share 100 Mbps: ~0.1 s each solo,
			// heavily queued in aggregate.
			{Src: "fog", Dst: "cloud", DelayMS: 50, RateGbps: 0.1, Symmetric: true},
		},
		DurationSeconds: 240,
	}
	ana, err := sc.Run(9)
	if err != nil {
		t.Fatal(err)
	}
	sim := sc
	sim.NetworkModel = "simulated"
	simRes, err := sim.Run(9)
	if err != nil {
		t.Fatal(err)
	}
	if simRes.RespMean <= ana.RespMean*1.05 {
		t.Errorf("congested backhaul: simulated %0.3f not above analytical %0.3f — queueing missing",
			simRes.RespMean, ana.RespMean)
	}
}

// Pinned values for TestSimulatedScenarioGoldenPin, captured from the PR
// that introduced simulated network mode.
const (
	goldenCompleted  = 3257
	goldenRespMean   = 1.4544114799658154
	goldenStd        = 0.017059826163184643
	goldenP95        = 1.8368484686733819
	goldenThroughput = 13.761111111111111
)

// TestSimulatedScenarioGoldenPin pins one simulated-mode fixed-seed
// scenario bit-for-bit. If this fails, the simulated network path's
// determinism contract (seeded link RNG, (time, seq) event order, fixed
// aggregation order) has drifted — understand the reordering before
// updating the values.
func TestSimulatedScenarioGoldenPin(t *testing.T) {
	sc := Scenario{
		Name:         "golden-simnet",
		NetworkModel: "simulated",
		Gateways: []GatewayClass{
			{Name: "fiber", Count: 6, DelayMS: 2, RateGbps: 10},
			{Name: "lte", Count: 4, DelayMS: 45, RateGbps: 0.05, LossPct: 1},
		},
		ClientsPerGateway: 2,
		Degradation: []config.NetworkRule{
			{Src: "fog", Dst: "cloud", DelayMS: 20, RateGbps: 0.5, Symmetric: true},
		},
		DurationSeconds: 120,
		Repeats:         2,
	}
	r, err := sc.Run(77)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(field string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %.17g, want %.17g (bit-exact)", field, got, want)
		}
	}
	if r.Completed != goldenCompleted {
		t.Errorf("Completed = %d, want %d", r.Completed, goldenCompleted)
	}
	exact("RespMean", r.RespMean, goldenRespMean)
	exact("EngineResp.StdDev", r.EngineResp.StdDev, goldenStd)
	exact("RespP95", r.RespP95, goldenP95)
	exact("Throughput", r.Throughput, goldenThroughput)
}

// TestSimulatedUnreachableScenarioFails: the +Inf reachability gate applies
// in simulated mode too — a fully lossy path must fail up front, not
// strand every request on a black-hole link for the whole run.
func TestSimulatedUnreachableScenarioFails(t *testing.T) {
	sc := Scenario{
		Name:         "dead-uplink-simnet",
		NetworkModel: "simulated",
		Gateways:     []GatewayClass{{Name: "g", Count: 2, DelayMS: 10, LossPct: 40}},
		Degradation: []config.NetworkRule{
			{Src: "edge", Dst: "fog", LossPct: 100, Symmetric: true},
		},
		DurationSeconds: 60,
	}
	if _, err := sc.Run(1); err == nil {
		t.Fatal("unreachable simulated scenario ran successfully")
	}
}

// TestSuiteCheckpointInvalidatedByNetworkModelChange: flipping the network
// model — at the suite level — changes every affected scenario's
// fingerprint, so a resumed campaign re-runs instead of silently mixing
// analytical and simulated results.
func TestSuiteCheckpointInvalidatedByNetworkModelChange(t *testing.T) {
	s := testSuite()
	ckpt := filepath.Join(t.TempDir(), "suite.json")
	mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})

	s.NetworkModel = "simulated"
	sr := mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})
	if sr.Resumed != 0 || sr.Executed != len(s.Scenarios) {
		t.Errorf("model change not fingerprinted: executed=%d resumed=%d", sr.Executed, sr.Resumed)
	}

	// An explicit "analytical" fingerprints identically to the default, so
	// the (re-written, simulated) checkpoint is again fully invalidated —
	// and a default rerun after THAT resumes nothing from it either.
	s.NetworkModel = "analytical"
	sr = mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})
	if sr.Resumed != 0 {
		t.Errorf("analytical rerun resumed %d scenarios from a simulated checkpoint", sr.Resumed)
	}
	// Now the checkpoint is analytical; the spelled-out default must resume
	// everything (normalization makes "" and "analytical" the same spec).
	s.NetworkModel = ""
	sr = mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})
	if sr.Resumed != len(s.Scenarios) || sr.Executed != 0 {
		t.Errorf("default rerun after analytical: executed=%d resumed=%d", sr.Executed, sr.Resumed)
	}
}

// TestContinuousShapeScenario: a continuous bursty shape lowers to one
// piecewise-rate run (queue state carries across phases) and stays
// deterministic and resumable like everything else.
func TestContinuousShapeScenario(t *testing.T) {
	sc := Scenario{
		Name:              "burst-cont",
		Gateways:          []GatewayClass{{Name: "g", Count: 10, DelayMS: 2, RateGbps: 10}},
		ClientsPerGateway: 2,
		Workload:          Shape{Kind: "bursty", Phases: 4, Continuous: true},
		DurationSeconds:   240,
	}
	a, err := sc.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Phases != 4 {
		t.Errorf("Phases = %d, want 4 (the shape's resolution)", a.Phases)
	}
	if a.Completed == 0 || a.Throughput <= 0 {
		t.Errorf("continuous run produced nothing: %+v", a)
	}
	b, err := sc.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.RespMean) != math.Float64bits(b.RespMean) || a.Completed != b.Completed {
		t.Error("continuous scenario not deterministic for a fixed seed")
	}
	// Continuous + simulated network compose.
	both := sc
	both.NetworkModel = "simulated"
	r, err := both.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Error("continuous+simulated run produced nothing")
	}
	if bad := (Shape{RatePerClient: -1}); bad.Validate() == nil {
		t.Error("negative rate_per_client accepted")
	}
}

// TestSimulatedSuiteParallelDeterminism: a suite mixing analytical and
// simulated scenarios keeps the bit-identical-at-any-parallelism contract.
func TestSimulatedSuiteParallelDeterminism(t *testing.T) {
	s := testSuite()
	s.NetworkModel = "simulated"
	seq, err := RunSuite(s, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSuite(s, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Results {
		if seq.Errs[i] != nil || par.Errs[i] != nil {
			t.Fatalf("scenario %d failed: %v / %v", i, seq.Errs[i], par.Errs[i])
		}
		if math.Float64bits(seq.Results[i].RespMean) != math.Float64bits(par.Results[i].RespMean) {
			t.Errorf("scenario %d: simulated RespMean differs across parallelism", i)
		}
	}
	if ComparisonTable(seq).String() != ComparisonTable(par).String() {
		t.Error("simulated-mode comparison tables differ between sequential and parallel runs")
	}
}
