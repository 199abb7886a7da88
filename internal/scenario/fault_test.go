package scenario

import (
	"math"
	"path/filepath"
	"testing"

	"e2clab/internal/fault"
	"e2clab/internal/workload"
)

// faultedScenario is the fixed-seed churn+crash+flap scenario behind the
// golden pin and the sweep-determinism tests.
func faultedScenario() Scenario {
	return Scenario{
		Name:         "golden-faulted",
		NetworkModel: "simulated",
		Replicas:     2,
		Gateways: []GatewayClass{
			{Name: "fiber", Count: 4, DelayMS: 2, RateGbps: 10},
			{Name: "lte", Count: 2, DelayMS: 45, RateGbps: 0.05},
		},
		ClientsPerGateway: 2,
		DurationSeconds:   150,
		Faults: &fault.Spec{
			GatewayChurn:   &fault.Churn{MeanUpSeconds: 50, MeanDownSeconds: 12},
			ReplicaCrashes: []fault.Crash{{Replica: 1, AtSeconds: 60, RecoverAfterSeconds: 30}},
			LinkFlaps:      []fault.Flap{{Gateway: 0, FirstAtSeconds: 40, DownSeconds: 8, PeriodSeconds: 55}},
		},
	}
}

// Pinned values for TestFaultedScenarioGoldenPin, captured from the PR that
// introduced fault injection.
const (
	goldenFaultCompleted  = 1201
	goldenFaultRespMean   = 1.5361568230053009
	goldenFaultThroughput = 7.8818181818181818
	goldenFaultGwFails    = 22
	goldenFaultRequeues   = 6
)

// TestFaultedScenarioGoldenPin pins a faulted fixed-seed scenario
// bit-for-bit: the fault timeline compilation, the failover RNG streams,
// and the churned event order are all part of the determinism contract. If
// this fails, understand the reordering before updating the values.
func TestFaultedScenarioGoldenPin(t *testing.T) {
	r, err := faultedScenario().Run(55)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != goldenFaultCompleted {
		t.Errorf("Completed = %d, want %d", r.Completed, goldenFaultCompleted)
	}
	if math.Float64bits(r.RespMean) != math.Float64bits(goldenFaultRespMean) {
		t.Errorf("RespMean = %.17g, want %.17g (bit-exact)", r.RespMean, goldenFaultRespMean)
	}
	if math.Float64bits(r.Throughput) != math.Float64bits(goldenFaultThroughput) {
		t.Errorf("Throughput = %.17g, want %.17g (bit-exact)", r.Throughput, goldenFaultThroughput)
	}
	if r.GatewayFailures != goldenFaultGwFails {
		t.Errorf("GatewayFailures = %d, want %d", r.GatewayFailures, goldenFaultGwFails)
	}
	if r.CrashRequeues != goldenFaultRequeues {
		t.Errorf("CrashRequeues = %d, want %d", r.CrashRequeues, goldenFaultRequeues)
	}
}

// TestFaultSweepSuiteParallelDeterminism: a FaultSweep campaign — the
// failure-rate sweep `experiments suite` exposes — stays bit-identical at
// any suite parallelism, fault counters included.
func TestFaultSweepSuiteParallelDeterminism(t *testing.T) {
	base := faultedScenario()
	base.Name = "chaos"
	base.Faults = nil
	s := Suite{
		Name: "fault-sweep", Seed: 11, DurationSeconds: 120,
		Scenarios: FaultSweep(base, []FaultProfile{
			{Name: "none", Spec: nil},
			{Name: "churn", Spec: &fault.Spec{
				GatewayChurn: &fault.Churn{MeanUpSeconds: 40, MeanDownSeconds: 10},
			}},
			{Name: "churn-crash", Spec: &fault.Spec{
				GatewayChurn:   &fault.Churn{MeanUpSeconds: 40, MeanDownSeconds: 10},
				ReplicaCrashes: []fault.Crash{{Replica: 0, AtSeconds: 50, RecoverAfterSeconds: 25}},
			}},
		}),
	}
	seq := mustRun(t, s, Options{Parallel: 1})
	par := mustRun(t, s, Options{Parallel: 4})
	for i := range seq.Results {
		if dump(seq.Results[i]) != dump(par.Results[i]) {
			t.Errorf("scenario %d (%s): parallel faulted result differs from sequential",
				i, seq.Results[i].Name)
		}
	}
	// The schedule must actually bite in the faulted rows.
	if seq.Results[1].GatewayFailures == 0 {
		t.Error("churn profile produced no gateway failures")
	}
	if seq.Results[2].CrashRequeues == 0 {
		t.Error("crash profile produced no requeues")
	}
	if seq.Results[0].GatewayFailures != 0 || seq.Results[0].DroppedArrivals != 0 {
		t.Error("fault-free profile reported fault outcomes")
	}
}

// TestSuiteCheckpointInvalidatedByFaultChange: editing the fault schedule
// changes the scenario fingerprint, so a resumed campaign re-runs it
// instead of serving results from a different failure regime.
func TestSuiteCheckpointInvalidatedByFaultChange(t *testing.T) {
	sc := faultedScenario()
	sc.DurationSeconds = 90
	s := Suite{Name: "faulted-ck", Seed: 4, Scenarios: []Scenario{sc}}
	ckpt := filepath.Join(t.TempDir(), "suite.json")
	mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})

	// Unchanged spec resumes.
	sr := mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})
	if sr.Resumed != 1 || sr.Executed != 0 {
		t.Fatalf("unchanged faulted scenario did not resume: executed=%d resumed=%d",
			sr.Executed, sr.Resumed)
	}

	// Moving the crash invalidates.
	s.Scenarios[0].Faults.ReplicaCrashes[0].AtSeconds = 70
	sr = mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})
	if sr.Resumed != 0 || sr.Executed != 1 {
		t.Errorf("fault change not fingerprinted: executed=%d resumed=%d", sr.Executed, sr.Resumed)
	}

	// Dropping the schedule entirely invalidates too.
	s.Scenarios[0].Faults = nil
	sr = mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})
	if sr.Resumed != 0 || sr.Executed != 1 {
		t.Errorf("fault removal not fingerprinted: executed=%d resumed=%d", sr.Executed, sr.Resumed)
	}
}

// TestFaultValidationAtScenarioLevel: schedules are cross-checked against
// the scenario topology before anything runs.
func TestFaultValidationAtScenarioLevel(t *testing.T) {
	base := faultedScenario()

	analytical := base
	analytical.NetworkModel = ""
	if err := analytical.Validate(); err == nil {
		t.Error("churn+flap schedule accepted on the analytical model")
	}

	badReplica := faultedScenario()
	badReplica.Faults.ReplicaCrashes[0].Replica = 7
	if err := badReplica.Validate(); err == nil {
		t.Error("crash beyond the replica count accepted")
	}

	badGateway := faultedScenario()
	badGateway.Faults.LinkFlaps[0].Gateway = 99
	if err := badGateway.Validate(); err == nil {
		t.Error("flap beyond the gateway count accepted")
	}

	fogBackhaul := faultedScenario()
	fogBackhaul.EngineLayer = "fog"
	fogBackhaul.Faults.LinkFlaps[0].Gateway = fault.Backhaul
	if err := fogBackhaul.Validate(); err == nil {
		t.Error("backhaul flap accepted on a fog placement with no backhaul")
	}

	if err := base.Validate(); err != nil {
		t.Errorf("valid faulted scenario rejected: %v", err)
	}
}

// Pinned values for TestPacketScenarioGoldenPin.
const (
	goldenPacketCompleted = 838
	goldenPacketRespMean  = 2.8191034601521952
)

// TestPacketScenarioGoldenPin pins the packet network model on the golden
// simnet topology and checks it actually diverges from whole-payload
// transport (same spec, same seed, different loss accounting).
func TestPacketScenarioGoldenPin(t *testing.T) {
	sc := Scenario{
		Name:         "golden-packet",
		NetworkModel: "packet",
		Gateways: []GatewayClass{
			{Name: "fiber", Count: 6, DelayMS: 2, RateGbps: 10},
			{Name: "lte", Count: 4, DelayMS: 45, RateGbps: 0.05, LossPct: 1},
		},
		ClientsPerGateway: 2,
		DurationSeconds:   120,
	}
	r, err := sc.Run(77)
	if err != nil {
		t.Fatal(err)
	}
	if r.NetModel != "packet" {
		t.Errorf("NetModel = %q, want packet", r.NetModel)
	}
	if r.Completed != goldenPacketCompleted {
		t.Errorf("Completed = %d, want %d", r.Completed, goldenPacketCompleted)
	}
	if math.Float64bits(r.RespMean) != math.Float64bits(goldenPacketRespMean) {
		t.Errorf("RespMean = %.17g, want %.17g (bit-exact)", r.RespMean, goldenPacketRespMean)
	}
	// Same topology and seed under whole-payload transport must differ —
	// otherwise the packet flag is dead.
	whole := sc
	whole.NetworkModel = "simulated"
	w, err := whole.Run(77)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(w.RespMean) == math.Float64bits(r.RespMean) {
		t.Error("packet and whole-payload transport produced identical results")
	}
}

// TestTraceScenario: a recorded trace drives one continuous open-loop run;
// the Result reports the trace's bins as its phases and the run is
// deterministic in its seed.
func TestTraceScenario(t *testing.T) {
	sc := Scenario{
		Name:     "traced",
		Gateways: []GatewayClass{{Name: "g", Count: 4, DelayMS: 2, RateGbps: 10}},
		Workload: Shape{Kind: "trace", Trace: &workload.Trace{
			BinSeconds: 30,
			Counts:     []float64{60, 150, 240, 120, 60},
		}},
		DurationSeconds: 150,
	}
	a, err := sc.Run(19)
	if err != nil {
		t.Fatal(err)
	}
	if a.Phases != 5 {
		t.Errorf("Phases = %d, want 5 (one per trace bin)", a.Phases)
	}
	if a.Completed == 0 {
		t.Error("trace-driven run completed nothing")
	}
	b, err := sc.Run(19)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.RespMean) != math.Float64bits(b.RespMean) || a.Completed != b.Completed {
		t.Error("trace scenario not deterministic for a fixed seed")
	}

	// Sweep naming + required trace.
	family := TraceSweep(sc, []NamedTrace{{Name: "day1", Trace: sc.Workload.Trace}})
	if len(family) != 1 || family[0].Name != "traced-day1" {
		t.Errorf("trace sweep naming wrong: %+v", family)
	}
	family[0].Workload.Trace.Counts[0] = 999
	if sc.Workload.Trace.Counts[0] != 60 {
		t.Error("trace sweep shares its trace with the base")
	}
	bad := sc
	bad.Workload = Shape{Kind: "trace"}
	if bad.Validate() == nil {
		t.Error("trace kind without a trace accepted")
	}
}

// TestFaultSweepCloneIsolation: profiles are deep-copied into the family —
// mutating one generated scenario's schedule must not leak into the
// profile or its siblings.
func TestFaultSweepCloneIsolation(t *testing.T) {
	spec := &fault.Spec{ReplicaCrashes: []fault.Crash{{Replica: 0, AtSeconds: 10}}}
	base := Scenario{
		Name:     "b",
		Replicas: 1,
		Gateways: []GatewayClass{{Name: "g", Count: 2, DelayMS: 2}},
	}
	family := FaultSweep(base, []FaultProfile{{Name: "p1", Spec: spec}, {Name: "p2", Spec: spec}})
	if family[0].Name != "b-p1" || family[1].Name != "b-p2" {
		t.Fatalf("fault sweep naming wrong: %q, %q", family[0].Name, family[1].Name)
	}
	family[0].Faults.ReplicaCrashes[0].AtSeconds = 99
	if spec.ReplicaCrashes[0].AtSeconds != 10 {
		t.Error("fault sweep mutated the source profile")
	}
	if family[1].Faults.ReplicaCrashes[0].AtSeconds != 10 {
		t.Error("fault sweep shares schedules between siblings")
	}
	if base.Faults != nil {
		t.Error("fault sweep mutated its base")
	}
	// clone() itself isolates too.
	c := clone(family[1])
	c.Faults.ReplicaCrashes[0].AtSeconds = 77
	if family[1].Faults.ReplicaCrashes[0].AtSeconds != 10 {
		t.Error("clone shares the fault schedule")
	}
}

// TestContinuousCalibrationTightensCorrespondence: with RatePerClient
// unset, the continuous lowering probes the configuration's own
// closed-loop throughput instead of assuming the global 0.35 req/s — on a
// lightly-loaded deployment (short request cycle, per-client rate well
// above 0.35) the calibrated open-loop run must track the phased form far
// more closely than the old constant does.
func TestContinuousCalibrationTightensCorrespondence(t *testing.T) {
	base := Scenario{
		Name:              "corr",
		Gateways:          []GatewayClass{{Name: "g", Count: 4, DelayMS: 2, RateGbps: 10}},
		ClientsPerGateway: 2,
		DurationSeconds:   240,
	}
	phased, err := base.Run(23)
	if err != nil {
		t.Fatal(err)
	}
	calibrated := base
	calibrated.Workload = Shape{Continuous: true}
	cal, err := calibrated.Run(23)
	if err != nil {
		t.Fatal(err)
	}
	forced := base
	forced.Workload = Shape{Continuous: true, RatePerClient: 0.35}
	old, err := forced.Run(23)
	if err != nil {
		t.Fatal(err)
	}
	gap := func(r *Result) float64 {
		return math.Abs(r.Throughput-phased.Throughput) / phased.Throughput
	}
	if g := gap(cal); g > 0.15 {
		t.Errorf("calibrated continuous throughput %0.3f vs phased %0.3f: gap %.3f > 15%%",
			cal.Throughput, phased.Throughput, g)
	}
	if gap(cal) >= gap(old) {
		t.Errorf("calibration did not tighten correspondence: calibrated gap %.3f >= 0.35-default gap %.3f",
			gap(cal), gap(old))
	}
	// An explicit rate is honored verbatim: the old default's demand is
	// roughly 0.35 x clients, far below this configuration's capacity.
	if old.Throughput >= cal.Throughput {
		t.Errorf("forced 0.35 throughput %0.3f not below calibrated %0.3f",
			old.Throughput, cal.Throughput)
	}
}
