package scenario

import (
	"math"
	"testing"

	"e2clab/internal/fault"
	"e2clab/internal/resilience"
)

// resilientScenario is faultedScenario under the retry+failover policy —
// the fixed-seed golden of the resilience layer.
func resilientScenario() Scenario {
	s := faultedScenario()
	s.Name = "golden-resilient"
	s.Resilience = &resilience.Policy{
		TimeoutSeconds: 8,
		Retry:          &resilience.Retry{Max: 3, BaseDelaySeconds: 0.25, MaxDelaySeconds: 4},
		Failover:       true,
	}
	return s
}

// Pinned values for TestResilientScenarioGoldenPin, captured from the PR
// that introduced the resilience policy layer.
const (
	goldenResCompleted    = 1208
	goldenResRespMean     = 1.6108463495097172
	goldenResRerouted     = 156
	goldenResAvailability = 1.0
)

// TestResilientScenarioGoldenPin pins a policied fixed-seed scenario
// bit-for-bit: the policy substream derivation, failover routing, and the
// retry backoff draws are all part of the determinism contract. If this
// fails, understand the reordering before updating the values.
func TestResilientScenarioGoldenPin(t *testing.T) {
	r, err := resilientScenario().Run(55)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != goldenResCompleted {
		t.Errorf("Completed = %d, want %d", r.Completed, goldenResCompleted)
	}
	if math.Float64bits(r.RespMean) != math.Float64bits(goldenResRespMean) {
		t.Errorf("RespMean = %.17g, want %.17g (bit-exact)", r.RespMean, goldenResRespMean)
	}
	if r.Rerouted != goldenResRerouted {
		t.Errorf("Rerouted = %d, want %d", r.Rerouted, goldenResRerouted)
	}
	if math.Float64bits(r.Availability) != math.Float64bits(goldenResAvailability) {
		t.Errorf("Availability = %.17g, want %.17g (bit-exact)", r.Availability, goldenResAvailability)
	}
}

// TestResilienceSweepSuiteParallelDeterminism: a ResilienceSweep campaign
// — identical chaos, escalating policies — stays bit-identical at any
// suite parallelism, policy counters included (bits covers all 28 fields).
func TestResilienceSweepSuiteParallelDeterminism(t *testing.T) {
	base := faultedScenario()
	base.Name = "slo"
	s := Suite{
		Name: "resilience-sweep", Seed: 11, DurationSeconds: 120,
		Scenarios: ResilienceSweep(base, []ResilienceProfile{
			{Name: "none", Policy: nil},
			{Name: "retry", Policy: &resilience.Policy{
				Retry: &resilience.Retry{Max: 3, BaseDelaySeconds: 0.25, MaxDelaySeconds: 4},
			}},
			{Name: "retry-failover", Policy: &resilience.Policy{
				TimeoutSeconds: 8,
				Retry:          &resilience.Retry{Max: 3, BaseDelaySeconds: 0.25, MaxDelaySeconds: 4},
				Failover:       true,
			}},
		}),
	}
	seq := mustRun(t, s, Options{Parallel: 1})
	par := mustRun(t, s, Options{Parallel: 4})
	for i := range seq.Results {
		if dump(seq.Results[i]) != dump(par.Results[i]) {
			t.Errorf("scenario %d (%s): parallel policied result differs from sequential",
				i, seq.Results[i].Name)
		}
	}
	// The policies must actually bite in the policied rows.
	if seq.Results[1].Retries == 0 {
		t.Error("retry profile produced no retries")
	}
	if seq.Results[2].Rerouted == 0 {
		t.Error("failover profile produced no re-routes")
	}
	if r := seq.Results[0]; r.Retries != 0 || r.Rerouted != 0 || r.Hedges != 0 {
		t.Error("policy-free profile reported resilience outcomes")
	}
}

// TestResilienceSweepCloneIsolation: mutating one family member's policy
// must not leak into the base scenario or its siblings.
func TestResilienceSweepCloneIsolation(t *testing.T) {
	base := faultedScenario()
	base.Resilience = &resilience.Policy{Retry: &resilience.Retry{Max: 2}}
	fam := ResilienceSweep(base, []ResilienceProfile{
		{Name: "a", Policy: &resilience.Policy{Retry: &resilience.Retry{Max: 3}}},
		{Name: "b", Policy: &resilience.Policy{Retry: &resilience.Retry{Max: 4}}},
	})
	fam[0].Resilience.Retry.Max = 9
	fam[0].Faults.ReplicaCrashes[0].Replica = 7
	if base.Resilience.Retry.Max != 2 {
		t.Error("sweep mutated the base policy")
	}
	if fam[1].Resilience.Retry.Max != 4 {
		t.Error("sweep members share policy state")
	}
	if base.Faults.ReplicaCrashes[0].Replica == 7 {
		t.Error("sweep mutated the base fault schedule")
	}
}

// TestAvailabilitySLOImprovement: under the chaos-heavy fault profile,
// retry+failover strictly improves the availability fraction with bounded
// retry amplification — the acceptance sweep of the resilience layer.
func TestAvailabilitySLOImprovement(t *testing.T) {
	plain, err := faultedScenario().Run(55)
	if err != nil {
		t.Fatal(err)
	}
	if plain.FailedRequests == 0 || plain.Availability >= 1 {
		t.Fatalf("chaos baseline lost nothing (failed=%d, availability=%v) — the comparison is vacuous",
			plain.FailedRequests, plain.Availability)
	}
	pol, err := resilientScenario().Run(55)
	if err != nil {
		t.Fatal(err)
	}
	if !(pol.Availability > plain.Availability) {
		t.Errorf("policied availability %v not strictly above unpolicied %v",
			pol.Availability, plain.Availability)
	}
	// Bounded amplification: at most Retry.Max extra attempts per logical
	// request that needed any.
	if max := 3 * (pol.FailedRequests + pol.RetrySuccesses); pol.Retries > max {
		t.Errorf("retry amplification: %d retries > bound %d", pol.Retries, max)
	}
}

// TestPhasedFaultTimelineIsContinuous: with the windowed lowering, a
// phased workload shares ONE wall-clock fault timeline — a crash
// scheduled past the first phase's duration still fires, inside the
// phase whose window contains it. (Under the old per-phase replay,
// AtSeconds beyond the phase duration could never fire at all.)
func TestPhasedFaultTimelineIsContinuous(t *testing.T) {
	s := Scenario{
		Name:     "phased-crash",
		Replicas: 2,
		Gateways: []GatewayClass{
			{Name: "fiber", Count: 4, DelayMS: 2, RateGbps: 10},
		},
		ClientsPerGateway: 4,
		DurationSeconds:   300, // bursty => 6 phases of 50 s
		Workload:          Shape{Kind: "bursty"},
		Faults: &fault.Spec{ReplicaCrashes: []fault.Crash{
			{Replica: 1, AtSeconds: 120, RecoverAfterSeconds: 30},
		}},
	}
	r, err := s.Run(9)
	if err != nil {
		t.Fatal(err)
	}
	if r.Phases != 6 {
		t.Fatalf("Phases = %d, want 6", r.Phases)
	}
	if r.CrashRequeues == 0 {
		t.Error("crash at t=120 of a 6x50 s phased run never fired — the timeline is not continuous")
	}
	// Repeatable: the windowed lowering draws its compile seed from the
	// scenario seeder, so the whole phased-faulted run is deterministic.
	r2, err := s.Run(9)
	if err != nil {
		t.Fatal(err)
	}
	if dump(r) != dump(r2) {
		t.Error("phased-faulted run is not deterministic")
	}
}
