package scenario

import (
	"testing"

	"e2clab/internal/config"
	"e2clab/internal/fault"
	"e2clab/internal/resilience"
)

// BenchmarkSuite tracks the cost of a full standard-suite campaign at a
// short protocol (60 s scenarios, 1 repeat) — the suite-runner entry in
// the perf-trajectory snapshots (scripts/bench.sh).
// BenchmarkNetworkPath tracks the cost of a simulated-network scenario
// with a loaded uplink: 40 clients' uploads queue on 20 LTE gateway pipes
// and a congested shared backhaul, so the hot path exercises link
// serialization, loss retransmission, and the pooled transfer freelists.
func BenchmarkNetworkPath(b *testing.B) {
	sc := Scenario{
		Name:         "bench-netpath",
		NetworkModel: "simulated",
		Gateways: []GatewayClass{
			{Name: "lte", Count: 20, DelayMS: 45, RateGbps: 0.05, LossPct: 1},
		},
		ClientsPerGateway: 2,
		Degradation: []config.NetworkRule{
			{Src: "fog", Dst: "cloud", DelayMS: 20, RateGbps: 0.5, Symmetric: true},
		},
		DurationSeconds: 120,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(42); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultedCampaign tracks a FaultSweep campaign through the event
// kernel: the same base scenario under no faults, gateway churn, and
// churn + replica crash. It prices the fault-injection hot paths (timer
// cancellation on crash, in-flight reassignment on churn, link restores)
// on top of the simulated-network transport.
func BenchmarkFaultedCampaign(b *testing.B) {
	base := Scenario{
		Name:         "bench-chaos",
		NetworkModel: "simulated",
		Replicas:     2,
		Gateways: []GatewayClass{
			{Name: "fiber", Count: 16, DelayMS: 2, RateGbps: 10},
			{Name: "lte", Count: 4, DelayMS: 45, RateGbps: 0.05},
		},
		DurationSeconds: 120,
	}
	s := Suite{
		Name: "bench-fault-sweep", Seed: 42, DurationSeconds: 120,
		Scenarios: FaultSweep(base, []FaultProfile{
			{Name: "none", Spec: nil},
			{Name: "churn", Spec: &fault.Spec{
				GatewayChurn: &fault.Churn{MeanUpSeconds: 40, MeanDownSeconds: 10},
			}},
			{Name: "churn-crash", Spec: &fault.Spec{
				GatewayChurn:   &fault.Churn{MeanUpSeconds: 40, MeanDownSeconds: 10},
				ReplicaCrashes: []fault.Crash{{Replica: 1, AtSeconds: 50, RecoverAfterSeconds: 25}},
				LinkFlaps:      []fault.Flap{{Gateway: 0, FirstAtSeconds: 20, DownSeconds: 6, PeriodSeconds: 45}},
			}},
		}),
	}
	b.ReportAllocs()
	reportScenarios(b, len(s.Scenarios))
	for i := 0; i < b.N; i++ {
		sr, err := RunSuite(s, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for j, e := range sr.Errs {
			if e != nil {
				b.Fatalf("scenario %d: %v", j, e)
			}
		}
	}
}

// reportScenarios emits the campaign's scenario count as a benchmark metric
// so the snapshot scripts can price campaigns per scenario: a suite that
// grows from 9 to 14 scenarios costs more per op without being slower.
func reportScenarios(b *testing.B, n int) {
	b.ReportMetric(float64(n), "scenarios")
}

// BenchmarkResilientCampaign tracks a ResilienceSweep campaign: the
// BenchmarkFaultedCampaign chaos schedule re-run policy-free, with bounded
// retries, and with retry + hedging + failover. It prices the resilience
// hot paths (per-request policy substream, deadline checks at the pipeline
// checkpoints, hedge timer churn, breaker bookkeeping, gateway re-routes)
// on top of the faulted simulated-network transport.
func BenchmarkResilientCampaign(b *testing.B) {
	base := Scenario{
		Name:         "bench-resilient",
		NetworkModel: "simulated",
		Replicas:     2,
		Gateways: []GatewayClass{
			{Name: "fiber", Count: 16, DelayMS: 2, RateGbps: 10},
			{Name: "lte", Count: 4, DelayMS: 45, RateGbps: 0.05},
		},
		DurationSeconds: 120,
		Faults: &fault.Spec{
			GatewayChurn:   &fault.Churn{MeanUpSeconds: 40, MeanDownSeconds: 10},
			ReplicaCrashes: []fault.Crash{{Replica: 1, AtSeconds: 50, RecoverAfterSeconds: 25}},
		},
	}
	s := Suite{
		Name: "bench-resilience-sweep", Seed: 42, DurationSeconds: 120,
		Scenarios: ResilienceSweep(base, []ResilienceProfile{
			{Name: "none", Policy: nil},
			{Name: "retry", Policy: &resilience.Policy{
				Retry: &resilience.Retry{Max: 3, BaseDelaySeconds: 0.25, MaxDelaySeconds: 4},
			}},
			{Name: "full", Policy: &resilience.Policy{
				TimeoutSeconds: 8,
				Retry:          &resilience.Retry{Max: 3, BaseDelaySeconds: 0.25, MaxDelaySeconds: 4},
				Hedge:          &resilience.Hedge{Quantile: 0.95},
				Failover:       true,
			}},
		}),
	}
	b.ReportAllocs()
	reportScenarios(b, len(s.Scenarios))
	for i := 0; i < b.N; i++ {
		sr, err := RunSuite(s, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for j, e := range sr.Errs {
			if e != nil {
				b.Fatalf("scenario %d: %v", j, e)
			}
		}
	}
}

func BenchmarkSuite(b *testing.B) {
	s := StandardSuite(60, 1, 42)
	b.ReportAllocs()
	reportScenarios(b, len(s.Scenarios))
	for i := 0; i < b.N; i++ {
		sr, err := RunSuite(s, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for j, e := range sr.Errs {
			if e != nil {
				b.Fatalf("scenario %d: %v", j, e)
			}
		}
	}
}
