package plantnet

import (
	"math"
	"testing"

	"e2clab/internal/fault"
	"e2clab/internal/netem"
)

// multiGatewayModel is a 4-gateway single-class model for churn/flap tests.
func multiGatewayModel() *NetworkModel {
	return &NetworkModel{
		UploadBytes:   1.2e6,
		ResponseBytes: 5e4,
		Classes: []NetworkClass{{
			Gateways: 4,
			Up:       netem.LinkSpec{Src: "edge", Dst: "fog", DelaySec: 0.02, RateBps: 1e8},
			Down:     netem.LinkSpec{Src: "fog", Dst: "edge", DelaySec: 0.02, RateBps: 1e8},
		}},
		BackhaulUp:   []netem.LinkSpec{{Src: "fog", Dst: "cloud", DelaySec: 0.01, RateBps: 1e9}},
		BackhaulDown: []netem.LinkSpec{{Src: "cloud", Dst: "fog", DelaySec: 0.01, RateBps: 1e9}},
	}
}

func TestReplicaCrashFailover(t *testing.T) {
	base := RunOptions{Pools: Baseline, Clients: 40, Replicas: 2, Duration: 200, Seed: 9}
	healthy, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	faulted := base
	faulted.Faults = &fault.Spec{ReplicaCrashes: []fault.Crash{
		{Replica: 0, AtSeconds: 80, RecoverAfterSeconds: 60},
	}}
	m, err := Run(faulted)
	if err != nil {
		t.Fatal(err)
	}
	if m.CrashRequeues == 0 {
		t.Error("expected in-flight requests requeued off the crashed replica")
	}
	if m.CrashFailures != 0 {
		t.Errorf("CrashFailures = %d, want 0 (a replica survived)", m.CrashFailures)
	}
	if m.Completed == 0 || m.Completed >= healthy.Completed {
		t.Errorf("faulted Completed = %d, want in (0, %d)", m.Completed, healthy.Completed)
	}
	// The failover penalty must show up in the tail.
	if !(m.RespP99 > healthy.RespP99) {
		t.Errorf("faulted p99 %v not above healthy p99 %v", m.RespP99, healthy.RespP99)
	}
}

func TestAllReplicasDown(t *testing.T) {
	crash := &fault.Spec{ReplicaCrashes: []fault.Crash{{Replica: 0, AtSeconds: 30, RecoverAfterSeconds: 40}}}

	// Open loop: arrivals during the outage are dropped.
	open, err := Run(RunOptions{Pools: Baseline, OpenLoopRate: 8, Duration: 120, Seed: 5, Faults: crash})
	if err != nil {
		t.Fatal(err)
	}
	if open.DroppedArrivals == 0 {
		t.Error("open loop: expected dropped arrivals while the only replica was down")
	}
	if open.CrashFailures == 0 {
		t.Error("open loop: expected in-flight requests lost with no surviving replica")
	}

	// Closed loop: clients park and resume after recovery.
	closed, err := Run(RunOptions{Pools: Baseline, Clients: 20, Duration: 120, Seed: 5, Faults: crash})
	if err != nil {
		t.Fatal(err)
	}
	if closed.DroppedArrivals != 0 {
		t.Errorf("closed loop: DroppedArrivals = %d, want 0 (clients park)", closed.DroppedArrivals)
	}
	if closed.Completed == 0 {
		t.Error("closed loop: expected completions to resume after recovery")
	}
}

func TestGatewayChurnFailsInflight(t *testing.T) {
	opts := RunOptions{
		Pools: Baseline, Clients: 24, Duration: 240, Seed: 21,
		Network: multiGatewayModel(),
		Faults: &fault.Spec{
			GatewayChurn: &fault.Churn{MeanUpSeconds: 30, MeanDownSeconds: 15},
		},
	}
	m, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.GatewayFailures == 0 {
		t.Error("expected in-flight requests failed by departing gateways")
	}
	if m.Completed == 0 {
		t.Error("expected completions through the surviving gateways")
	}
}

func TestLinkFlapDelaysTraffic(t *testing.T) {
	base := RunOptions{Pools: Baseline, Clients: 8, Duration: 200, Seed: 13, Network: testNetModel(0)}
	healthy, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	flapped := base
	flapped.Faults = &fault.Spec{LinkFlaps: []fault.Flap{
		{Gateway: 0, FirstAtSeconds: 70, DownSeconds: 10, PeriodSeconds: 50},
	}}
	m, err := Run(flapped)
	if err != nil {
		t.Fatal(err)
	}
	// Payloads stall while the single uplink is down, so the tail must
	// absorb multi-second outages and fewer requests finish.
	if !(m.RespP99 > healthy.RespP99+5) {
		t.Errorf("flapped p99 %v not well above healthy p99 %v", m.RespP99, healthy.RespP99)
	}
	if m.Completed >= healthy.Completed {
		t.Errorf("flapped Completed = %d, want < %d", m.Completed, healthy.Completed)
	}
}

// A faulted run on a reused Runner must be bit-identical to the same run
// on a fresh Runner, and a non-faulted run after a faulted one must be
// bit-identical to a never-faulted run — the reset is complete.
func TestFaultedRunnerReuseBitIdentical(t *testing.T) {
	faulted := RunOptions{
		Pools: Baseline, Clients: 24, Duration: 150, Seed: 31,
		Network: multiGatewayModel(), Replicas: 2,
		Faults: &fault.Spec{
			GatewayChurn:   &fault.Churn{MeanUpSeconds: 40, MeanDownSeconds: 10},
			ReplicaCrashes: []fault.Crash{{Replica: 1, AtSeconds: 60, RecoverAfterSeconds: 30}},
			LinkFlaps:      []fault.Flap{{Gateway: 0, FirstAtSeconds: 45, DownSeconds: 8, PeriodSeconds: 60}},
		},
	}
	clean := faulted
	clean.Faults = nil

	fresh1, err := Run(faulted)
	if err != nil {
		t.Fatal(err)
	}
	freshClean, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner()
	for i := 0; i < 2; i++ {
		m, err := r.Run(faulted)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRun(t, fresh1, m)
	}
	m, err := r.Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, freshClean, m)
	if m.Outcomes != (Outcomes{}) {
		t.Errorf("non-faulted run reported outcomes %+v", m.Outcomes)
	}
}

func assertSameRun(t *testing.T, want, got *Metrics) {
	t.Helper()
	if got.Completed != want.Completed {
		t.Errorf("Completed = %d, want %d", got.Completed, want.Completed)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"RespMean", got.UserResponseTime.Mean, want.UserResponseTime.Mean},
		{"RespStd", got.UserResponseTime.StdDev, want.UserResponseTime.StdDev},
		{"P99", got.RespP99, want.RespP99},
		{"Throughput", got.Throughput, want.Throughput},
		{"AvailabilityFraction", got.AvailabilityFraction, want.AvailabilityFraction},
		{"Goodput", got.Goodput, want.Goodput},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s = %.17g, want %.17g (bit-exact)", f.name, f.got, f.want)
		}
	}
	if got.NetRetransmits != want.NetRetransmits {
		t.Errorf("NetRetransmits = %d, want %d", got.NetRetransmits, want.NetRetransmits)
	}
	if got.Outcomes != want.Outcomes {
		t.Errorf("Outcomes = %+v, want %+v", got.Outcomes, want.Outcomes)
	}
}

func TestFaultValidation(t *testing.T) {
	base := RunOptions{Pools: Baseline, Clients: 4, Duration: 30, Warmup: 10, Seed: 1}

	churnNoNet := base
	churnNoNet.Faults = &fault.Spec{GatewayChurn: &fault.Churn{MeanUpSeconds: 10, MeanDownSeconds: 5}}
	if _, err := Run(churnNoNet); err == nil {
		t.Error("gateway churn without a network model accepted")
	}

	flapNoNet := base
	flapNoNet.Faults = &fault.Spec{LinkFlaps: []fault.Flap{{Gateway: 0, FirstAtSeconds: 1, DownSeconds: 1}}}
	if _, err := Run(flapNoNet); err == nil {
		t.Error("link flap without a network model accepted")
	}

	badReplica := base
	badReplica.Faults = &fault.Spec{ReplicaCrashes: []fault.Crash{{Replica: 3, AtSeconds: 5}}}
	if _, err := Run(badReplica); err == nil {
		t.Error("crash on nonexistent replica accepted")
	}

	badGw := base
	badGw.Network = testNetModel(0)
	badGw.Faults = &fault.Spec{LinkFlaps: []fault.Flap{{Gateway: 5, FirstAtSeconds: 1, DownSeconds: 1}}}
	if _, err := Run(badGw); err == nil {
		t.Error("flap on nonexistent gateway accepted")
	}

	badSpec := base
	badSpec.Faults = &fault.Spec{GatewayChurn: &fault.Churn{MeanUpSeconds: -1, MeanDownSeconds: 5}}
	if _, err := Run(badSpec); err == nil {
		t.Error("invalid churn spec accepted")
	}
}

func TestPacketModeNetwork(t *testing.T) {
	whole := RunOptions{Pools: Baseline, Clients: 8, Duration: 150, Seed: 17, Network: testNetModel(2)}
	packetModel := testNetModel(2)
	packetModel.Packet = true
	packet := whole
	packet.Network = packetModel

	mw, err := Run(whole)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := Run(packet)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Completed == 0 || mp.NetDelivered == 0 {
		t.Fatal("packet mode delivered nothing")
	}
	if mp.NetRetransmits == 0 {
		t.Error("packet mode on a lossy path produced no packet retransmissions")
	}
	// Per-packet loss on a ~800-packet payload retransmits far more units
	// than whole-payload geometric resend.
	if mp.NetRetransmits <= mw.NetRetransmits {
		t.Errorf("packet retransmits %d not above whole-payload %d", mp.NetRetransmits, mw.NetRetransmits)
	}
	// Determinism: packet mode re-runs bit-identically.
	mp2, err := Run(packet)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, mp, mp2)
}
