package plantnet

import (
	"math"
	"testing"

	"e2clab/internal/netem"
	"e2clab/internal/sim"
	"e2clab/internal/workload"
)

// deterministicCal replaces every service-time distribution with its mean,
// so a 1-client run has an exactly repeating cycle and the network share of
// the response time can be isolated to float precision.
func deterministicCal() Calibration {
	cal := DefaultCalibration()
	det := func(d sim.Dist) sim.Dist { return sim.Deterministic{V: d.Mean()} }
	cal.PreProcessWork = det(cal.PreProcessWork)
	cal.ProcessWork = det(cal.ProcessWork)
	cal.PostProcessWork = det(cal.PostProcessWork)
	cal.DownloadTime = det(cal.DownloadTime)
	cal.ExtractWork = det(cal.ExtractWork)
	cal.SimsearchCPUWork = det(cal.SimsearchCPUWork)
	cal.SimsearchIOTime = det(cal.SimsearchIOTime)
	return cal
}

func testNetModel(lossPct float64) *NetworkModel {
	return &NetworkModel{
		UploadBytes:   1.2e6,
		ResponseBytes: 5e4,
		Classes: []NetworkClass{{
			Gateways: 1,
			Up:       netem.LinkSpec{Src: "edge", Dst: "fog", DelaySec: 0.05, RateBps: 5e7, LossPct: lossPct},
			Down:     netem.LinkSpec{Src: "fog", Dst: "edge", DelaySec: 0.05, RateBps: 5e7},
		}},
		BackhaulUp:   []netem.LinkSpec{{Src: "fog", Dst: "cloud", DelaySec: 0.01, RateBps: 1e9}},
		BackhaulDown: []netem.LinkSpec{{Src: "cloud", Dst: "fog", DelaySec: 0.01, RateBps: 1e9}},
	}
}

// analyticalPathSeconds prices the model's request path in closed form —
// the exact figure netem.TransferSeconds produces for the same rules.
func analyticalPathSeconds(nm *NetworkModel) float64 {
	var t float64
	c := nm.Classes[0]
	t += c.Up.TransferSeconds(nm.UploadBytes)
	t += c.Down.TransferSeconds(nm.ResponseBytes)
	for _, h := range nm.BackhaulUp {
		t += h.TransferSeconds(nm.UploadBytes)
	}
	for _, h := range nm.BackhaulDown {
		t += h.TransferSeconds(nm.ResponseBytes)
	}
	return t
}

// TestSimulatedNetworkMatchesAnalyticalNoContention: with one client (zero
// contention) and deterministic service times, the simulated network mode's
// response time exceeds the analytical run by exactly the closed-form
// per-hop transfer sum.
func TestSimulatedNetworkMatchesAnalyticalNoContention(t *testing.T) {
	base := RunOptions{Pools: Baseline, Clients: 1, Duration: 120, Seed: 9, Cal: deterministicCal()}
	ana, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withNet := base
	withNet.Network = testNetModel(0)
	simu, err := Run(withNet)
	if err != nil {
		t.Fatal(err)
	}
	want := analyticalPathSeconds(withNet.Network)
	got := simu.UserResponseTime.Mean - ana.UserResponseTime.Mean
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("network share of response = %.12f, closed form %.12f", got, want)
	}
	if simu.NetRetransmits != 0 {
		t.Errorf("lossless path recorded %d retransmits", simu.NetRetransmits)
	}
	// Four hops per request (uplink + backhaul, both directions).
	if want := int64(simu.Completed) * 4; simu.NetDelivered < want {
		t.Errorf("NetDelivered = %d, want >= %d", simu.NetDelivered, want)
	}
}

// TestSimulatedNetworkLossConvergesToAnalytical: geometric retransmission
// on a lossy uplink converges to the closed-form 1/(1-p) inflation.
func TestSimulatedNetworkLossConvergesToAnalytical(t *testing.T) {
	base := RunOptions{Pools: Baseline, Clients: 1, Duration: 1200, Seed: 4, Cal: deterministicCal()}
	ana, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withNet := base
	withNet.Network = testNetModel(20)
	simu, err := Run(withNet)
	if err != nil {
		t.Fatal(err)
	}
	want := analyticalPathSeconds(withNet.Network)
	got := simu.UserResponseTime.Mean - ana.UserResponseTime.Mean
	if math.Abs(got-want)/want > 0.10 {
		t.Errorf("lossy network share %.4f, closed form %.4f (±10%%)", got, want)
	}
	if simu.NetRetransmits == 0 {
		t.Error("20% loss produced no retransmissions")
	}
}

// TestSimulatedNetworkQueuesUnderLoad: many clients behind one slow shared
// uplink queue, so the simulated response time exceeds the analytical
// prediction (which lets every request see the full rate) — the phenomenon
// that motivates folding the network into the event kernel.
func TestSimulatedNetworkQueuesUnderLoad(t *testing.T) {
	nm := &NetworkModel{
		UploadBytes:   1.2e6,
		ResponseBytes: 5e4,
		Classes: []NetworkClass{{
			Gateways: 1,
			Up:       netem.LinkSpec{DelaySec: 0.02, RateBps: 2e7}, // 20 Mbps shared by 30 clients
			Down:     netem.LinkSpec{DelaySec: 0.02, RateBps: 2e7},
		}},
	}
	opts := RunOptions{Pools: Baseline, Clients: 30, Duration: 300, Seed: 11, Network: nm}
	simu, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	noNet := opts
	noNet.Network = nil
	ana, err := Run(noNet)
	if err != nil {
		t.Fatal(err)
	}
	analyticalShare := analyticalPathSeconds(nm)
	got := simu.UserResponseTime.Mean - ana.UserResponseTime.Mean
	// With ~30 concurrent 0.48 s uploads on one pipe, queueing must push
	// the observed share well beyond the contention-free closed form.
	if got < analyticalShare*1.5 {
		t.Errorf("loaded uplink share %.3f not above closed form %.3f — no queueing?", got, analyticalShare)
	}
}

// TestSimulatedNetworkBlackHole: a fully lossy uplink delivers nothing; the
// run completes with zero completions instead of hanging.
func TestSimulatedNetworkBlackHole(t *testing.T) {
	nm := testNetModel(100)
	m, err := Run(RunOptions{Pools: Baseline, Clients: 4, Duration: 60, Warmup: 30, Seed: 2, Network: nm})
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed != 0 || m.NetDelivered != 0 {
		t.Errorf("black-hole network completed %d requests, delivered %d payloads", m.Completed, m.NetDelivered)
	}
}

// TestNetworkModeRepeatDeterminism: simulated-network RunRepeated is
// bit-identical at any parallelism, like every other mode.
func TestNetworkModeRepeatDeterminism(t *testing.T) {
	opts := RunOptions{Pools: Baseline, Clients: 20, Duration: 120, Seed: 21, Network: testNetModel(5)}
	seq := opts
	seq.MaxParallel = 1
	par := opts
	par.MaxParallel = 3
	a, err := RunRepeated(seq, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRepeated(par, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.UserResponseTime != b.UserResponseTime || a.Throughput != b.Throughput {
		t.Fatalf("parallel simulated-network repeat diverged: %+v vs %+v", a.UserResponseTime, b.UserResponseTime)
	}
	for i := range a.Runs {
		if a.Runs[i].Completed != b.Runs[i].Completed || a.Runs[i].NetRetransmits != b.Runs[i].NetRetransmits {
			t.Fatalf("run %d diverged", i)
		}
	}
}

// TestRunnerReuseBitIdentical: a run on a reused Runner is bit-identical to
// the same run on a fresh engine — the contract that makes pooling the
// per-run setup across RunRepeated repeats safe.
func TestRunnerReuseBitIdentical(t *testing.T) {
	rn := NewRunner()
	// Dirty the runner with runs of different shapes: replicas trigger a
	// replica rebuild, the network run populates links, the open-loop run
	// flips the loop mode.
	warmups := []RunOptions{
		{Pools: PreliminaryOptimum, Clients: 50, Duration: 90, Seed: 5, Replicas: 2},
		{Pools: Baseline, Clients: 10, Duration: 60, Warmup: 30, Seed: 6, Network: testNetModel(10)},
		{Pools: Baseline, OpenLoopRate: 8, Duration: 60, Warmup: 30, Seed: 7},
	}
	for _, w := range warmups {
		if _, err := rn.Run(w); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, opts RunOptions) {
		t.Helper()
		got, err := rn.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		exact := func(field string, g, w float64) {
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: reused %s = %.17g, fresh %.17g", name, field, g, w)
			}
		}
		if got.Completed != want.Completed {
			t.Errorf("%s: Completed %d vs %d", name, got.Completed, want.Completed)
		}
		exact("UserResponseTime.Mean", got.UserResponseTime.Mean, want.UserResponseTime.Mean)
		exact("UserResponseTime.StdDev", got.UserResponseTime.StdDev, want.UserResponseTime.StdDev)
		exact("RespP99", got.RespP99, want.RespP99)
		exact("Throughput", got.Throughput, want.Throughput)
		exact("CPUUtil.Mean", got.CPUUtil.Mean, want.CPUUtil.Mean)
		exact("EnergyPerRequestJ", got.EnergyPerRequestJ, want.EnergyPerRequestJ)
		exact("TaskTimes[extract].Mean", got.TaskTimes["extract"].Mean, want.TaskTimes["extract"].Mean)
		if len(got.Samples) != len(want.Samples) {
			t.Errorf("%s: %d samples vs %d", name, len(got.Samples), len(want.Samples))
		}
	}
	check("closed-loop", RunOptions{Pools: Baseline, Clients: 40, Duration: 120, Seed: 5})
	check("traced", RunOptions{Pools: Baseline, Clients: 20, Duration: 90, Seed: 8, TraceRequests: 5})
	check("simulated-net", RunOptions{Pools: Baseline, Clients: 20, Duration: 90, Seed: 12, Network: testNetModel(5)})
	check("arrivals", RunOptions{Pools: Baseline, Duration: 120, Seed: 13,
		Arrivals: &workload.PiecewiseRate{Phases: []workload.RatePhase{
			{Rate: 5, DurationSeconds: 60}, {Rate: 15, DurationSeconds: 60}}}})
}

// TestPiecewiseArrivals: the thinned nonhomogeneous process delivers the
// duration-weighted mean rate, and backlog built during an overload burst
// drains into the following phase (queue state carries across the boundary,
// unlike a phased lowering).
func TestPiecewiseArrivals(t *testing.T) {
	prof := &workload.PiecewiseRate{Phases: []workload.RatePhase{
		{Rate: 6, DurationSeconds: 120},
		{Rate: 24, DurationSeconds: 120},
		{Rate: 6, DurationSeconds: 120},
	}}
	m, err := Run(RunOptions{Pools: Baseline, Duration: prof.TotalDuration(), Seed: 3, Arrivals: prof, Warmup: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	const mean = (6*120 + 24*120 + 6*120) / 360.0 // 12 req/s
	if math.Abs(m.Throughput-mean)/mean > 0.10 {
		t.Errorf("throughput %.2f, want ~%.2f (duration-weighted mean rate)", m.Throughput, mean)
	}

	// Carryover: a burst at 40 req/s (over the ~30/s capacity) builds a
	// backlog; the first sample window after the burst ends must still see
	// responses far above the steady low-rate level.
	burst := &workload.PiecewiseRate{Phases: []workload.RatePhase{
		{Rate: 5, DurationSeconds: 100},
		{Rate: 40, DurationSeconds: 100},
		{Rate: 5, DurationSeconds: 160},
	}}
	b, err := Run(RunOptions{Pools: Baseline, Duration: burst.TotalDuration(), Seed: 3, Arrivals: burst, Warmup: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	var after, steady float64
	for _, s := range b.Samples {
		if s.Time > 200 && s.Time <= 220 && !math.IsNaN(s.RespTime) && after == 0 {
			after = s.RespTime // right after the burst
		}
		if s.Time > 80 && s.Time <= 100 && !math.IsNaN(s.RespTime) && steady == 0 {
			steady = s.RespTime // steady low-rate level before the burst
		}
	}
	if steady == 0 || after == 0 {
		t.Fatalf("missing samples: steady=%v after=%v", steady, after)
	}
	if after < steady*2 {
		t.Errorf("post-burst response %.2f not elevated vs steady %.2f — backlog lost at the phase boundary?", after, steady)
	}
}

func TestArrivalsAndNetworkValidation(t *testing.T) {
	if _, err := Run(RunOptions{Pools: Baseline,
		Arrivals: &workload.PiecewiseRate{}}); err == nil {
		t.Error("empty arrival profile accepted")
	}
	if _, err := Run(RunOptions{Pools: Baseline, Clients: 1, Network: &NetworkModel{}}); err == nil {
		t.Error("network model without classes accepted")
	}
	if _, err := Run(RunOptions{Pools: Baseline, Clients: 1,
		Network: &NetworkModel{Classes: []NetworkClass{{Gateways: 0}}}}); err == nil {
		t.Error("zero-gateway class accepted")
	}
}
