package plantnet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"e2clab/internal/fault"
	"e2clab/internal/netem"
	"e2clab/internal/resilience"
	"e2clab/internal/stats"
)

// metricsFingerprint renders every Metrics field bit-exactly (floats as raw
// IEEE-754 bits), so two runs compare byte-for-byte including NaN samples.
func metricsFingerprint(m *Metrics) string {
	var b strings.Builder
	f := func(name string, x float64) { fmt.Fprintf(&b, "%s=%016x\n", name, math.Float64bits(x)) }
	i := func(name string, x int64) { fmt.Fprintf(&b, "%s=%d\n", name, x) }
	sum := func(name string, s struct {
		N      int
		Mean   float64
		StdDev float64
		Min    float64
		Max    float64
	}) {
		i(name+".N", int64(s.N))
		f(name+".Mean", s.Mean)
		f(name+".StdDev", s.StdDev)
		f(name+".Min", s.Min)
		f(name+".Max", s.Max)
	}
	i("Completed", int64(m.Completed))
	sum("UserResponseTime", m.UserResponseTime)
	f("RespP50", m.RespP50)
	f("RespP95", m.RespP95)
	f("RespP99", m.RespP99)
	f("Throughput", m.Throughput)
	for _, name := range TaskNames {
		sum("TaskTimes."+name, m.TaskTimes[name])
	}
	sum("CPUUtil", m.CPUUtil)
	sum("GPUUtil", m.GPUUtil)
	sum("GPUPowerW", m.GPUPowerW)
	sum("CPUPowerW", m.CPUPowerW)
	sum("HTTPBusy", m.HTTPBusy)
	sum("DownloadBusy", m.DownloadBusy)
	sum("ExtractBusy", m.ExtractBusy)
	sum("SimsearchBusy", m.SimsearchBusy)
	f("GPUMemGB", m.GPUMemGB)
	f("SysMemGB", m.SysMemGB)
	f("EnergyPerRequestJ", m.EnergyPerRequestJ)
	i("NetDelivered", m.NetDelivered)
	i("NetRetransmits", m.NetRetransmits)
	i("GatewayFailures", m.GatewayFailures)
	i("CrashRequeues", m.CrashRequeues)
	i("CrashFailures", m.CrashFailures)
	i("DroppedArrivals", m.DroppedArrivals)
	i("Retries", m.Retries)
	i("RetrySuccesses", m.RetrySuccesses)
	i("Hedges", m.Hedges)
	i("HedgeWins", m.HedgeWins)
	i("Rerouted", m.Rerouted)
	i("Shed", m.Shed)
	i("BreakerOpens", m.BreakerOpens)
	i("DeadlineExceeded", m.DeadlineExceeded)
	i("FailedRequests", m.FailedRequests)
	f("AvailabilityFraction", m.AvailabilityFraction)
	f("Goodput", m.Goodput)
	for k, s := range m.Samples {
		fmt.Fprintf(&b, "S%d=%016x,%016x,%016x,%016x,%016x,%016x,%016x,%016x,%016x,%016x,%016x,%016x,%016x\n",
			k, math.Float64bits(s.Time), math.Float64bits(s.RespTime), math.Float64bits(s.Throughput),
			math.Float64bits(s.CPUUtil), math.Float64bits(s.GPUUtil), math.Float64bits(s.GPUPowerW),
			math.Float64bits(s.CPUPowerW), math.Float64bits(s.GPUMemGB), math.Float64bits(s.SysMemGB),
			math.Float64bits(s.HTTPBusy), math.Float64bits(s.DownloadBusy), math.Float64bits(s.ExtractBusy),
			math.Float64bits(s.SimsearchBusy))
	}
	for k, tr := range m.Traces {
		fmt.Fprintf(&b, "T%d=%016x,%016x", k, math.Float64bits(tr.Start), math.Float64bits(tr.Response))
		for _, v := range tr.Tasks {
			fmt.Fprintf(&b, ",%016x", math.Float64bits(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// shardedNetModel is a small heterogeneous two-class topology with a shared
// backhaul, used by the fixed sharded tests.
func shardedNetModel(packet bool) *NetworkModel {
	return &NetworkModel{
		UploadBytes:   100e3,
		ResponseBytes: 10e3,
		Classes: []NetworkClass{
			{Gateways: 3, Up: netem.LinkSpec{DelaySec: 0.010, RateBps: 20e6}, Down: netem.LinkSpec{DelaySec: 0.010, RateBps: 20e6}},
			{Gateways: 2, Up: netem.LinkSpec{DelaySec: 0.030, RateBps: 6e6, LossPct: 1}, Down: netem.LinkSpec{DelaySec: 0.030, RateBps: 8e6}},
		},
		BackhaulUp:   []netem.LinkSpec{{DelaySec: 0.020, RateBps: 200e6}},
		BackhaulDown: []netem.LinkSpec{{DelaySec: 0.020, RateBps: 200e6}},
		Packet:       packet,
		MTUBytes:     1500,
	}
}

// TestShardedShardCountInvariance is the tentpole determinism contract: a
// faulted, policied, simulated-network run must be bit-identical for every
// Shards >= 2 — the shard count is only the worker count. The hedge case
// drops the faults and hedges at 1.5 s, so hedge arms cross to the core and
// race their primaries.
func TestShardedShardCountInvariance(t *testing.T) {
	chaos := func() *fault.Spec {
		return &fault.Spec{
			GatewayChurn:   &fault.Churn{MeanUpSeconds: 40, MeanDownSeconds: 6},
			ReplicaCrashes: []fault.Crash{{Replica: 1, AtSeconds: 50, RecoverAfterSeconds: 25}},
		}
	}
	for _, c := range []struct {
		name   string
		packet bool
		faults *fault.Spec
		hedge  float64
		pin    string // fingerprintHash of the reference run, when pinned
	}{
		{"payload", false, chaos(), 6, ""},
		{"packet", true, chaos(), 6, ""},
		{"hedge", false, nil, 1.5, "bace1c19194c7bb2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := RunOptions{
				Pools:    Baseline,
				Clients:  40,
				Network:  shardedNetModel(c.packet),
				Replicas: 2,
				Duration: 120,
				Warmup:   30,
				Seed:     17,
				Shards:   2,
				Faults:   c.faults,
				Resilience: &resilience.Policy{
					TimeoutSeconds: 12,
					Retry:          &resilience.Retry{Max: 2},
					Hedge:          &resilience.Hedge{DelaySeconds: c.hedge},
					Failover:       true,
					Shed:           &resilience.Shed{QueueDepth: 200},
				},
				TraceRequests: 8,
			}
			ref, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Completed == 0 {
				t.Fatal("sharded reference run completed nothing")
			}
			if c.faults == nil && (ref.Hedges == 0 || ref.HedgeWins > ref.Hedges) {
				t.Errorf("hedges=%d wins=%d, want hedges > 0 and wins <= hedges", ref.Hedges, ref.HedgeWins)
			}
			if got := fingerprintHash(ref); c.pin != "" && got != c.pin {
				t.Errorf("reference fingerprint %s, want %s", got, c.pin)
			}
			want := metricsFingerprint(ref)
			for _, shards := range []int{3, 4, 8} {
				o := opts
				o.Shards = shards
				m, err := Run(o)
				if err != nil {
					t.Fatal(err)
				}
				if got := metricsFingerprint(m); got != want {
					t.Errorf("Shards=%d diverged from Shards=2:\n%s", shards, firstDiff(got, want))
				}
			}
			// The contract says any GOMAXPROCS, and the coordinator caps
			// its workers at GOMAXPROCS: at 1 the windows run inline.
			t.Run("GOMAXPROCS=1", func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				for _, shards := range []int{2, 4} {
					o := opts
					o.Shards = shards
					m, err := Run(o)
					if err != nil {
						t.Fatal(err)
					}
					if got := metricsFingerprint(m); got != want {
						t.Errorf("Shards=%d at GOMAXPROCS=1 diverged from the reference:\n%s", shards, firstDiff(got, want))
					}
				}
			})
		})
	}
}

// firstDiff returns the first differing line of two fingerprints.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %s want %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(g), len(w))
}

// TestShardedRandomizedInvariance fuzzes scenario shapes — class layout,
// link specs, transport, workload mode, faults, policies — and checks the
// full-metrics bit-identity across shard counts for each.
func TestShardedRandomizedInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for c := 0; c < 6; c++ {
		opts := RunOptions{
			Pools:    Baseline,
			Duration: 90,
			Warmup:   30,
			Seed:     int64(1000 + c),
			Replicas: 1 + rng.Intn(3),
			Shards:   2,
		}
		nm := &NetworkModel{
			UploadBytes:   50e3 + rng.Float64()*100e3,
			ResponseBytes: 5e3 + rng.Float64()*20e3,
			Packet:        rng.Intn(2) == 0,
			MTUBytes:      1500,
		}
		nc := 2 + rng.Intn(3)
		for k := 0; k < nc; k++ {
			nm.Classes = append(nm.Classes, NetworkClass{
				Gateways: 1 + rng.Intn(3),
				Up:       netem.LinkSpec{DelaySec: 0.005 + rng.Float64()*0.03, RateBps: 5e6 + rng.Float64()*20e6, LossPct: rng.Float64()},
				Down:     netem.LinkSpec{DelaySec: 0.005 + rng.Float64()*0.03, RateBps: 5e6 + rng.Float64()*20e6},
			})
		}
		if rng.Intn(2) == 0 {
			nm.BackhaulUp = []netem.LinkSpec{{DelaySec: 0.015, RateBps: 100e6}}
			nm.BackhaulDown = []netem.LinkSpec{{DelaySec: 0.015, RateBps: 100e6}}
		}
		opts.Network = nm
		if rng.Intn(2) == 0 {
			opts.Clients = 20 + rng.Intn(30)
		} else {
			opts.OpenLoopRate = 5 + rng.Float64()*10
		}
		if rng.Intn(2) == 0 {
			opts.Faults = &fault.Spec{GatewayChurn: &fault.Churn{MeanUpSeconds: 30, MeanDownSeconds: 5}}
			if opts.Replicas > 1 {
				opts.Faults.ReplicaCrashes = []fault.Crash{{Replica: 0, AtSeconds: 45, RecoverAfterSeconds: 20}}
			}
		}
		if rng.Intn(2) == 0 {
			opts.Resilience = &resilience.Policy{TimeoutSeconds: 15, Retry: &resilience.Retry{Max: 1}, Failover: true}
			if rng.Intn(2) == 0 {
				opts.Resilience.Hedge = &resilience.Hedge{Quantile: 0.95, DelaySeconds: 8}
			}
		}
		name := fmt.Sprintf("case%d", c)
		t.Run(name, func(t *testing.T) {
			ref, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := metricsFingerprint(ref)
			for _, shards := range []int{4, 8} {
				o := opts
				o.Shards = shards
				m, err := Run(o)
				if err != nil {
					t.Fatal(err)
				}
				if got := metricsFingerprint(m); got != want {
					t.Errorf("Shards=%d diverged from Shards=2:\n%s", shards, firstDiff(got, want))
				}
			}
		})
	}
}

// TestShardedRunnerReuseBitIdentical: a pooled Runner's sharded run is
// bit-identical to a fresh Runner's, including after interleaving a
// different experiment on the same Runner.
func TestShardedRunnerReuseBitIdentical(t *testing.T) {
	opts := RunOptions{
		Pools: Baseline, Clients: 30, Network: shardedNetModel(true),
		Replicas: 2, Duration: 90, Warmup: 30, Seed: 5, Shards: 4,
		Resilience: &resilience.Policy{TimeoutSeconds: 10, Retry: &resilience.Retry{Max: 1}},
	}
	fresh, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := metricsFingerprint(fresh)
	r := NewRunner()
	for rep := 0; rep < 2; rep++ {
		m, err := r.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := metricsFingerprint(m); got != want {
			t.Errorf("pooled run %d diverged from fresh run:\n%s", rep, firstDiff(got, want))
		}
		// Interleave a sequential run (different mode entirely) to prove
		// the reset discipline covers role state.
		if _, err := r.Run(RunOptions{Pools: Baseline, Clients: 10, Duration: 40, Warmup: 10, Seed: 3}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedVsSequentialThroughput: the sharded family is a different
// deterministic family, but it simulates the same physical system — under
// a closed-loop load its throughput and completion count must land within
// a few percent of the sequential kernel's.
func TestShardedVsSequentialThroughput(t *testing.T) {
	base := RunOptions{
		Pools: Baseline, Clients: 40, Network: shardedNetModel(false),
		Replicas: 2, Duration: 150, Warmup: 30, Seed: 9,
	}
	seq, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	shardedOpts := base
	shardedOpts.Shards = 4
	shd, err := Run(shardedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Completed == 0 || shd.Completed == 0 {
		t.Fatalf("empty runs: seq=%d sharded=%d", seq.Completed, shd.Completed)
	}
	rel := math.Abs(float64(shd.Completed-seq.Completed)) / float64(seq.Completed)
	if rel > 0.05 {
		t.Errorf("sharded completions %d deviate %.1f%% from sequential %d", shd.Completed, 100*rel, seq.Completed)
	}
	relResp := math.Abs(shd.UserResponseTime.Mean-seq.UserResponseTime.Mean) / seq.UserResponseTime.Mean
	if relResp > 0.10 {
		t.Errorf("sharded mean response %.4f deviates %.1f%% from sequential %.4f",
			shd.UserResponseTime.Mean, 100*relResp, seq.UserResponseTime.Mean)
	}
}

// shardedGoldenOpts is the pinned configuration for the sharded golden.
func shardedGoldenOpts() RunOptions {
	return RunOptions{
		Pools: Baseline, Clients: 50, Network: shardedNetModel(true),
		Replicas: 2, Duration: 180, Warmup: 60, Seed: 42, Shards: 4,
		Faults:     &fault.Spec{GatewayChurn: &fault.Churn{MeanUpSeconds: 60, MeanDownSeconds: 8}},
		Resilience: &resilience.Policy{TimeoutSeconds: 12, Retry: &resilience.Retry{Max: 2}, Failover: true},
	}
}

// TestShardedValidation: Shards >= 2 without a simulated network is an
// error; Shards <= 1 stays the sequential kernel bit-for-bit.
func TestShardedValidation(t *testing.T) {
	if _, err := Run(RunOptions{Pools: Baseline, Clients: 10, Duration: 30, Warmup: 10, Shards: 2}); err == nil {
		t.Error("Shards=2 without Network should fail")
	}
	a, err := Run(RunOptions{Pools: Baseline, Clients: 10, Duration: 60, Warmup: 30, Seed: 4, Network: shardedNetModel(false), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunOptions{Pools: Baseline, Clients: 10, Duration: 60, Warmup: 30, Seed: 4, Network: shardedNetModel(false)})
	if err != nil {
		t.Fatal(err)
	}
	if metricsFingerprint(a) != metricsFingerprint(b) {
		t.Error("Shards=1 must be bit-identical to the sequential kernel")
	}
}

// TestShardedGoldenBitIdentical pins the sharded family's outputs for a
// fixed faulted + policied configuration. The sharded kernel is a distinct
// deterministic family from the sequential one (its own seed derivation per
// domain), so it carries its own golden; any drift here is a determinism
// regression in the shard protocol, the merge, or the seeding.
func TestShardedGoldenBitIdentical(t *testing.T) {
	m, err := Run(shardedGoldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	exact := func(name string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v (bits %016x), want %v (bits %016x)",
				name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if m.Completed != 4859 {
		t.Errorf("Completed = %d, want 4859", m.Completed)
	}
	exact("UserResponseTime.Mean", m.UserResponseTime.Mean, 1.8144704770432827)
	exact("RespP50", m.RespP50, 1.7491267395591592)
	exact("RespP95", m.RespP95, 2.3554478926149756)
	exact("RespP99", m.RespP99, 2.7600981516999465)
	exact("Throughput", m.Throughput, 27.51818181818182)
	exact("Goodput", m.Goodput, 27.51818181818182)
	exact("CPUUtil.Mean", m.CPUUtil.Mean, 0.5871791636614585)
	exact("EnergyPerRequestJ", m.EnergyPerRequestJ, 16.472211519234506)
	if m.NetDelivered != 19544 {
		t.Errorf("NetDelivered = %d, want 19544", m.NetDelivered)
	}
	if m.Rerouted != 544 {
		t.Errorf("Rerouted = %d, want 544", m.Rerouted)
	}
}

// TestShardedSteadyStateNoWindowLeak: a warm sharded Runner's per-run
// allocations must not scale with the number of lookahead windows — a 10x
// longer run (same tick count, so identical setup/merge work) may not
// allocate meaningfully more.
func TestShardedSteadyStateNoWindowLeak(t *testing.T) {
	cal := DefaultCalibration()
	cal.NetworkRTT = 0.2 // wide windows keep the long run fast
	mk := func(duration, interval float64) RunOptions {
		return RunOptions{
			Pools: Baseline, Clients: 20, Network: shardedNetModel(true),
			Replicas: 2, Duration: duration, Warmup: interval, SampleInterval: interval,
			Seed: 21, Shards: 2, Cal: cal,
		}
	}
	r := NewRunner()
	for w := 0; w < 2; w++ { // warm freelists, mailboxes, row buffers
		if _, err := r.Run(mk(400, 50)); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(opts RunOptions) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := r.Run(opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(mk(40, 5))  // 200 windows, 8 ticks
	long := measure(mk(400, 50)) // 2000 windows, 8 ticks
	if long > short*1.5+256 {
		t.Errorf("window loop leaks allocations: short-run=%v long-run=%v", short, long)
	}
}

// TestShardedLastTickPastHorizon: when the sampler ticks accumulate past
// Duration (10 x 0.7 sums to 7.000000000000001), the last tick sits in the
// 1e-9 slack of the tick loop but never fires. Both families must ignore
// it and record the same sample instants. Suite JSON reaches this through
// scenario lowering's SampleInterval = min(10, d/10).
func TestShardedLastTickPastHorizon(t *testing.T) {
	for _, c := range []struct{ duration, interval, warmup float64 }{
		{0.3, 0.1, 0.1},
		{7, 0.7, 1},
	} {
		opts := RunOptions{
			Pools: Baseline, Clients: 5, Network: shardedNetModel(false),
			Duration: c.duration, SampleInterval: c.interval, Warmup: c.warmup, Seed: 3,
		}
		seq, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Shards = 2
		shd, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Samples) != len(shd.Samples) {
			t.Fatalf("duration %v: sequential recorded %d samples, sharded %d", c.duration, len(seq.Samples), len(shd.Samples))
		}
		for k := range seq.Samples {
			if got, want := shd.Samples[k].Time, seq.Samples[k].Time; got != want || got > c.duration {
				t.Errorf("duration %v: sample %d at %v, sequential at %v", c.duration, k, got, want)
			}
		}
	}
}

// TestWeightedQuantile pins the weighted merge's quantile rule directly.
func TestWeightedQuantile(t *testing.T) {
	vals := []float64{0.3, 1.1, 1.7, 2.9, 4.2, 5.05, 8.75}
	ones := make([]float64, len(vals))
	for i := range ones {
		ones[i] = 1
	}
	for _, q := range []float64{0.05, 0.25, 0.5, 0.61, 0.95, 0.99} {
		got, want := weightedQuantile(vals, ones, float64(len(vals)), q), stats.Quantile(vals, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("unit weights q=%v: got %v, stats.Quantile %v", q, got, want)
		}
	}
	for _, c := range []struct{ q, want float64 }{{0, 0.3}, {-1, 0.3}, {1, 8.75}, {2, 8.75}} {
		if got := weightedQuantile(vals, ones, float64(len(vals)), c.q); got != c.want {
			t.Errorf("q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
	// Ranks 0 | 1..5 | 6: the heavy middle sample owns its whole span, and
	// the unit gaps on either side interpolate.
	v, w := []float64{1, 2, 3}, []float64{1, 5, 1}
	for _, c := range []struct{ q, want float64 }{
		{1.0 / 6, 2}, {0.5, 2}, {4.0 / 6, 2}, {1.0 / 12, 1.5}, {11.0 / 12, 2.5},
	} {
		if got := weightedQuantile(v, w, 7, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("heavy sample q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
	if got := weightedQuantile(nil, nil, 0, 0.5); got != 0 {
		t.Errorf("empty input: got %v, want 0", got)
	}
}
