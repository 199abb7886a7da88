package plantnet

import (
	"math"
	"strings"
	"testing"
)

// shortRun runs a 300-second experiment (enough for stable means in tests;
// benches use the paper's full 1380 s).
func shortRun(t *testing.T, cfg PoolConfig, clients int) *Metrics {
	t.Helper()
	m, err := Run(RunOptions{Pools: cfg, Clients: clients, Duration: 300, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestKnownConfigurations(t *testing.T) {
	if Baseline != (PoolConfig{40, 40, 7, 40}) {
		t.Errorf("Baseline = %+v", Baseline)
	}
	if PreliminaryOptimum != (PoolConfig{54, 54, 7, 53}) {
		t.Errorf("PreliminaryOptimum = %+v", PreliminaryOptimum)
	}
	if RefinedOptimum != (PoolConfig{54, 54, 6, 53}) {
		t.Errorf("RefinedOptimum = %+v", RefinedOptimum)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	v := PreliminaryOptimum.Vector()
	want := []float64{54, 54, 53, 7} // Equation 2 order: http, download, simsearch, extract
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("Vector = %v, want %v", v, want)
		}
	}
	if FromVector(v) != PreliminaryOptimum {
		t.Errorf("FromVector(Vector) != identity")
	}
}

func TestValidation(t *testing.T) {
	if err := (PoolConfig{0, 40, 7, 40}).Validate(); err == nil {
		t.Error("zero pool accepted")
	}
	if _, err := Run(RunOptions{Pools: Baseline, Clients: 0}); err == nil {
		t.Error("zero clients accepted")
	}
	if _, err := Run(RunOptions{Pools: PoolConfig{}, Clients: 10}); err == nil {
		t.Error("invalid pools accepted")
	}
	// A run that ends inside its warmup measures nothing (its mean would be
	// NaN); a shorter warmup makes the same horizon measurable.
	if _, err := Run(RunOptions{Pools: Baseline, Clients: 10, Duration: 60}); err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Errorf("60 s run inside the default 60 s warmup: got %v, want a warmup error", err)
	}
	if _, err := RunRepeated(RunOptions{Pools: Baseline, Clients: 10, Duration: 30, Warmup: 40}, 2); err == nil {
		t.Error("RunRepeated accepted a 30 s run inside a 40 s warmup")
	}
	if m, err := Run(RunOptions{Pools: Baseline, Clients: 10, Duration: 30, Warmup: 10}); err != nil || math.IsNaN(m.UserResponseTime.Mean) {
		t.Errorf("30 s run with a 10 s warmup: %v", err)
	}
}

// TestPipelineStructure verifies the Table I pipeline: all nine tasks occur
// in order for every completed request, and their times are finite.
func TestPipelineStructure(t *testing.T) {
	if len(TaskNames) != 9 {
		t.Fatalf("TaskNames has %d entries, want 9 (Table I)", len(TaskNames))
	}
	m := shortRun(t, Baseline, 20)
	if m.Completed == 0 {
		t.Fatal("no requests completed")
	}
	for _, name := range TaskNames {
		s, ok := m.TaskTimes[name]
		if !ok {
			t.Fatalf("task %q missing from metrics", name)
		}
		if s.N == 0 || math.IsNaN(s.Mean) || s.Mean < 0 {
			t.Errorf("task %q has invalid summary %+v", name, s)
		}
	}
	// The GPU inference and similarity search dominate processing, per the
	// paper ("the extraction and similarity search tasks are the most time
	// consuming compared to the remaining ones").
	if m.TaskTimes["simsearch"].Mean < m.TaskTimes["pre-process"].Mean ||
		m.TaskTimes["extract"].Mean < m.TaskTimes["pre-process"].Mean {
		t.Error("extract/simsearch should dominate pre-process")
	}
}

// TestFig3Baseline reproduces the headline of Figure 3: with the baseline
// configuration, ~120 simultaneous requests drive the user response time to
// about 4 seconds (paper: 3.86 ± 0.13), the maximum users tolerate.
func TestFig3Baseline(t *testing.T) {
	m := shortRun(t, Baseline, 120)
	got := m.UserResponseTime.Mean
	if math.Abs(got-3.86)/3.86 > 0.10 {
		t.Errorf("response at 120 requests = %.3f, paper 3.86 (±10%% tolerated)", got)
	}
}

// TestTable3BaselineVsPreliminary checks the Table III comparison at the
// 80-request workload: baseline 2.657 vs preliminary optimum 2.484.
func TestTable3BaselineVsPreliminary(t *testing.T) {
	base := shortRun(t, Baseline, 80)
	pre := shortRun(t, PreliminaryOptimum, 80)
	if math.Abs(base.UserResponseTime.Mean-2.657)/2.657 > 0.10 {
		t.Errorf("baseline = %.3f, paper 2.657", base.UserResponseTime.Mean)
	}
	if math.Abs(pre.UserResponseTime.Mean-2.484)/2.484 > 0.10 {
		t.Errorf("preliminary = %.3f, paper 2.484", pre.UserResponseTime.Mean)
	}
	if pre.UserResponseTime.Mean >= base.UserResponseTime.Mean {
		t.Error("preliminary optimum must beat baseline")
	}
}

// TestFig8PreliminaryWinsAllWorkloads: the preliminary optimum outperforms
// the baseline for all three workloads (80, 120, 140).
func TestFig8PreliminaryWinsAllWorkloads(t *testing.T) {
	for _, n := range []int{80, 120, 140} {
		base := shortRun(t, Baseline, n)
		pre := shortRun(t, PreliminaryOptimum, n)
		if pre.UserResponseTime.Mean >= base.UserResponseTime.Mean {
			t.Errorf("N=%d: preliminary %.3f not better than baseline %.3f",
				n, pre.UserResponseTime.Mean, base.UserResponseTime.Mean)
		}
	}
}

// TestFig9ExtractSweepShape: varying the extract pool (OAT) around the
// preliminary optimum gives the paper's Figure 9a shape — minimum at 6,
// both 5 and 8-9 worse.
func TestFig9ExtractSweepShape(t *testing.T) {
	resp := map[int]float64{}
	for e := 5; e <= 9; e++ {
		cfg := PoolConfig{HTTP: 54, Download: 54, Extract: e, Simsearch: 53}
		resp[e] = shortRun(t, cfg, 80).UserResponseTime.Mean
	}
	for e := 5; e <= 9; e++ {
		if e != 6 && resp[6] >= resp[e] {
			t.Errorf("extract=6 (%.3f) should beat extract=%d (%.3f)", resp[6], e, resp[e])
		}
	}
	// Paper: monotone degradation beyond 6.
	if !(resp[7] < resp[8] && resp[8] < resp[9]) {
		t.Errorf("degradation beyond 6 not monotone: 7=%.3f 8=%.3f 9=%.3f", resp[7], resp[8], resp[9])
	}
}

// TestFig9ResourceShapes checks the resource-usage explanations of
// Figure 9c-g: CPU near saturation at extract>=8, extract task time growing
// with pool size while wait-extract shrinks from 5 to 6, GPU memory
// increasing with pool size, simsearch busy ~40-60% in the 5-7 range.
func TestFig9ResourceShapes(t *testing.T) {
	run := func(e int) *Metrics {
		return shortRun(t, PoolConfig{HTTP: 54, Download: 54, Extract: e, Simsearch: 53}, 80)
	}
	m5, m6, m9 := run(5), run(6), run(9)
	if m9.CPUUtil.Mean < 0.95 {
		t.Errorf("CPU at extract=9 = %.2f, want >= 0.95 (paper: 100%%)", m9.CPUUtil.Mean)
	}
	if m5.CPUUtil.Mean > m9.CPUUtil.Mean {
		t.Error("CPU usage should grow with extract pool size")
	}
	// Extract task time not reduced by more threads (GPU saturated).
	if m9.TaskTimes["extract"].Mean <= m6.TaskTimes["extract"].Mean {
		t.Error("extract task time should grow beyond GPU saturation")
	}
	// wait-extract drops when leaving the GPU-starved regime (5 -> 6).
	if m5.TaskTimes["wait-extract"].Mean <= m6.TaskTimes["wait-extract"].Mean {
		t.Error("wait-extract at 5 threads should exceed 6 threads")
	}
	// simsearch task time increases with extract pool size (CPU contention).
	if m9.TaskTimes["simsearch"].Mean <= m6.TaskTimes["simsearch"].Mean {
		t.Error("simsearch task time should grow with extract pool size")
	}
	// GPU memory grows with the extract pool and stays below the V100's 32GB.
	if !(m5.GPUMemGB < m6.GPUMemGB && m6.GPUMemGB < m9.GPUMemGB) {
		t.Error("GPU memory not increasing with extract pool")
	}
	if m9.GPUMemGB > 32 {
		t.Errorf("GPU memory %.1f exceeds V100 32GB", m9.GPUMemGB)
	}
	// Extract pool busy ~100% when GPU-bound (5..7).
	if m5.ExtractBusy.Mean < 0.95 || m6.ExtractBusy.Mean < 0.95 {
		t.Errorf("extract busy at 5/6 threads = %.2f/%.2f, want ~1.0", m5.ExtractBusy.Mean, m6.ExtractBusy.Mean)
	}
	// Simsearch pool busy around 40-60% at sizes 5-7 (paper: 50-60%).
	if m6.SimsearchBusy.Mean < 0.35 || m6.SimsearchBusy.Mean > 0.65 {
		t.Errorf("simsearch busy = %.2f, want 0.35-0.65", m6.SimsearchBusy.Mean)
	}
}

// TestTable4RefinedOptimum: the refined optimum (extract=6) beats both
// baseline and preliminary for every workload (Figure 11 / Table IV).
func TestTable4RefinedOptimum(t *testing.T) {
	for _, n := range []int{80, 120, 140} {
		base := shortRun(t, Baseline, n).UserResponseTime.Mean
		pre := shortRun(t, PreliminaryOptimum, n).UserResponseTime.Mean
		ref := shortRun(t, RefinedOptimum, n).UserResponseTime.Mean
		if !(ref < pre && pre < base) {
			t.Errorf("N=%d: want refined < preliminary < baseline, got %.3f / %.3f / %.3f",
				n, ref, pre, base)
		}
	}
}

// TestGPUMemorySavings: the refined optimum consumes less GPU memory than
// the baseline (paper: 30% less, 7GB vs 10GB; our linear model gives ~12%).
func TestGPUMemorySavings(t *testing.T) {
	cal := DefaultCalibration()
	base, ref := cal.GPUMemGB(Baseline), cal.GPUMemGB(RefinedOptimum)
	if ref >= base {
		t.Errorf("refined GPU mem %.1f not below baseline %.1f", ref, base)
	}
	if base < 8 || base > 12 {
		t.Errorf("baseline GPU mem %.1f, paper reports ~10GB", base)
	}
}

func TestResponseTimeMonotoneInWorkload(t *testing.T) {
	prev := 0.0
	for _, n := range []int{40, 80, 120, 160} {
		got := shortRun(t, Baseline, n).UserResponseTime.Mean
		if got <= prev {
			t.Errorf("response not increasing: N=%d -> %.3f (prev %.3f)", n, got, prev)
		}
		prev = got
	}
}

func TestThroughputSaturates(t *testing.T) {
	// Beyond saturation, doubling clients should not increase throughput
	// much (closed-loop system pinned at a bottleneck).
	m80 := shortRun(t, Baseline, 80)
	m160 := shortRun(t, Baseline, 160)
	if m160.Throughput > m80.Throughput*1.1 {
		t.Errorf("throughput grew from %.1f to %.1f — bottleneck missing", m80.Throughput, m160.Throughput)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, err := Run(RunOptions{Pools: Baseline, Clients: 40, Duration: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(RunOptions{Pools: Baseline, Clients: 40, Duration: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.UserResponseTime.Mean != b.UserResponseTime.Mean || a.Completed != b.Completed {
		t.Error("same seed produced different results")
	}
	c, err := Run(RunOptions{Pools: Baseline, Clients: 40, Duration: 120, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if a.UserResponseTime.Mean == c.UserResponseTime.Mean {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestSampleCadence(t *testing.T) {
	m, err := Run(RunOptions{Pools: Baseline, Clients: 40, Duration: 300, Warmup: 60, SampleInterval: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Samples start after warmup: (300-60)/10 - 1 boundary = 23..24 samples.
	if len(m.Samples) < 22 || len(m.Samples) > 24 {
		t.Errorf("got %d samples, want ~23", len(m.Samples))
	}
	for i := 1; i < len(m.Samples); i++ {
		if dt := m.Samples[i].Time - m.Samples[i-1].Time; math.Abs(dt-10) > 1e-9 {
			t.Errorf("sample interval %v, want 10", dt)
		}
	}
}

func TestRunRepeatedAggregates(t *testing.T) {
	rep, err := RunRepeated(RunOptions{Pools: Baseline, Clients: 80, Duration: 200, Seed: 11}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	total := 0
	for _, r := range rep.Runs {
		total += len(r.Samples)
	}
	if rep.UserResponseTime.N != total {
		t.Errorf("pooled N = %d, want %d", rep.UserResponseTime.N, total)
	}
	if rep.UserResponseTime.StdDev <= 0 {
		t.Error("pooled std should be positive across repetitions")
	}
	if rep.Throughput <= 0 {
		t.Error("throughput missing")
	}
}

// TestRunRepeatedParallelDeterminism asserts the worker-pool execution of
// RunRepeated is byte-identical to the sequential path for a fixed seed:
// seeds are derived up front and aggregation happens in run-index order
// after all runs complete.
func TestRunRepeatedParallelDeterminism(t *testing.T) {
	base := RunOptions{Pools: Baseline, Clients: 60, Duration: 150, Seed: 17}
	seqOpts := base
	seqOpts.MaxParallel = 1
	parOpts := base
	parOpts.MaxParallel = 4
	seq, err := RunRepeated(seqOpts, 5)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunRepeated(parOpts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if seq.UserResponseTime != par.UserResponseTime {
		t.Fatalf("pooled summary diverged: %+v != %+v", par.UserResponseTime, seq.UserResponseTime)
	}
	if seq.Throughput != par.Throughput {
		t.Fatalf("throughput diverged: %v != %v", par.Throughput, seq.Throughput)
	}
	for i := range seq.Runs {
		s, p := seq.Runs[i], par.Runs[i]
		if s.UserResponseTime != p.UserResponseTime || s.Completed != p.Completed ||
			s.Throughput != p.Throughput || s.RespP99 != p.RespP99 {
			t.Fatalf("run %d diverged: sequential %+v, parallel %+v", i, s.UserResponseTime, p.UserResponseTime)
		}
		if len(s.Samples) != len(p.Samples) {
			t.Fatalf("run %d sample count diverged: %d != %d", i, len(s.Samples), len(p.Samples))
		}
		for k := range s.Samples {
			a, b := s.Samples[k], p.Samples[k]
			// RespTime is NaN for windows with no completions; NaN != NaN,
			// so compare it separately.
			aResp, bResp := a.RespTime, b.RespTime
			a.RespTime, b.RespTime = 0, 0
			sameResp := aResp == bResp || (isNaN(aResp) && isNaN(bResp))
			if a != b || !sameResp {
				t.Fatalf("run %d sample %d diverged", i, k)
			}
		}
	}
}

func TestPaperMeasurementProtocol(t *testing.T) {
	// Paper: 7 repetitions x 23 min, sampled every 10 s -> 966
	// measurements (138 per run). With warmup=0 we reproduce the count.
	m, err := Run(RunOptions{Pools: Baseline, Clients: 20, Duration: 1380, Warmup: 1e-9, SampleInterval: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// First post-warmup sample is consumed as the warmup boundary; the
	// paper's 138 samples correspond to 1380/10.
	if len(m.Samples) < 136 || len(m.Samples) > 138 {
		t.Errorf("samples = %d, want ~138 (paper: 138 per experiment)", len(m.Samples))
	}
}

// TestPowerAndEnergyModel checks the paper's power observation: "the GPU
// power draw is between 50 Watts and 80 Watts" during the extract sweep.
func TestPowerAndEnergyModel(t *testing.T) {
	for _, e := range []int{5, 7, 9} {
		cfg := PoolConfig{HTTP: 54, Download: 54, Extract: e, Simsearch: 53}
		m := shortRun(t, cfg, 80)
		if m.GPUPowerW.Mean < 50 || m.GPUPowerW.Mean > 85 {
			t.Errorf("extract=%d: GPU power %.1f W, paper band 50-80 W", e, m.GPUPowerW.Mean)
		}
		if m.CPUPowerW.Mean <= DefaultCalibration().CPUIdlePowerW {
			t.Errorf("extract=%d: CPU power %.1f W at idle level", e, m.CPUPowerW.Mean)
		}
		if m.EnergyPerRequestJ <= 0 {
			t.Errorf("extract=%d: energy per request %.1f J", e, m.EnergyPerRequestJ)
		}
	}
	// Under a light workload the GPU draws less power than when saturated.
	light := shortRun(t, Baseline, 10)
	heavy := shortRun(t, Baseline, 120)
	if light.GPUPowerW.Mean >= heavy.GPUPowerW.Mean {
		t.Errorf("GPU power not increasing with load: %.1f vs %.1f W",
			light.GPUPowerW.Mean, heavy.GPUPowerW.Mean)
	}
	if light.EnergyPerRequestJ <= heavy.EnergyPerRequestJ {
		t.Error("energy per request should be higher at low utilization (idle power amortized over fewer requests)")
	}
}

// TestOpenLoopWorkload checks the Poisson-arrival mode: at an arrival rate
// far below capacity the system is stable with throughput ~= rate.
func TestOpenLoopWorkload(t *testing.T) {
	m, err := Run(RunOptions{Pools: Baseline, OpenLoopRate: 15, Duration: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Throughput-15)/15 > 0.1 {
		t.Errorf("open-loop throughput %.2f, want ~15", m.Throughput)
	}
	// Light load: response time near the no-queueing service time.
	if m.UserResponseTime.Mean > 2.0 {
		t.Errorf("open-loop light-load response %.3f, want < 2", m.UserResponseTime.Mean)
	}
	// Overload: arrivals above the ~30/s capacity back up; response grows
	// well beyond the closed-loop value and throughput caps out.
	over, err := Run(RunOptions{Pools: Baseline, OpenLoopRate: 40, Duration: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if over.Throughput > 33 {
		t.Errorf("overloaded throughput %.2f exceeds capacity", over.Throughput)
	}
	if over.UserResponseTime.Mean < m.UserResponseTime.Mean*2 {
		t.Errorf("overload response %.2f not growing vs %.2f", over.UserResponseTime.Mean, m.UserResponseTime.Mean)
	}
}

func TestOpenLoopValidation(t *testing.T) {
	if _, err := Run(RunOptions{Pools: Baseline}); err == nil {
		t.Error("no clients and no rate accepted")
	}
}

// TestReplicasScaleThroughput: two engine replicas roughly double the
// saturated throughput and halve the response time of an oversubscribed
// closed-loop population (the §V-B scalability potential).
func TestReplicasScaleThroughput(t *testing.T) {
	one, err := Run(RunOptions{Pools: Baseline, Clients: 160, Duration: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(RunOptions{Pools: Baseline, Clients: 160, Duration: 300, Seed: 9, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	ratio := two.Throughput / one.Throughput
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("2-replica throughput ratio %.2f, want ~2", ratio)
	}
	if two.UserResponseTime.Mean >= one.UserResponseTime.Mean {
		t.Error("replicas did not reduce response time under saturation")
	}
	if two.Replicas != 2 {
		t.Errorf("Replicas = %d", two.Replicas)
	}
	// Per-node utilization stays comparable (load is split evenly).
	if math.Abs(two.CPUUtil.Mean-one.CPUUtil.Mean) > 0.15 {
		t.Errorf("per-node CPU: 1-rep %.2f vs 2-rep %.2f", one.CPUUtil.Mean, two.CPUUtil.Mean)
	}
}

// TestSustainedSLOBreachAt140: at 140 requests the baseline breaks the
// 4-second response-time SLO for a sustained period (paper Fig. 3): some
// run of consecutive samples above 4 s spans at least 30 s.
func TestSustainedSLOBreachAt140(t *testing.T) {
	m := shortRun(t, Baseline, 140)
	from, longest := math.NaN(), 0.0
	for _, s := range m.Samples {
		if !(s.RespTime > 4) { // a window with no completions breaks the run too
			from = math.NaN()
			continue
		}
		if math.IsNaN(from) {
			from = s.Time
		}
		longest = math.Max(longest, s.Time-from)
	}
	if longest < 30 {
		t.Errorf("140-request workload should violate the 4s SLO for >= 30 s (paper Fig. 3); longest breach %.0f s", longest)
	}
}

// TestResponsePercentiles: tail percentiles are ordered and bracket the
// mean; p99 exceeds the mean (queueing always has a right tail).
func TestResponsePercentiles(t *testing.T) {
	m := shortRun(t, Baseline, 80)
	if !(m.RespP50 <= m.RespP95 && m.RespP95 <= m.RespP99) {
		t.Errorf("percentiles unordered: p50=%.3f p95=%.3f p99=%.3f", m.RespP50, m.RespP95, m.RespP99)
	}
	if m.RespP99 <= m.UserResponseTime.Mean {
		t.Errorf("p99 %.3f not above mean %.3f", m.RespP99, m.UserResponseTime.Mean)
	}
	if m.RespP50 <= 0 {
		t.Error("p50 missing")
	}
}

// TestRequestTracing: traced requests carry a complete task breakdown that
// sums (with the HTTP queueing and network gap) to the response time.
func TestRequestTracing(t *testing.T) {
	m, err := Run(RunOptions{Pools: Baseline, Clients: 80, Duration: 200, Seed: 13, TraceRequests: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Traces) != 25 {
		t.Fatalf("traces = %d, want 25", len(m.Traces))
	}
	for i, tr := range m.Traces {
		var sum float64
		for _, d := range tr.Tasks {
			if d < 0 {
				t.Fatalf("trace %d has negative task time", i)
			}
			sum += d
		}
		// Tasks exclude the HTTP-pool queueing and the network RTT, so the
		// pipeline sum must be <= the response and dominate it.
		if sum > tr.Response+1e-9 {
			t.Fatalf("trace %d: task sum %.3f exceeds response %.3f", i, sum, tr.Response)
		}
		if sum < tr.Response*0.3 {
			t.Fatalf("trace %d: task sum %.3f implausibly small vs response %.3f", i, sum, tr.Response)
		}
	}
	// Tracing disabled by default.
	m2, err := Run(RunOptions{Pools: Baseline, Clients: 10, Duration: 120, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Traces) != 0 {
		t.Error("tracing should be off by default")
	}
}
