// Package repro_test is the benchmark harness that regenerates every table
// and figure of the paper's evaluation. Each benchmark runs the
// corresponding experiment at a reduced duration and reports the headline
// quantity as a custom metric, so `go test -bench=. -benchmem` doubles as
// the reproduction driver; cmd/experiments prints the full tables.
package repro_test

import (
	"fmt"
	"math"
	"testing"

	"e2clab/internal/bo"
	"e2clab/internal/core"
	"e2clab/internal/metaheur"
	"e2clab/internal/plantnet"
	"e2clab/internal/sensitivity"
	"e2clab/internal/space"
	"e2clab/internal/tune"
	"e2clab/internal/workload"
)

const benchDuration = 200 // simulated seconds per engine experiment

func engineRun(b *testing.B, cfg plantnet.PoolConfig, clients int, seed int64) *plantnet.Metrics {
	b.Helper()
	m, err := plantnet.Run(plantnet.RunOptions{
		Pools: cfg, Clients: clients, Duration: benchDuration, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkTable2Baseline exercises the production configuration of
// Table II at the 80-request workload.
func BenchmarkTable2Baseline(b *testing.B) {
	var resp float64
	for i := 0; i < b.N; i++ {
		resp = engineRun(b, plantnet.Baseline, 80, int64(i+1)).UserResponseTime.Mean
	}
	b.ReportMetric(resp, "resp_s")
}

// BenchmarkFig2UserGrowth regenerates the spring-peak user-growth trace.
func BenchmarkFig2UserGrowth(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		trace := workload.DefaultGrowthModel().Generate()
		_, peak = workload.PeakWeek(trace, 2021)
	}
	b.ReportMetric(peak, "peak_users_wk")
}

// BenchmarkFig3ResponseCurve sweeps the workload under the baseline
// configuration (the response-time curve of Figure 3); the reported metric
// is the response at 120 requests (paper: 3.86 s).
func BenchmarkFig3ResponseCurve(b *testing.B) {
	var at120 float64
	for i := 0; i < b.N; i++ {
		for _, n := range []int{40, 80, 120, 140} {
			m := engineRun(b, plantnet.Baseline, n, int64(i+1))
			if n == 120 {
				at120 = m.UserResponseTime.Mean
			}
		}
	}
	b.ReportMetric(at120, "resp120_s")
}

// BenchmarkTable3Optimization runs the Listing 1 Bayesian-optimization
// stack (ET + LHS + gp_hedge + ConcurrencyLimiter + ASHA) on the engine and
// reports the best response time found.
func BenchmarkTable3Optimization(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := table3(int64(i + 42))
		if err != nil {
			b.Fatal(err)
		}
		best = res.BestY
	}
	b.ReportMetric(best, "best_resp_s")
}

// table3 is one Listing 1 optimization: 16 samples, 2 concurrent, ASHA.
func table3(seed int64) (*core.Result, error) {
	m, err := core.NewManager(core.Spec{
		Problem: space.PlantNetProblem(),
		Search: core.SearchSpec{Algorithm: "skopt", BaseEstimator: "ET",
			NInitialPoints: 8, InitialPointGenerator: "lhs", AcqFunc: "gp_hedge"},
		NumSamples:    16,
		MaxConcurrent: 2,
		UseASHA:       true,
		Repeat:        1,
		Duration:      benchDuration,
		Seed:          seed,
	})
	if err != nil {
		return nil, err
	}
	return m.Optimize(core.PlantNetObjective(80, seed))
}

// BenchmarkFig8Workloads compares baseline vs preliminary optimum across
// the three paper workloads; the metric is the mean improvement.
func BenchmarkFig8Workloads(b *testing.B) {
	var imp float64
	for i := 0; i < b.N; i++ {
		imp = 0
		for _, n := range []int{80, 120, 140} {
			base := engineRun(b, plantnet.Baseline, n, int64(i+1)).UserResponseTime.Mean
			pre := engineRun(b, plantnet.PreliminaryOptimum, n, int64(i+1)).UserResponseTime.Mean
			imp += (base - pre) / base * 100 / 3
		}
	}
	b.ReportMetric(imp, "improv_%")
}

// BenchmarkFig9ExtractSweep runs the OAT extract sweep (5..9) and reports
// the spread between the best and worst setting.
func BenchmarkFig9ExtractSweep(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for e := 5; e <= 9; e++ {
			cfg := plantnet.PoolConfig{HTTP: 54, Download: 54, Extract: e, Simsearch: 53}
			r := engineRun(b, cfg, 80, int64(i+1)).UserResponseTime.Mean
			lo = math.Min(lo, r)
			hi = math.Max(hi, r)
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "spread_s")
}

// BenchmarkFig10SimsearchSweep runs the OAT simsearch sweep (50..56).
func BenchmarkFig10SimsearchSweep(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		mean = 0
		for s := 50; s <= 56; s++ {
			cfg := plantnet.PoolConfig{HTTP: 54, Download: 54, Extract: 7, Simsearch: s}
			mean += engineRun(b, cfg, 80, int64(i+1)).UserResponseTime.Mean / 7
		}
	}
	b.ReportMetric(mean, "mean_resp_s")
}

// BenchmarkTable4Configs measures all three configurations at workload 80.
func BenchmarkTable4Configs(b *testing.B) {
	var refined float64
	for i := 0; i < b.N; i++ {
		engineRun(b, plantnet.Baseline, 80, int64(i+1))
		engineRun(b, plantnet.PreliminaryOptimum, 80, int64(i+1))
		refined = engineRun(b, plantnet.RefinedOptimum, 80, int64(i+1)).UserResponseTime.Mean
	}
	b.ReportMetric(refined, "refined_resp_s")
}

// BenchmarkFig11AllConfigs runs the full three-configurations x
// three-workloads grid of Figure 11, including the OAT refinement step.
func BenchmarkFig11AllConfigs(b *testing.B) {
	p := space.PlantNetProblem()
	var refinedExtract float64
	for i := 0; i < b.N; i++ {
		fn := func(x []float64) float64 {
			m, err := plantnet.Run(plantnet.RunOptions{
				Pools: plantnet.FromVector(x), Clients: 80, Duration: benchDuration, Seed: int64(i + 3)})
			if err != nil {
				b.Fatal(err)
			}
			return m.UserResponseTime.Mean
		}
		refined, _, err := sensitivity.Refine(p.Space, plantnet.PreliminaryOptimum.Vector(), []string{"extract"}, 2, fn)
		if err != nil {
			b.Fatal(err)
		}
		refinedExtract = refined[3]
		for _, n := range []int{80, 120, 140} {
			engineRun(b, plantnet.FromVector(refined), n, int64(i+3))
		}
	}
	b.ReportMetric(refinedExtract, "refined_extract")
}

// BenchmarkFig4Continuum solves the Edge-Fog-Cloud placement problem of
// Figure 4, with latency and communication cost scalarized into one
// objective by summing them.
func BenchmarkFig4Continuum(b *testing.B) {
	s := space.New(
		space.Categorical("preprocess", "edge", "fog", "cloud"),
		space.Categorical("inference", "edge", "fog", "cloud"),
		space.Categorical("aggregate", "edge", "fog", "cloud"),
	)
	speed := []float64{1, 6, 20}
	obj := func(x []float64) float64 {
		lat := 20/speed[int(x[1])] + 1/speed[int(x[0])] + 2/speed[int(x[2])]
		comm := 0.3*math.Abs(x[0]-x[1]) + 0.1*math.Abs(x[1]-x[2]) + 0.4*x[0]
		return lat + comm
	}
	var best float64
	for i := 0; i < b.N; i++ {
		res := metaheur.DE{Seed: int64(i + 1)}.Minimize(s, obj, 200)
		best = res.Y
	}
	b.ReportMetric(best, "scalar_obj")
}

// --- Ablation benches (one design choice per bench) ---

// BenchmarkAblationSurrogate compares surrogate families on the same
// optimization budget over a synthetic engine-like response surface.
func BenchmarkAblationSurrogate(b *testing.B) {
	surface := func(x []float64) float64 {
		return 2.4 + math.Pow(x[0]-54, 2)/800 + math.Pow(x[1]-54, 2)/3000 +
			math.Pow(x[2]-53, 2)/2500 + math.Pow(x[3]-6, 2)/40
	}
	for _, est := range []string{"ET", "RF", "GBRT", "GP"} {
		b.Run(est, func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				opt, err := bo.New(space.PlantNetProblem().Space, bo.Config{
					BaseEstimator: est, NInitialPoints: 10, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 30; k++ {
					x := opt.Ask()
					opt.Tell(x, surface(x))
				}
				_, best = opt.Best()
			}
			b.ReportMetric(best, "best_obj")
		})
	}
}

// BenchmarkAblationAcquisition compares acquisition functions under the ET
// surrogate.
func BenchmarkAblationAcquisition(b *testing.B) {
	surface := func(x []float64) float64 {
		return math.Pow(x[0]-54, 2)/100 + math.Pow(x[3]-6, 2)
	}
	for _, acq := range []string{"EI", "PI", "LCB", "gp_hedge"} {
		b.Run(acq, func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				opt, err := bo.New(space.PlantNetProblem().Space, bo.Config{
					AcqFunc: acq, NInitialPoints: 10, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 30; k++ {
					x := opt.Ask()
					opt.Tell(x, surface(x))
				}
				_, best = opt.Best()
			}
			b.ReportMetric(best, "best_obj")
		})
	}
}

// BenchmarkAblationSampler compares initial-design generators by the best
// value found in the pure space-filling phase.
func BenchmarkAblationSampler(b *testing.B) {
	surface := func(x []float64) float64 {
		return math.Pow(x[0]-54, 2)/100 + math.Pow(x[3]-6, 2)
	}
	for _, gen := range []string{"random", "lhs", "sobol", "halton"} {
		b.Run(gen, func(b *testing.B) {
			var best float64
			for i := 0; i < b.N; i++ {
				opt, err := bo.New(space.PlantNetProblem().Space, bo.Config{
					InitialPointGenerator: gen, NInitialPoints: 20, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 20; k++ {
					x := opt.Ask()
					opt.Tell(x, surface(x))
				}
				_, best = opt.Best()
			}
			b.ReportMetric(best, "best_obj")
		})
	}
}

// BenchmarkAblationParallelism quantifies the paper's claim that parallel
// asynchronous evaluation "reduces the application optimization time from
// days to hours": same budget, concurrency 1 vs 4, wall-clock compared via
// the framework's goroutine runner on a CPU-bound objective.
func BenchmarkAblationParallelism(b *testing.B) {
	for _, conc := range []int{1, 4} {
		b.Run(fmt.Sprintf("concurrent-%d", conc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := tune.Run(tune.RunConfig{
					Name: "par", Metric: "m", NumSamples: 8, MaxConcurrent: conc,
				}, &tune.RandomSearch{Space: space.PlantNetProblem().Space, Seed: int64(i + 1)},
					func(ctx *tune.Context, x []float64) (float64, error) {
						m, err := plantnet.Run(plantnet.RunOptions{
							Pools: plantnet.FromVector(x), Clients: 80,
							Duration: 100, Seed: int64(ctx.TrialID() + 1)})
						if err != nil {
							return 0, err
						}
						return m.UserResponseTime.Mean, nil
					})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationASHA compares FIFO vs AsyncHyperBand early stopping on
// an iterative objective: ASHA should complete the same trial budget in
// fewer total training iterations.
func BenchmarkAblationASHA(b *testing.B) {
	sp := space.New(space.Float("x", 0, 1))
	objective := func(ctx *tune.Context, x []float64) (float64, error) {
		v := x[0]
		for it := 1; it <= 32; it++ {
			if !ctx.Report(it, v) {
				return v, nil
			}
		}
		return v, nil
	}
	for _, name := range []string{"fifo", "asha"} {
		b.Run(name, func(b *testing.B) {
			var iters float64
			for i := 0; i < b.N; i++ {
				var sched tune.Scheduler
				if name == "asha" {
					sched = &tune.AsyncHyperBand{GracePeriod: 2, ReductionFactor: 2, MaxT: 32}
				}
				a, err := tune.Run(tune.RunConfig{
					Name: name, Metric: "m", NumSamples: 24, MaxConcurrent: 4, Scheduler: sched,
				}, &tune.RandomSearch{Space: sp, Seed: int64(i + 1)}, objective)
				if err != nil {
					b.Fatal(err)
				}
				iters = 0
				for _, t := range a.Trials {
					iters += float64(len(t.Reports))
				}
			}
			b.ReportMetric(iters, "train_iters")
		})
	}
}
