// Command experiments regenerates every table and figure of the paper's
// evaluation (Section IV) from the in-repo reproduction. Each subcommand
// prints the same rows/series the paper reports, followed by a reference
// line with the paper's published values.
//
// Usage:
//
//	experiments [flags] <fig2|fig3|table3|fig8|fig9|fig10|table4|fig11|listing1|ablation|suite|all>
//
// With -paper the harness uses the paper's full protocol (7 repetitions of
// 23 minutes per configuration); the default is a faster protocol (2 x 300s)
// that yields the same means within noise.
//
// The suite command goes beyond the paper's single 42-node deployment: it
// runs a scenario-suite campaign (internal/scenario) — topology sweeps,
// degraded networks, heterogeneous gateway mixes, fog placement, shaped
// workloads, fault-injection schedules (gateway churn, replica crashes,
// link flaps), and trace-driven load — on a bounded worker pool with a
// cross-scenario comparison table. Fixed-seed suite output is
// bit-identical at any -parallel level, and with -checkpoint an
// interrupted campaign resumes without re-running completed scenarios
// (changing a scenario's fault schedule invalidates its checkpoint entry).
// Use -suite to run a declarative JSON suite (see
// examples/suite/suite.json) instead of the built-in standard campaign,
// and -netmodel simulated (or packet) to fold the network path into the
// event kernel (per-hop links, gateway queueing) instead of the
// closed-form netem cost.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"e2clab/internal/core"
	"e2clab/internal/export"
	"e2clab/internal/plantnet"
	"e2clab/internal/scenario"
	"e2clab/internal/sensitivity"
	"e2clab/internal/space"
	"e2clab/internal/workload"
)

var (
	flagDuration = flag.Float64("duration", 300, "seconds of simulated time per experiment")
	flagRepeat   = flag.Int("repeat", 2, "repetitions per configuration")
	flagSeed     = flag.Int64("seed", 42, "root RNG seed")
	flagPaper    = flag.Bool("paper", false, "use the paper's full protocol (1380s x 7 repetitions)")
	flagCSV      = flag.String("csv", "", "directory to write CSV outputs (optional)")

	// suite command flags.
	flagSuite      = flag.String("suite", "", "declarative suite JSON (default: the built-in standard campaign)")
	flagParallel   = flag.Int("parallel", 0, "suite worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	flagCheckpoint = flag.String("checkpoint", "", "suite checkpoint path for crash-safe resume (optional)")
	flagArchive    = flag.String("archive", "", "suite provenance archive directory (optional)")
	flagNetModel   = flag.String("netmodel", "", "network model for suite scenarios that don't set one: analytical (default), simulated (per-hop links with gateway queueing in the event kernel), or packet (simulated links with packetized TCP-like transport)")
)

func main() {
	flag.Parse()
	if *flagPaper {
		*flagDuration = 1380
		*flagRepeat = 7
	}
	if err := core.CheckProtocol(*flagDuration, *flagRepeat); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "all"
	}
	cmds := map[string]func() error{
		"fig2":     fig2,
		"fig3":     fig3,
		"table3":   table3,
		"fig8":     fig8,
		"fig9":     fig9,
		"fig10":    fig10,
		"table4":   table4,
		"fig11":    fig11,
		"listing1": listing1,
		"ablation": ablation,
		"suite":    suite,
	}
	run := func(name string) {
		fmt.Printf("\n=== %s ===\n", name)
		if err := cmds[name](); err != nil {
			fmt.Fprintf(os.Stderr, "experiments %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if cmd == "all" {
		for _, name := range []string{"fig2", "fig3", "table3", "fig8", "fig9", "fig10", "table4", "fig11", "listing1", "ablation"} {
			run(name)
		}
		return
	}
	if _, ok := cmds[cmd]; !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
		os.Exit(2)
	}
	run(cmd)
}

// measure runs one configuration under one workload with the shared
// protocol flags.
func measure(cfg plantnet.PoolConfig, clients int) (*plantnet.Repeated, error) {
	return plantnet.RunRepeated(plantnet.RunOptions{
		Pools:    cfg,
		Clients:  clients,
		Duration: *flagDuration,
		Seed:     *flagSeed,
	}, *flagRepeat)
}

func maybeCSV(t *export.Table, name string) error {
	if *flagCSV == "" {
		return nil
	}
	if err := os.MkdirAll(*flagCSV, 0o755); err != nil {
		return err
	}
	return t.WriteCSV(filepath.Join(*flagCSV, name+".csv"))
}

// fig2 regenerates the user-growth trace: exponential growth with spring
// peaks in May-June.
func fig2() error {
	trace := workload.DefaultGrowthModel().Generate()
	t := export.NewTable("Fig. 2 — new Pl@ntNet users (weekly model): spring peaks, exponential growth",
		"year", "peak week", "peak users/week", "year total")
	for y := 2015; y <= 2021; y++ {
		week, users := workload.PeakWeek(trace, y)
		t.AddRow(y, week, fmt.Sprintf("%.0f", users), fmt.Sprintf("%.0f", workload.YearTotal(trace, y)))
	}
	fmt.Print(t.String())
	return maybeCSV(t, "fig2")
}

// fig3 sweeps the number of simultaneous requests under the baseline
// configuration (paper: ~3.86 s at 120 requests; 4 s is the user limit).
func fig3() error {
	t := export.NewTable("Fig. 3 — user response time vs simultaneous requests (baseline config)",
		"requests", "response time (s)", "±std", "throughput (req/s)")
	for _, n := range []int{20, 40, 60, 80, 100, 120, 140, 160} {
		r, err := measure(plantnet.Baseline, n)
		if err != nil {
			return err
		}
		t.AddRow(n, r.UserResponseTime.Mean, r.UserResponseTime.StdDev, r.Throughput)
	}
	fmt.Print(t.String())
	fmt.Println("paper reference: 3.86 (±0.13) at 120 simultaneous requests")
	return maybeCSV(t, "fig3")
}

// table3 runs the Listing 1 Bayesian optimization on the engine and prints
// the baseline-vs-preliminary-optimum comparison.
func table3() error {
	found, evals, err := optimizeEngine()
	if err != nil {
		return err
	}
	foundCfg := plantnet.FromVector(found)
	base, err := measure(plantnet.Baseline, 80)
	if err != nil {
		return err
	}
	pre, err := measure(foundCfg, 80)
	if err != nil {
		return err
	}
	t := export.NewTable(fmt.Sprintf("Table III — baseline vs preliminary optimum (found in %d evaluations, workload 80)", evals),
		"thread pool", "baseline", "preliminary optimum")
	t.AddRow("HTTP", plantnet.Baseline.HTTP, foundCfg.HTTP)
	t.AddRow("Download", plantnet.Baseline.Download, foundCfg.Download)
	t.AddRow("Extract", plantnet.Baseline.Extract, foundCfg.Extract)
	t.AddRow("Simsearch", plantnet.Baseline.Simsearch, foundCfg.Simsearch)
	t.AddRow("User response time",
		fmt.Sprintf("%.3f (±%.4f)", base.UserResponseTime.Mean, base.UserResponseTime.StdDev),
		fmt.Sprintf("%.3f (±%.4f)", pre.UserResponseTime.Mean, pre.UserResponseTime.StdDev))
	fmt.Print(t.String())
	fmt.Println("paper reference: baseline 2.657 (±0.0914), preliminary 2.484 (±0.0912); found config 54/54/7/53")
	return maybeCSV(t, "table3")
}

// optimizeEngine runs the paper's optimization (Equation 2) with the
// Listing 1 stack against the simulated engine at the 80-request workload.
func optimizeEngine() ([]float64, int, error) {
	m, err := core.NewManager(core.Spec{
		Problem: space.PlantNetProblem(),
		Search: core.SearchSpec{Algorithm: "skopt", BaseEstimator: "ET",
			NInitialPoints: 10, InitialPointGenerator: "lhs", AcqFunc: "gp_hedge"},
		NumSamples:    24,
		MaxConcurrent: 2,
		UseASHA:       true,
		Repeat:        1,
		Duration:      *flagDuration,
		Seed:          *flagSeed,
	})
	if err != nil {
		return nil, 0, err
	}
	res, err := m.Optimize(core.PlantNetObjective(80, *flagSeed))
	if err != nil {
		return nil, 0, err
	}
	return res.Best, res.Summary.Evaluations, nil
}

// fig8 compares baseline vs preliminary optimum across the three workloads.
func fig8() error {
	t := export.NewTable("Fig. 8 — user response time: baseline vs preliminary optimum",
		"requests", "baseline (s)", "preliminary (s)", "improvement")
	for _, n := range []int{80, 120, 140} {
		b, err := measure(plantnet.Baseline, n)
		if err != nil {
			return err
		}
		p, err := measure(plantnet.PreliminaryOptimum, n)
		if err != nil {
			return err
		}
		imp := (b.UserResponseTime.Mean - p.UserResponseTime.Mean) / b.UserResponseTime.Mean * 100
		t.AddRow(n, b.UserResponseTime.Mean, p.UserResponseTime.Mean, fmt.Sprintf("%.1f%%", imp))
	}
	fmt.Print(t.String())
	fmt.Println("paper reference: improvements 6.9%, 2.2%, 6.7% at 80/120/140")
	return maybeCSV(t, "fig8")
}

// fig9 is the OAT sweep of the extract pool (±2 around the preliminary
// optimum) with the resource-usage panels a-g.
func fig9() error {
	t := export.NewTable("Fig. 9 — impact of extract thread pool (OAT, workload 80)",
		"extract", "resp (s)", "thr (req/s)", "wait-extract (s)", "extract (s)", "simsearch (s)",
		"CPU", "GPU mem (GB)", "sys mem (GB)", "GPU power (W)", "extract busy", "simsearch busy")
	for e := 5; e <= 9; e++ {
		cfg := plantnet.PoolConfig{HTTP: 54, Download: 54, Extract: e, Simsearch: 53}
		r, err := measure(cfg, 80)
		if err != nil {
			return err
		}
		m := r.Runs[0]
		t.AddRow(e, r.UserResponseTime.Mean, fmt.Sprintf("%.1f", r.Throughput),
			m.TaskTimes["wait-extract"].Mean, m.TaskTimes["extract"].Mean, m.TaskTimes["simsearch"].Mean,
			fmt.Sprintf("%.0f%%", m.CPUUtil.Mean*100), m.GPUMemGB, m.SysMemGB,
			fmt.Sprintf("%.0f", m.GPUPowerW.Mean),
			fmt.Sprintf("%.0f%%", m.ExtractBusy.Mean*100), fmt.Sprintf("%.0f%%", m.SimsearchBusy.Mean*100))
	}
	fmt.Print(t.String())
	fmt.Println("paper reference: minimum at extract=6 (8.5% below 7); CPU 100% at 8-9;")
	fmt.Println("GPU memory grows with pool size; GPU power draw between 50 and 80 W")
	return maybeCSV(t, "fig9")
}

// fig10 is the OAT sweep of the simsearch pool (around the preliminary
// optimum).
func fig10() error {
	t := export.NewTable("Fig. 10 — impact of simsearch thread pool (OAT, workload 80)",
		"simsearch", "resp (s)", "wait-simsearch (s)", "simsearch (s)", "simsearch busy", "extract busy")
	for s := 50; s <= 56; s++ {
		cfg := plantnet.PoolConfig{HTTP: 54, Download: 54, Extract: 7, Simsearch: s}
		r, err := measure(cfg, 80)
		if err != nil {
			return err
		}
		m := r.Runs[0]
		t.AddRow(s, r.UserResponseTime.Mean,
			m.TaskTimes["wait-simsearch"].Mean, m.TaskTimes["simsearch"].Mean,
			fmt.Sprintf("%.0f%%", m.SimsearchBusy.Mean*100), fmt.Sprintf("%.0f%%", m.ExtractBusy.Mean*100))
	}
	fmt.Print(t.String())
	fmt.Println("paper reference: 55 threads ~4% below 53; our model is flat here")
	return maybeCSV(t, "fig10")
}

// table4 compares the three configurations at the 80-request workload.
func table4() error {
	t := export.NewTable("Table IV — the three Pl@ntNet configurations (workload 80)",
		"thread pool", "baseline", "preliminary", "refined")
	cfgs := []plantnet.PoolConfig{plantnet.Baseline, plantnet.PreliminaryOptimum, plantnet.RefinedOptimum}
	t.AddRow("HTTP", cfgs[0].HTTP, cfgs[1].HTTP, cfgs[2].HTTP)
	t.AddRow("Download", cfgs[0].Download, cfgs[1].Download, cfgs[2].Download)
	t.AddRow("Extract", cfgs[0].Extract, cfgs[1].Extract, cfgs[2].Extract)
	t.AddRow("Simsearch", cfgs[0].Simsearch, cfgs[1].Simsearch, cfgs[2].Simsearch)
	row := []any{"User response time"}
	for _, c := range cfgs {
		r, err := measure(c, 80)
		if err != nil {
			return err
		}
		row = append(row, fmt.Sprintf("%.3f (±%.4f)", r.UserResponseTime.Mean, r.UserResponseTime.StdDev))
	}
	t.AddRow(row...)
	fmt.Print(t.String())
	fmt.Println("paper reference: 2.657 (±0.0914) / 2.484 (±0.0912) / 2.476 (±0.0826)")
	return maybeCSV(t, "table4")
}

// fig11 compares the three configurations across all workloads, plus the
// OAT refinement run that derives the refined optimum (Section IV-C).
func fig11() error {
	// First show the Refine() protocol reaching extract=6 from the
	// preliminary optimum.
	p := space.PlantNetProblem()
	fn := func(x []float64) float64 {
		r, err := measure(plantnet.FromVector(x), 80)
		if err != nil {
			return 99
		}
		return r.UserResponseTime.Mean
	}
	refined, _, err := sensitivity.Refine(p.Space, plantnet.PreliminaryOptimum.Vector(), []string{"extract"}, 2, fn)
	if err != nil {
		return err
	}
	fmt.Printf("OAT refinement from preliminary optimum: extract %d -> %d\n",
		plantnet.PreliminaryOptimum.Extract, int(refined[3]))

	t := export.NewTable("Fig. 11 — user response time: baseline vs optimums",
		"requests", "baseline (s)", "preliminary (s)", "refined (s)", "refined vs baseline")
	for _, n := range []int{80, 120, 140} {
		b, err := measure(plantnet.Baseline, n)
		if err != nil {
			return err
		}
		pr, err := measure(plantnet.PreliminaryOptimum, n)
		if err != nil {
			return err
		}
		rf, err := measure(plantnet.RefinedOptimum, n)
		if err != nil {
			return err
		}
		imp := (b.UserResponseTime.Mean - rf.UserResponseTime.Mean) / b.UserResponseTime.Mean * 100
		t.AddRow(n, b.UserResponseTime.Mean, pr.UserResponseTime.Mean, rf.UserResponseTime.Mean,
			fmt.Sprintf("%.1f%%", imp))
	}
	fmt.Print(t.String())
	fmt.Println("paper reference: refined vs baseline 7.2%, 6.3%, 9.8% at 80/120/140")
	return maybeCSV(t, "fig11")
}

// ablation compares this repo's design choices on the real engine model:
// surrogate families at a fixed evaluation budget, and single- vs
// multi-replica deployments (the §V-B scalability potential).
func ablation() error {
	budget := 16
	t := export.NewTable(fmt.Sprintf("ablation — surrogate families on the engine (budget %d evaluations, workload 80)", budget),
		"estimator", "best resp (s)", "best config")
	for _, est := range []string{"ET", "RF", "GBRT", "GP"} {
		m, err := core.NewManager(core.Spec{
			Problem: space.PlantNetProblem(),
			Search: core.SearchSpec{Algorithm: "skopt", BaseEstimator: est,
				NInitialPoints: 8, InitialPointGenerator: "lhs", AcqFunc: "gp_hedge"},
			NumSamples:    budget,
			MaxConcurrent: 2,
			Repeat:        1,
			Duration:      *flagDuration,
			Seed:          *flagSeed,
		})
		if err != nil {
			return err
		}
		res, err := m.Optimize(core.PlantNetObjective(80, *flagSeed))
		if err != nil {
			return err
		}
		t.AddRow(est, res.BestY, space.PlantNetProblem().Space.Format(res.Best))
	}
	fmt.Print(t.String())

	r := export.NewTable("\nablation — engine replicas under a 160-request workload",
		"replicas", "resp (s)", "throughput (req/s)")
	for _, reps := range []int{1, 2, 4} {
		m, err := plantnet.Run(plantnet.RunOptions{
			Pools: plantnet.RefinedOptimum, Clients: 160, Replicas: reps,
			Duration: *flagDuration, Seed: *flagSeed})
		if err != nil {
			return err
		}
		r.AddRow(reps, m.UserResponseTime.Mean, m.Throughput)
	}
	fmt.Print(r.String())
	if err := maybeCSV(t, "ablation_surrogates"); err != nil {
		return err
	}
	return maybeCSV(r, "ablation_replicas")
}

// suite runs a scenario-suite campaign: the built-in standard suite
// (internal/scenario.StandardSuite) or a declarative JSON suite given with
// -suite, on a bounded worker pool with optional checkpoint/resume and
// provenance archiving. The comparison table is bit-identical for a fixed
// seed at any parallelism.
func suite() error {
	var s scenario.Suite
	if *flagSuite != "" {
		loaded, err := scenario.LoadSuite(*flagSuite)
		if err != nil {
			return err
		}
		s = *loaded
		if s.Seed == 0 {
			s.Seed = *flagSeed
		}
		if s.DurationSeconds <= 0 {
			s.DurationSeconds = *flagDuration
		}
		if s.Repeats <= 0 {
			s.Repeats = *flagRepeat
		}
	} else {
		s = scenario.StandardSuite(*flagDuration, *flagRepeat, *flagSeed)
	}
	if *flagNetModel != "" {
		// Suite-level default; scenarios with their own network_model keep
		// it. The resolved value is fingerprinted, so flipping the flag
		// between runs of a checkpointed campaign re-runs the affected
		// scenarios instead of mixing models.
		s.NetworkModel = *flagNetModel
	}
	total := len(s.Scenarios)
	sr, err := scenario.RunSuite(s, scenario.Options{
		Parallel:       *flagParallel,
		CheckpointPath: *flagCheckpoint,
		ArchiveDir:     *flagArchive,
		Logger: func(event string, index int, name string) {
			fmt.Fprintf(os.Stderr, "suite: [%d/%d] %s %s\n", index+1, total, name, event)
		},
	})
	if err != nil {
		return err
	}
	t := scenario.ComparisonTable(sr)
	fmt.Print(t.String())
	if sr.Resumed > 0 {
		fmt.Printf("(%d scenario(s) resumed from checkpoint, %d executed)\n", sr.Resumed, sr.Executed)
	}
	failed := 0
	for i, e := range sr.Errs {
		if e != nil {
			failed++
			fmt.Fprintf(os.Stderr, "suite: scenario %d failed: %v\n", i, e)
		}
	}
	if err := maybeCSV(t, "suite"); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenario(s) failed", failed, total)
	}
	return nil
}

// listing1 runs the complete user-facing optimization of Listing 1 with the
// archive enabled and prints the Phase III summary.
func listing1() error {
	dir, err := os.MkdirTemp("", "e2clab-listing1-*")
	if err != nil {
		return err
	}
	m, err := core.NewManager(core.Spec{
		Problem: space.PlantNetProblem(),
		Search: core.SearchSpec{Algorithm: "skopt", BaseEstimator: "ET",
			NInitialPoints: 10, InitialPointGenerator: "lhs", AcqFunc: "gp_hedge"},
		NumSamples:    10, // num_samples=10 as in Listing 1
		MaxConcurrent: 2,  // ConcurrencyLimiter(max_concurrent=2)
		UseASHA:       true,
		Repeat:        1,
		Duration:      *flagDuration,
		Seed:          *flagSeed,
		ArchiveDir:    dir,
	})
	if err != nil {
		return err
	}
	res, err := m.Optimize(core.PlantNetObjective(80, *flagSeed))
	if err != nil {
		return err
	}
	fmt.Printf("Listing 1 run: best %s -> user_resp_time %.3f s\n",
		space.PlantNetProblem().Space.Format(res.Best), res.BestY)
	fmt.Printf("Phase III archive: %s (summary.json + %d optimization_* directories)\n",
		dir, res.Summary.Evaluations)
	return nil
}
