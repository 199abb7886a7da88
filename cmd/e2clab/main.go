// Command e2clab is the CLI of the reproduction, mirroring the workflow of
// the extended E2Clab framework:
//
//	e2clab deploy
//	    validate and deploy the paper's 42-node layers-services scenario
//	    on the Grid'5000 testbed model.
//
//	e2clab optimize [--repeat N] [--duration S] [--workload W] [--samples K] <backup_dir>
//	    run the user-defined optimization of Listing 1 (SkOpt search with
//	    Extra Trees, LHS initial design, gp_hedge acquisition, concurrency
//	    limiter and ASHA) against the Pl@ntNet Identification Engine and
//	    archive the reproducibility artifacts under <backup_dir>. The
//	    paper's repeatability command is
//	    `e2clab optimize --repeat 6 --duration 1380 <backup> <artifacts>`.
//
//	e2clab report <backup_dir>
//	    print the Phase III summary of computations from a previous run.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"e2clab/internal/config"
	"e2clab/internal/core"
	"e2clab/internal/export"
	"e2clab/internal/netem"
	"e2clab/internal/provenance"
	"e2clab/internal/space"
	"e2clab/internal/testbed"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "deploy":
		err = deploy(os.Args[2:])
	case "optimize":
		err = optimize(os.Args[2:])
	case "report":
		err = report(os.Args[2:])
	case "verify":
		err = verify(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "e2clab: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2clab: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: e2clab <command> [args]

commands:
  deploy [scenario.json]           deploy a scenario (default: the paper's 42 nodes)
  optimize [flags] <backup_dir>    run the Listing 1 optimization
  report <backup_dir>              print a Phase III summary
  verify [--max N] <backup_dir>    re-run archived evaluations and check
                                   they reproduce bit-for-bit

optimize flags:
  --conf FILE     optimizer configuration file (overrides the flags below)
  --repeat N      repetitions per evaluation (default 1; paper uses 6+1)
  --duration S    seconds per experiment (default 300; paper uses 1380)
  --workload W    simultaneous requests (default 80)
  --samples K     configurations to evaluate (default 10, as in Listing 1)
  --concurrent C  parallel evaluations (default 2, as in Listing 1)
  --seed S        RNG seed (default 42)`)
}

// deploy builds a scenario — from a configuration file when given, else
// the built-in Section IV scenario — and prints the placement.
func deploy(args []string) error {
	if len(args) > 0 {
		scen, err := config.LoadScenario(args[0])
		if err != nil {
			return err
		}
		e, err := scen.Build(testbed.Grid5000())
		if err != nil {
			return err
		}
		return printDeployment(e)
	}
	e := &core.Experiment{
		Name:    "plantnet",
		Testbed: testbed.Grid5000(),
		Layers: []testbed.Layer{
			{Name: "cloud", Services: []testbed.Service{
				{Name: "plantnet_engine", Quantity: 2, Cluster: "chifflot",
					Env: map[string]string{"http": "40", "download": "40", "extract": "7", "simsearch": "40"}},
			}},
			{Name: "edge", Services: []testbed.Service{
				{Name: "client_chiclet", Quantity: 8, Cluster: "chiclet"},
				{Name: "client_chetemi", Quantity: 15, Cluster: "chetemi"},
				{Name: "client_chifflet", Quantity: 8, Cluster: "chifflet"},
				{Name: "client_gros", Quantity: 9, Cluster: "gros"},
			}},
		},
		Network: netem.New(netem.Rule{Src: "edge", Dst: "cloud", DelayMS: 2, RateGbps: 10, Symmetric: true}),
	}
	return printDeployment(e)
}

func printDeployment(e *core.Experiment) error {
	d, err := e.Deploy()
	if err != nil {
		return err
	}
	defer d.ReleaseAll()
	t := export.NewTable(fmt.Sprintf("deployment %q: %d nodes", e.Name, d.NodeCount()),
		"layer/service", "nodes", "first node")
	for _, k := range d.Keys() {
		nodes := d.Placement[k]
		t.AddRow(k, len(nodes), nodes[0].ID)
	}
	fmt.Print(t.String())
	return nil
}

func optimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	conf := fs.String("conf", "", "optimizer configuration file")
	repeat := fs.Int("repeat", 1, "repetitions per evaluation")
	duration := fs.Float64("duration", 300, "seconds per experiment")
	clients := fs.Int("workload", 80, "simultaneous requests")
	samples := fs.Int("samples", 10, "configurations to evaluate")
	concurrent := fs.Int("concurrent", 2, "parallel evaluations")
	repeatPar := fs.Int("repeat-parallel", 0, "worker pool per evaluation's repeats (0 = GOMAXPROCS, 1 = sequential)")
	seed := fs.Int64("seed", 42, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := core.CheckProtocol(*duration, *repeat); err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	backup := fs.Arg(0)
	if backup == "" {
		return fmt.Errorf("optimize: missing <backup_dir> argument")
	}
	var spec core.Spec
	if *conf != "" {
		oc, err := config.LoadOptimizer(*conf)
		if err != nil {
			return err
		}
		spec, err = oc.BuildSpec()
		if err != nil {
			return err
		}
	} else {
		spec = core.Spec{
			Problem: space.PlantNetProblem(),
			Search: core.SearchSpec{Algorithm: "skopt", BaseEstimator: "ET",
				NInitialPoints: min(*samples, 10), InitialPointGenerator: "lhs", AcqFunc: "gp_hedge"},
			NumSamples:        *samples,
			MaxConcurrent:     *concurrent,
			UseASHA:           true,
			Repeat:            *repeat,
			RepeatParallelism: *repeatPar,
			Duration:          *duration,
			Seed:              *seed,
		}
	}
	spec.ArchiveDir = backup
	m, err := core.NewManager(spec)
	if err != nil {
		return err
	}
	eff := m.Spec()
	fmt.Printf("optimizing %s: %d samples, %d concurrent, %d x %.0fs per evaluation\n",
		eff.Problem.Name, eff.NumSamples, eff.MaxConcurrent, eff.Repeat, eff.Duration)
	res, err := m.Optimize(core.PlantNetObjective(*clients, eff.Seed))
	if err != nil {
		return err
	}
	fmt.Printf("best configuration: %s\n", eff.Problem.Space.Format(res.Best))
	fmt.Printf("best user_resp_time: %.3f s over %d evaluations\n", res.BestY, res.Summary.Evaluations)
	fmt.Printf("archive: %s\n", backup)
	return nil
}

func report(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("report: missing <backup_dir> argument")
	}
	a, err := provenance.NewArchive(args[0])
	if err != nil {
		return err
	}
	s, err := a.ReadSummary()
	if err != nil {
		return err
	}
	fmt.Printf("experiment: %s\nobjective:  %s (%s)\n", s.Name, s.Objective, s.Mode)
	fmt.Printf("search:     %s %v (sampler %s, scheduler %s)\n", s.SearchAlg, s.Hyperparams, s.SampleMethod, s.Scheduler)
	fmt.Printf("protocol:   %d samples, %d concurrent, seed %d\n", s.NumSamples, s.MaxConcurrent, s.Seed)
	keys := make([]string, 0, len(s.BestConfig))
	for k := range s.BestConfig {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("best:       ")
	for _, k := range keys {
		fmt.Printf("%s=%g ", k, s.BestConfig[k])
	}
	fmt.Printf("-> %s %.4f\n", s.Objective, s.BestObjective)
	evals, err := a.Evaluations()
	if err != nil {
		return err
	}
	fmt.Printf("archived evaluations: %d\n", len(evals))
	return nil
}

// verify re-executes archived evaluations with their original seeds and
// protocol and checks the metric reproduces exactly — the repeatability
// the paper's Phase III archive promises ("one may repeat those
// experiments easily").
func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	maxEvals := fs.Int("max", 3, "number of archived evaluations to re-run")
	clients := fs.Int("workload", 80, "simultaneous requests used by the original run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxEvals < 1 {
		return fmt.Errorf("verify: -max must be at least 1, got %d", *maxEvals)
	}
	if fs.Arg(0) == "" {
		return fmt.Errorf("verify: missing <backup_dir> argument")
	}
	a, err := provenance.NewArchive(fs.Arg(0))
	if err != nil {
		return err
	}
	s, err := a.ReadSummary()
	if err != nil {
		return err
	}
	evals, err := a.Evaluations()
	if err != nil {
		return err
	}
	if len(evals) == 0 {
		return fmt.Errorf("verify: archive holds no evaluations")
	}
	obj := core.PlantNetObjective(*clients, s.Seed)
	n := min(*maxEvals, len(evals))
	fmt.Printf("re-running %d of %d archived evaluations (seed %d, %d x %.0fs)\n",
		n, len(evals), s.Seed, s.Repeat, s.Duration)
	failures := 0
	for _, rec := range evals[:n] {
		x := make([]float64, 4)
		for i, name := range []string{"http", "download", "simsearch", "extract"} {
			v, ok := rec.Config[name]
			if !ok {
				return fmt.Errorf("verify: evaluation %d misses variable %q", rec.Index, name)
			}
			x[i] = v
		}
		got, err := obj(&core.Evaluation{Index: rec.Index, X: x, Repeat: s.Repeat, RepeatParallelism: s.RepeatParallelism, Duration: s.Duration})
		if err != nil {
			return err
		}
		status := "OK"
		if got != rec.Objective {
			status = fmt.Sprintf("MISMATCH (got %.6f)", got)
			failures++
		}
		fmt.Printf("  eval %04d  %-45s %s = %.6f  %s\n",
			rec.Index, space.PlantNetProblem().Space.Format(x), rec.Metric, rec.Objective, status)
	}
	if failures > 0 {
		return fmt.Errorf("verify: %d of %d evaluations did not reproduce", failures, n)
	}
	fmt.Println("all re-run evaluations reproduced exactly")
	return nil
}
