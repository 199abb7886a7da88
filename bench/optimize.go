package main

import (
	"fmt"
	"math"

	"e2clab/internal/bo"
	"e2clab/internal/core"
	"e2clab/internal/plantnet"
	"e2clab/internal/rngutil"
	"e2clab/internal/space"
	"e2clab/internal/stats"
	"e2clab/internal/surrogate"
	"e2clab/internal/tune"
)

// optimizeSize is the shape of one optimize pass: studies independent
// optimizations, each the Listing 1 loop with samples evaluations, an
// initial LHS design of initial points, and repeat simulated runs of
// duration seconds per evaluation.
type optimizeSize struct {
	studies, samples, initial, repeat int
	duration                          float64
}

// clients is the paper's 80-request workload every evaluation runs.
const clients = 80

// optimize runs the Listing 1 optimization loop through core.Manager: ET
// surrogate, LHS initial design, gp_hedge, ASHA. MaxConcurrent is 1 because
// tune.Run tells results in completion order, which makes any higher value
// non-deterministic; the two cores go to the repeat pool and the forest fit.
//
// A pass runs several studies with seeds derived from the workload seed,
// as a user checking that the optimum reproduces would. Which
// configurations a study evaluates, and so what it costs, depends on its
// seed; averaging studies keeps the cost of a pass steady across seeds.
type optimize struct {
	size    optimizeSize
	studies []study
	// evalAllocs counts the heap allocations of the traced pass's
	// evaluations.
	evalAllocs uint64
}

// study is one optimization: its seed, its objective, the best trial of
// its last pass, and the optimizer of its last traced pass.
type study struct {
	seed int64
	obj  core.Objective
	best *tune.Trial
	opt  *bo.Optimizer
}

func newOptimize(seed int64, size optimizeSize) (*optimize, error) {
	o := &optimize{size: size}
	seeds := rngutil.NewSeeder(seed)
	for i := 0; i < size.studies; i++ {
		s := seeds.Next()
		o.studies = append(o.studies, study{seed: s, obj: core.PlantNetObjective(clients, s)})
	}
	// Warm-up op: one evaluation of the production baseline.
	if _, err := o.studies[0].obj(o.evaluation(0, plantnet.Baseline.Vector())); err != nil {
		return nil, fmt.Errorf("optimize warm-up: %w", err)
	}
	return o, nil
}

func (o *optimize) evaluation(index int, x []float64) *core.Evaluation {
	return &core.Evaluation{Index: index, X: x, Repeat: o.size.repeat,
		Duration: o.size.duration, RepeatParallelism: workers}
}

// searchConfig is the bo.Config core.Manager builds from spec; the traced
// pass needs it to drive tune.Run itself.
func (o *optimize) searchConfig(seed int64) bo.Config {
	return bo.Config{BaseEstimator: "ET", NInitialPoints: o.size.initial,
		InitialPointGenerator: "lhs", AcqFunc: "gp_hedge", Seed: seed}
}

func (o *optimize) spec(seed int64) core.Spec {
	c := o.searchConfig(seed)
	return core.Spec{
		Problem: space.PlantNetProblem(),
		Search: core.SearchSpec{Algorithm: "skopt", BaseEstimator: c.BaseEstimator,
			NInitialPoints: c.NInitialPoints, InitialPointGenerator: c.InitialPointGenerator,
			AcqFunc: c.AcqFunc},
		NumSamples:        o.size.samples,
		MaxConcurrent:     1,
		UseASHA:           true,
		Repeat:            o.size.repeat,
		Duration:          o.size.duration,
		RepeatParallelism: workers,
		Seed:              seed,
	}
}

// pass runs every study. An op is one evaluation cycle, from the previous
// objective return to this one: tell, ask and simulate.
func (o *optimize) pass(tr *tracer) (passOut, error) {
	var out passOut
	d := newDigest()
	o.evalAllocs = 0
	for i := range o.studies {
		s := &o.studies[i]
		last := now()
		timed := func(y float64, err error) (float64, error) {
			t := now()
			out.opsMS = append(out.opsMS, ms(t.Sub(last)))
			last = t
			if err != nil {
				out.failed++
			}
			return y, err
		}
		var a *tune.Analysis
		var err error
		if tr == nil {
			a, err = o.optimize(s, timed)
		} else {
			a, err = o.tracedOptimize(s, tr, timed)
		}
		if err != nil {
			return out, fmt.Errorf("optimize: %w", err)
		}
		// The (x, y) trajectory in trial order.
		for _, t := range a.Trials {
			d.add(t.Config)
			d.add(t.Value)
			d.add(int(t.Status))
		}
		s.best = a.Best()
	}
	out.digest = d.sum()
	return out, nil
}

func (o *optimize) optimize(s *study, timed func(float64, error) (float64, error)) (*tune.Analysis, error) {
	m, err := core.NewManager(o.spec(s.seed))
	if err != nil {
		return nil, err
	}
	res, err := m.Optimize(func(ev *core.Evaluation) (float64, error) { return timed(s.obj(ev)) })
	if err != nil {
		return nil, err
	}
	return res.Analysis, nil
}

// tracedOptimize reproduces core.Manager.Optimize with tune.Run driven
// directly, so that Ask, Tell and every evaluation can be timed from
// outside. Its trajectory must hash identically to the untraced one.
func (o *optimize) tracedOptimize(s *study, tr *tracer,
	timed func(float64, error) (float64, error)) (*tune.Analysis, error) {
	p := space.PlantNetProblem()
	opt, err := bo.New(p.Space, o.searchConfig(s.seed))
	if err != nil {
		return nil, err
	}
	s.opt = opt
	root := tr.begin("tune.Run", 0, -1)
	defer tr.end(root)
	search := &timedSearch{opt: opt, tr: tr, root: root}
	return tune.Run(tune.RunConfig{
		Name: p.Name, Metric: p.Objectives[0].Name, Mode: p.Objectives[0].Mode,
		NumSamples: o.size.samples, MaxConcurrent: 1, Scheduler: &tune.AsyncHyperBand{},
	}, search, func(ctx *tune.Context, x []float64) (float64, error) {
		// With MaxConcurrent 1 the Manager's evaluation index is the trial id.
		ev := o.evaluation(ctx.TrialID(), append([]float64(nil), x...))
		ev.Report = ctx.Report
		id := tr.begin("plantnet.eval", root, ctx.TrialID())
		m0 := mallocs()
		y, err := s.obj(ev)
		o.evalAllocs += mallocs() - m0
		tr.end(id)
		return timed(y, err)
	})
}

// verify re-runs each study's best configuration and requires the recorded
// value bit for bit.
func (o *optimize) verify() (string, error) {
	note := "best mean user response (simulated):"
	for i, s := range o.studies {
		if s.best == nil {
			return "", fmt.Errorf("optimize: study %d has no completed trial", i)
		}
		y, err := s.obj(o.evaluation(s.best.ID, s.best.Config))
		if err != nil {
			return "", fmt.Errorf("optimize: re-running study %d's best configuration: %w", i, err)
		}
		if math.Float64bits(y) != math.Float64bits(s.best.Value) {
			return "", fmt.Errorf("optimize: study %d's best configuration re-ran to %v, recorded %v", i, y, s.best.Value)
		}
		note += fmt.Sprintf(" %.6f s at %v;", s.best.Value, s.best.Config)
	}
	return note, nil
}

func (o *optimize) layers(tr *tracer, m *metrics, reps int) error {
	// Per study: the sums over its trials, and the last 10 asks (N≈140).
	var askSum, tellSum, self float64
	var lastAsks []float64
	for _, sp := range tr.spans {
		if sp.name != "tune.Run" {
			continue
		}
		var asks []float64
		for _, c := range tr.spans {
			if c.parent != sp.id {
				continue
			}
			switch c.name {
			case "bo.Ask":
				asks = append(asks, ms(c.end-c.start))
			case "bo.Tell":
				tellSum += ms(c.end - c.start)
			}
		}
		askSum += sum(asks)
		lastAsks = append(lastAsks, asks[max(0, len(asks)-10):]...)
		self += ms(tr.self(sp.id))
	}
	n := float64(len(o.studies))
	m.add("bo.ask_ms", "ms", askSum/n)
	m.add("bo.ask_last10_ms", "ms", stats.Mean(lastAsks))
	m.add("bo.tell_ms", "ms", tellSum/n)
	m.add("tune.self_ms", "ms", self/n)
	evals := tr.durations("plantnet.eval")
	m.add("plantnet.eval_ms", "ms", median(evals))
	m.add("plantnet.allocs_per_eval", "count", float64(o.evalAllocs)/float64(len(evals)))

	// The surrogate at the first study's final design: an ET fit on every
	// evaluated point in unit space, and one acquisition batch of 1000
	// candidates.
	first := o.studies[0]
	sp := space.PlantNetProblem().Space
	X, y := first.opt.Evaluations()
	for i := range X {
		X[i] = sp.ToUnit(X[i])
	}
	var model *surrogate.Forest
	var fitErr error
	var allocs uint64
	fit := timeMedian(reps, func() {
		model = surrogate.NewExtraTrees(surrogate.DefaultForestConfig(), rngutil.New(first.seed))
		m0 := mallocs()
		fitErr = model.Fit(X, y)
		allocs += mallocs() - m0
	})
	if fitErr != nil {
		return fmt.Errorf("surrogate fit: %w", fitErr)
	}
	m.add("surrogate.fit_ms", "ms", fit)
	m.add("surrogate.allocs_per_fit", "count", float64(allocs)/float64(reps))
	rng := rngutil.New(first.seed + 1)
	cands := make([][]float64, 1000)
	for i := range cands {
		cands[i] = make([]float64, sp.Len())
		for j := range cands[i] {
			cands[i][j] = rng.Float64()
		}
	}
	m.add("surrogate.predict_batch_ms", "ms", timeMedian(reps, func() { surrogate.PredictBatch(model, cands) }))

	// Host time per simulated request, on one evaluation of the first
	// study's best configuration.
	opts := plantnet.RunOptions{Pools: plantnet.FromVector(first.best.Config), Clients: clients,
		Duration: o.size.duration, MaxParallel: workers, Seed: first.seed}
	t0 := now()
	rep, err := plantnet.RunRepeated(opts, o.size.repeat)
	if err != nil {
		return fmt.Errorf("plantnet eval: %w", err)
	}
	elapsed := now().Sub(t0)
	completed := 0
	for _, r := range rep.Runs {
		completed += r.Completed
	}
	m.add("plantnet.eval_ns_per_req", "ns", float64(elapsed)/float64(completed))
	return nil
}

// timedSearch wraps the optimizer's Ask and Tell in spans.
type timedSearch struct {
	opt  *bo.Optimizer
	tr   *tracer
	root int
	asks int
}

func (s *timedSearch) Ask() []float64 {
	id := s.tr.begin("bo.Ask", s.root, s.asks)
	s.asks++
	x := s.opt.Ask()
	s.tr.end(id)
	return x
}

func (s *timedSearch) Tell(x []float64, y float64) {
	id := s.tr.begin("bo.Tell", s.root, s.opt.N())
	s.opt.Tell(x, y)
	s.tr.end(id)
}
