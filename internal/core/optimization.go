package core

import (
	"fmt"
	"math"
	"sync"

	"e2clab/internal/bo"
	"e2clab/internal/metaheur"
	"e2clab/internal/provenance"
	"e2clab/internal/space"
	"e2clab/internal/tune"
)

// SearchSpec selects and parameterizes the search algorithm, mirroring
// Listing 1's SkOptSearch(Optimizer(base_estimator='ET',
// n_initial_points=45, initial_point_generator="lhs",
// acq_func="gp_hedge")).
type SearchSpec struct {
	// Algorithm: "skopt" (Bayesian optimization, default), or one of the
	// short-running-application algorithms "ga", "de", "sa", "pso",
	// "tabu", or "random".
	Algorithm string
	// Bayesian-optimization settings (skopt only).
	BaseEstimator         string
	NInitialPoints        int
	InitialPointGenerator string
	AcqFunc               string
}

func (s *SearchSpec) fillDefaults() {
	if s.Algorithm == "" {
		s.Algorithm = "skopt"
	}
	if s.BaseEstimator == "" {
		s.BaseEstimator = "ET"
	}
	if s.InitialPointGenerator == "" {
		s.InitialPointGenerator = "lhs"
	}
	if s.AcqFunc == "" {
		s.AcqFunc = "gp_hedge"
	}
	if s.NInitialPoints <= 0 {
		s.NInitialPoints = 10
	}
}

// Spec is the user-defined optimization setup (the optimizer_conf
// configuration file of the extended E2Clab architecture).
type Spec struct {
	Problem *space.Problem
	Search  SearchSpec
	// NumSamples is the number of configurations evaluated (num_samples).
	NumSamples int
	// MaxConcurrent bounds parallel evaluations (ConcurrencyLimiter).
	MaxConcurrent int
	// UseASHA enables the AsyncHyperBandScheduler of Listing 1.
	UseASHA bool
	// Repeat and Duration carry the CLI's --repeat/--duration settings to
	// the objective (how many times and how long each configuration runs).
	Repeat   int
	Duration float64
	// RepeatParallelism bounds the worker pool each evaluation may use to
	// run its Repeat independent experiments concurrently (see
	// plantnet.RunOptions.MaxParallel); 0 uses GOMAXPROCS. Tune it down
	// when MaxConcurrent already saturates the machine.
	RepeatParallelism int
	Seed              int64
	// ArchiveDir is where Phase I-III artifacts are stored; empty disables
	// archiving.
	ArchiveDir string
}

// CheckProtocol rejects -duration and -repeat values that the CLIs would
// not honour. A NaN or infinite horizon never ends a simulation run, a
// non-positive one would be replaced by the paper's 1380 s horizon, and
// fewer than one repetition would be run as one.
func CheckProtocol(duration float64, repeat int) error {
	if math.IsNaN(duration) || math.IsInf(duration, 0) || duration <= 0 {
		return fmt.Errorf("-duration must be finite and positive, got %v", duration)
	}
	if repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1, got %d", repeat)
	}
	return nil
}

// Evaluation is the context handed to the user objective for one model
// evaluation: the configuration to deploy and the dedicated optimization
// directory created by prepare().
type Evaluation struct {
	Index int
	X     []float64
	// Dir is the evaluation's optimization directory ("" when archiving is
	// disabled).
	Dir string
	// Repeat and Duration echo the Spec for the deployment logic.
	Repeat   int
	Duration float64
	// RepeatParallelism echoes Spec.RepeatParallelism for objectives that
	// run their repeats on a worker pool.
	RepeatParallelism int
	// Report exposes intermediate metric reporting to the ASHA scheduler.
	Report func(iteration int, value float64) bool
}

// Objective deploys one configuration on the testbed and returns the
// metric value (the run_objective of Listing 1: prepare -> launch ->
// finalize -> report).
type Objective func(ev *Evaluation) (float64, error)

// Result summarizes one optimization run.
type Result struct {
	Best     []float64
	BestY    float64
	Analysis *tune.Analysis
	Summary  provenance.Summary
	// History is the running-best convergence curve (metaheuristics) or
	// per-trial values in completion order (skopt).
	History []float64
}

// Manager is the Optimization Manager of the extended E2Clab architecture:
// it interprets the user-defined optimization setup and automates the
// optimization cycle, then provides the summary of computations for
// reproducibility.
type Manager struct {
	spec    Spec
	archive *provenance.Archive

	mu    sync.Mutex
	evals int
}

// NewManager validates the spec and prepares the archive.
func NewManager(spec Spec) (*Manager, error) {
	if spec.Problem == nil {
		return nil, fmt.Errorf("core: optimization spec has no problem")
	}
	if err := spec.Problem.Validate(); err != nil {
		return nil, err
	}
	if spec.Problem.MultiObjective() {
		return nil, fmt.Errorf("core: Manager optimizes a single objective; scalarize the objectives into one metric")
	}
	spec.Search.fillDefaults()
	if spec.NumSamples <= 0 {
		spec.NumSamples = 10
	}
	if spec.MaxConcurrent <= 0 {
		spec.MaxConcurrent = 1
	}
	if spec.Repeat <= 0 {
		spec.Repeat = 1
	}
	if spec.Duration <= 0 {
		spec.Duration = 1380
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	m := &Manager{spec: spec}
	if spec.ArchiveDir != "" {
		a, err := provenance.NewArchive(spec.ArchiveDir)
		if err != nil {
			return nil, err
		}
		m.archive = a
	}
	return m, nil
}

// Spec returns the effective (defaults-filled) specification.
func (m *Manager) Spec() Spec { return m.spec }

// Optimize runs the full optimization cycle and writes the Phase III
// summary.
func (m *Manager) Optimize(obj Objective) (*Result, error) {
	if obj == nil {
		return nil, fmt.Errorf("core: nil objective")
	}
	var res *Result
	var err error
	switch m.spec.Search.Algorithm {
	case "skopt", "random":
		res, err = m.optimizeParallel(obj)
	case "ga", "de", "sa", "pso", "tabu":
		res, err = m.optimizeMetaheuristic(obj)
	default:
		return nil, fmt.Errorf("core: unknown search algorithm %q", m.spec.Search.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	res.Summary = m.buildSummary(res)
	if m.archive != nil {
		if err := m.archive.WriteSummary(res.Summary); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// wrap turns the user objective into a tune objective with
// prepare/launch/finalize semantics around it.
func (m *Manager) wrap(obj Objective) tune.Objective {
	return func(ctx *tune.Context, x []float64) (float64, error) {
		m.mu.Lock()
		idx := m.evals
		m.evals++
		m.mu.Unlock()
		ev := &Evaluation{
			Index:             idx,
			X:                 append([]float64(nil), x...),
			Repeat:            m.spec.Repeat,
			Duration:          m.spec.Duration,
			RepeatParallelism: m.spec.RepeatParallelism,
			Report:            ctx.Report,
		}
		if m.archive != nil {
			dir, err := m.archive.Prepare(idx) // prepare()
			if err != nil {
				return 0, err
			}
			ev.Dir = dir
		}
		y, err := obj(ev) // launch()
		if err != nil {
			return 0, err
		}
		if m.archive != nil { // finalize()
			rec := provenance.EvaluationRecord{
				Index:     idx,
				Config:    m.spec.Problem.Space.Map(x),
				Objective: y,
				Metric:    m.spec.Problem.Objectives[0].Name,
			}
			if err := m.archive.Finalize(rec); err != nil {
				return 0, err
			}
		}
		return y, nil
	}
}

func (m *Manager) optimizeParallel(obj Objective) (*Result, error) {
	var search tune.SearchAlgorithm
	switch m.spec.Search.Algorithm {
	case "random":
		search = &tune.RandomSearch{Space: m.spec.Problem.Space, Seed: m.spec.Seed}
	default:
		opt, err := bo.New(m.spec.Problem.Space, bo.Config{
			BaseEstimator:         m.spec.Search.BaseEstimator,
			NInitialPoints:        m.spec.Search.NInitialPoints,
			InitialPointGenerator: m.spec.Search.InitialPointGenerator,
			AcqFunc:               m.spec.Search.AcqFunc,
			Seed:                  m.spec.Seed,
		})
		if err != nil {
			return nil, err
		}
		search = opt
	}
	var sched tune.Scheduler
	if m.spec.UseASHA {
		sched = &tune.AsyncHyperBand{}
	}
	objective := m.spec.Problem.Objectives[0]
	analysis, err := tune.Run(tune.RunConfig{
		Name:          m.spec.Problem.Name,
		Metric:        objective.Name,
		Mode:          objective.Mode,
		NumSamples:    m.spec.NumSamples,
		MaxConcurrent: m.spec.MaxConcurrent,
		Scheduler:     sched,
	}, search, m.wrap(obj))
	if err != nil {
		return nil, err
	}
	best := analysis.Best()
	if best == nil { // no trial completed, so every trial holds its error
		return nil, fmt.Errorf("core: every evaluation failed, the first with: %w", analysis.Trials[0].Err)
	}
	// Archive the final surrogate model alongside the evaluations
	// (finalize(): "intermediate models throughout training").
	if m.archive != nil {
		if opt, ok := search.(*bo.Optimizer); ok {
			if blob, err := opt.SnapshotModel(); err == nil {
				if err := m.archive.WriteBlob("model.json", blob); err != nil {
					return nil, err
				}
			}
		}
	}
	res := &Result{Best: best.Config, BestY: best.Value, Analysis: analysis}
	for _, t := range analysis.Trials {
		if t.Status == tune.Completed || t.Status == tune.Stopped {
			res.History = append(res.History, t.Value)
		}
	}
	return res, nil
}

func (m *Manager) optimizeMetaheuristic(obj Objective) (*Result, error) {
	var alg metaheur.Algorithm
	switch m.spec.Search.Algorithm {
	case "ga":
		alg = metaheur.GA{Seed: m.spec.Seed}
	case "de":
		alg = metaheur.DE{Seed: m.spec.Seed}
	case "sa":
		alg = metaheur.SA{Seed: m.spec.Seed}
	case "pso":
		alg = metaheur.PSO{Seed: m.spec.Seed}
	case "tabu":
		alg = metaheur.Tabu{Seed: m.spec.Seed}
	}
	wrapped := m.wrap(obj)
	sign := 1.0
	if m.spec.Problem.Objectives[0].Mode == space.Max {
		sign = -1
	}
	var evalErr error
	fn := metaheur.Penalized(m.spec.Problem, func(x []float64) float64 {
		y, err := wrapped(nil, x)
		if err != nil {
			evalErr = err
			return math.Inf(1)
		}
		return sign * y
	}, 1e9)
	r := alg.Minimize(m.spec.Problem.Space, fn, m.spec.NumSamples)
	if evalErr != nil {
		return nil, evalErr
	}
	if r.X == nil {
		return nil, fmt.Errorf("core: %s produced no result", alg.Name())
	}
	return &Result{Best: r.X, BestY: sign * r.Y, History: r.History}, nil
}

// buildSummary assembles the Phase III reproducibility summary.
func (m *Manager) buildSummary(res *Result) provenance.Summary {
	p := m.spec.Problem
	vars := make([]provenance.VariableDef, p.Space.Len())
	for i := 0; i < p.Space.Len(); i++ {
		d := p.Space.Dim(i)
		vars[i] = provenance.VariableDef{Name: d.Name, Kind: d.Kind.String(), Low: d.Low, High: d.High}
	}
	var constraints []string
	for _, c := range p.Constraints {
		constraints = append(constraints, c.Name)
	}
	for _, e := range p.Equalities {
		constraints = append(constraints, e.Name+" (equality)")
	}
	hyper := map[string]string{}
	sched := ""
	if m.spec.Search.Algorithm == "skopt" {
		hyper["base_estimator"] = m.spec.Search.BaseEstimator
		hyper["n_initial_points"] = fmt.Sprintf("%d", m.spec.Search.NInitialPoints)
		hyper["initial_point_generator"] = m.spec.Search.InitialPointGenerator
		hyper["acq_func"] = m.spec.Search.AcqFunc
	}
	if m.spec.UseASHA {
		sched = "async_hyperband"
	}
	return provenance.Summary{
		Name:              p.Name,
		Variables:         vars,
		Objective:         p.Objectives[0].Name,
		Mode:              p.Objectives[0].Mode.String(),
		Constraints:       constraints,
		SampleMethod:      m.spec.Search.InitialPointGenerator,
		SearchAlg:         m.spec.Search.Algorithm,
		Hyperparams:       hyper,
		Scheduler:         sched,
		NumSamples:        m.spec.NumSamples,
		MaxConcurrent:     m.spec.MaxConcurrent,
		Repeat:            m.spec.Repeat,
		RepeatParallelism: m.spec.RepeatParallelism,
		Duration:          m.spec.Duration,
		Seed:              m.spec.Seed,
		BestConfig:        p.Space.Map(res.Best),
		BestObjective:     res.BestY,
		Evaluations:       m.evals,
	}
}
