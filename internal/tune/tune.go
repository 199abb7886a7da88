// Package tune is a Ray Tune-like parallel trial runner: the execution
// substrate the paper's Optimization Manager uses to "run parallel
// application workflows" with "state of the art search algorithms",
// concurrency limiting, and early-stopping schedulers (Listing 1 uses
// ConcurrencyLimiter(max_concurrent=2) and AsyncHyperBandScheduler).
//
// Trials run on up to MaxConcurrent workers of par.For (inline on the
// caller's goroutine when MaxConcurrent is 1); the search algorithm is
// consulted under a lock, so any ask/tell optimizer (package bo, random
// search) can drive the loop.
package tune

import (
	"fmt"
	"sync"

	"e2clab/internal/par"
	"e2clab/internal/space"
)

// Status is a trial's lifecycle state.
type Status int

const (
	// Pending trials have been created but not started.
	Pending Status = iota
	// Running trials are executing their objective.
	Running
	// Completed trials finished and reported a final metric.
	Completed
	// Stopped trials were terminated early by a scheduler.
	Stopped
	// Failed trials returned an error.
	Failed
)

func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Stopped:
		return "stopped"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Report is one intermediate metric report from a running trial.
type Report struct {
	Iteration int
	Value     float64
}

// Trial is one evaluation of a configuration.
type Trial struct {
	ID      int
	Config  []float64 // value-space configuration
	Status  Status
	Value   float64 // final metric (valid when Completed or Stopped)
	Reports []Report
	Err     error
}

// SearchAlgorithm proposes configurations and learns from results. Values
// passed to Tell are already oriented for minimization (the runner negates
// when Mode is Max).
type SearchAlgorithm interface {
	Ask() []float64
	Tell(x []float64, y float64)
}

// Decision is a scheduler's verdict on a reporting trial.
type Decision int

const (
	// Continue lets the trial keep training.
	Continue Decision = iota
	// Stop terminates the trial early; its last reported value stands.
	Stop
)

// Scheduler implements early stopping across concurrent trials.
type Scheduler interface {
	// OnReport is called for every intermediate report; value is oriented
	// for minimization.
	OnReport(trialID, iteration int, value float64) Decision
	// OnDone is called when a trial finishes or is stopped.
	OnDone(trialID int)
}

// FIFOScheduler never stops trials (tune's default).
type FIFOScheduler struct{}

// OnReport implements Scheduler.
func (FIFOScheduler) OnReport(int, int, float64) Decision { return Continue }

// OnDone implements Scheduler.
func (FIFOScheduler) OnDone(int) {}

// Context is handed to the objective for intermediate reporting.
type Context struct {
	trial   *Trial
	sched   Scheduler
	sign    float64
	mu      *sync.Mutex
	stopped bool
}

// Report records an intermediate metric value; it returns false when the
// scheduler decides the trial should stop (the objective should return
// promptly with its current value).
func (c *Context) Report(iteration int, value float64) bool {
	c.mu.Lock()
	c.trial.Reports = append(c.trial.Reports, Report{Iteration: iteration, Value: value})
	c.mu.Unlock()
	if c.sched.OnReport(c.trial.ID, iteration, c.sign*value) == Stop {
		c.stopped = true
		return false
	}
	return true
}

// TrialID returns the running trial's id.
func (c *Context) TrialID() int { return c.trial.ID }

// Objective evaluates one configuration; it may call ctx.Report for
// intermediate values and must return the final metric.
type Objective func(ctx *Context, x []float64) (float64, error)

// RunConfig configures a tuning run, mirroring tune.run's arguments in
// Listing 1.
type RunConfig struct {
	// Name labels the experiment ("plantnet_engine" in the paper).
	Name string
	// Metric is the reported metric's name ("user_resp_time").
	Metric string
	// Mode is space.Min or space.Max.
	Mode space.Mode
	// NumSamples is the number of trials (num_samples=10).
	NumSamples int
	// MaxConcurrent bounds parallel trials (ConcurrencyLimiter's
	// max_concurrent=2). Default 1.
	MaxConcurrent int
	// Scheduler early-stops trials; nil means FIFO.
	Scheduler Scheduler
}

// Run executes the tuning loop: ask the search algorithm, evaluate in
// parallel, tell results back asynchronously — the paper's optimization
// cycle (parallel deployment, simultaneous execution, asynchronous model
// optimization, reconfiguration).
//
//simlint:ordered trial configs are Asked under the mutex and take their IDs in Ask order; completion-order effects on Tell are part of the documented Concurrency semantics, and Concurrency=1 gives the sequential reference
func Run(cfg RunConfig, search SearchAlgorithm, objective Objective) (*Analysis, error) {
	if cfg.NumSamples <= 0 {
		return nil, fmt.Errorf("tune: NumSamples must be positive, got %d", cfg.NumSamples)
	}
	if search == nil {
		return nil, fmt.Errorf("tune: nil search algorithm")
	}
	if objective == nil {
		return nil, fmt.Errorf("tune: nil objective")
	}
	conc := cfg.MaxConcurrent
	if conc <= 0 {
		conc = 1
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = FIFOScheduler{}
	}
	sign := 1.0
	if cfg.Mode == space.Max {
		sign = -1
	}

	var mu sync.Mutex // guards search, trials, schedulers
	trials := make([]*Trial, 0, cfg.NumSamples)
	// Each of the conc workers asks for its next configuration only after
	// its previous trial was told: the limiter semantics.
	par.For(cfg.NumSamples, conc, func(_, _ int) {
		mu.Lock()
		x := search.Ask()
		trial := &Trial{ID: len(trials), Config: append([]float64(nil), x...), Status: Running}
		trials = append(trials, trial)
		mu.Unlock()

		ctx := &Context{trial: trial, sched: sched, sign: sign, mu: &mu}
		v, err := objective(ctx, trial.Config)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			trial.Status = Failed
			trial.Err = err
		case ctx.stopped:
			trial.Status = Stopped
			trial.Value = v
			search.Tell(trial.Config, sign*v)
		default:
			trial.Status = Completed
			trial.Value = v
			search.Tell(trial.Config, sign*v)
		}
		sched.OnDone(trial.ID)
	})

	a := &Analysis{Name: cfg.Name, Metric: cfg.Metric, Mode: cfg.Mode, Trials: trials}
	return a, nil
}

// Analysis summarizes a finished run, like tune.ExperimentAnalysis.
type Analysis struct {
	Name   string
	Metric string
	Mode   space.Mode
	Trials []*Trial
}

// Best returns the best completed-or-stopped trial according to Mode, or
// nil when every trial failed.
func (a *Analysis) Best() *Trial {
	var best *Trial
	for _, t := range a.Trials {
		if t.Status != Completed && t.Status != Stopped {
			continue
		}
		if best == nil {
			best = t
			continue
		}
		if (a.Mode == space.Min && t.Value < best.Value) ||
			(a.Mode == space.Max && t.Value > best.Value) {
			best = t
		}
	}
	return best
}

// CountByStatus tallies trials per status.
func (a *Analysis) CountByStatus() map[Status]int {
	m := make(map[Status]int)
	for _, t := range a.Trials {
		m[t.Status]++
	}
	return m
}
