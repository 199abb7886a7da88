package plantnet

import (
	"e2clab/internal/par"
	"e2clab/internal/rngutil"
	"e2clab/internal/stats"
)

// Repeated runs the same experiment `repeats` times with derived seeds and
// aggregates the user response time across all samples of all runs — the
// paper's protocol: 7 experiments of 23 minutes, metric collected every
// 10 s, reported as mean ± std over the 966 measurements.
type Repeated struct {
	Runs []*Metrics
	// UserResponseTime pools every post-warmup sample of every run.
	UserResponseTime stats.Summary
	// Throughput averages the per-run throughputs.
	Throughput float64
}

// RunRepeated executes opts.Pools under opts repeats times. All run seeds
// are derived up front from opts.Seed, so the runs are independent and
// execute concurrently on a worker pool bounded by opts.MaxParallel
// (default GOMAXPROCS). Results are aggregated in run-index order after
// every run completes, so the output — including the floating-point
// accumulation order of the pooled statistics — is identical to a
// sequential execution for a fixed seed. On error, the first failure in
// run-index order is returned.
//
// Each worker carries one Runner across its runs, so the per-run setup —
// simulation arena, replicas, pools, reservoir, request nodes and their
// bound stage closures — is paid once per worker instead of once per
// repeat. A Runner's reset is bit-complete, so the pooled execution is
// byte-identical to running every repeat on a fresh engine (enforced by
// the golden and repeat-determinism tests).
func RunRepeated(opts RunOptions, repeats int) (*Repeated, error) {
	return NewRunner().RunRepeated(opts, repeats)
}

// RunRepeated is the Runner-bound form of the package-level RunRepeated:
// worker 0 reuses the receiver's pooled state, so callers that execute
// many RunRepeated batches (e.g. the phases of one scenario) pay engine
// setup once; the other workers pool privately (a Runner is
// single-threaded).
//
//simlint:ordered seeds are derived up front and each worker writes runs[i]/errs[i] for the indices it claims; aggregation below walks index order (determinism pinned by repeat tests)
func (r *Runner) RunRepeated(opts RunOptions, repeats int) (*Repeated, error) {
	if repeats < 1 {
		repeats = 1
	}
	seeder := rngutil.NewSeeder(opts.Seed + 7)
	seeds := make([]int64, repeats)
	for i := range seeds {
		seeds[i] = seeder.Next()
	}
	runs := make([]*Metrics, repeats)
	errs := make([]error, repeats)
	runners := make([]*Runner, par.Workers(repeats, opts.MaxParallel))
	runners[0] = r
	par.For(repeats, len(runners), func(w, i int) {
		if runners[w] == nil {
			runners[w] = NewRunner()
		}
		o := opts
		o.Seed = seeds[i]
		runs[i], errs[i] = runners[w].Run(o)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := &Repeated{Runs: runs}
	var pooled stats.Welford
	var thr float64
	for _, m := range runs {
		for _, s := range m.Samples {
			if !isNaN(s.RespTime) {
				pooled.Add(s.RespTime)
			}
		}
		thr += m.Throughput
	}
	out.UserResponseTime = pooled.Snapshot()
	out.Throughput = thr / float64(repeats)
	return out, nil
}

func isNaN(v float64) bool { return v != v }
