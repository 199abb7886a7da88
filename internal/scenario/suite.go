package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"e2clab/internal/par"
	"e2clab/internal/provenance"
	"e2clab/internal/rngutil"
	"e2clab/internal/space"
	"e2clab/internal/tune"
)

// Suite is a named family of scenarios evaluated under one protocol — the
// paper's experiment campaign unit.
type Suite struct {
	Name string `json:"name"`
	// Seed roots every scenario's derived seed; the suite's output is a
	// pure function of (suite spec, seed).
	Seed int64 `json:"seed,omitempty"`
	// DurationSeconds / Repeats apply to scenarios that do not override
	// them (defaults 300 s / 1).
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	Repeats         int     `json:"repeats,omitempty"`
	// NetworkModel is the default for scenarios that do not set their own
	// ("analytical" or "simulated"; see Scenario.NetworkModel). The
	// resolved per-scenario value is fingerprinted, so changing it
	// invalidates the checkpoint of every affected scenario.
	NetworkModel string `json:"network_model,omitempty"`
	// Shards is the default sharded-kernel worker count for scenarios that
	// do not set their own (see Scenario.Shards; 0 = sequential).
	Shards    int        `json:"shards,omitempty"`
	Scenarios []Scenario `json:"scenarios"`
}

// LoadSuite reads a suite definition from JSON (the declarative form the
// ready-made suite in examples/suite/suite.json ships in).
func LoadSuite(path string) (*Suite, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return &s, nil
}

// resolved returns the scenarios with suite-level protocol defaults
// applied, after validating the suite.
func (s Suite) resolved() ([]Scenario, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: suite needs a name")
	}
	if len(s.Scenarios) == 0 {
		return nil, fmt.Errorf("scenario: suite %q has no scenarios", s.Name)
	}
	out := make([]Scenario, len(s.Scenarios))
	seen := make(map[string]bool, len(s.Scenarios))
	for i, sc := range s.Scenarios {
		if sc.DurationSeconds <= 0 {
			sc.DurationSeconds = s.DurationSeconds
		}
		if sc.Repeats <= 0 {
			sc.Repeats = s.Repeats
		}
		if sc.NetworkModel == "" {
			sc.NetworkModel = s.NetworkModel
		}
		if sc.Shards == 0 {
			sc.Shards = s.Shards
		}
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		sc = sc.withDefaults()
		if seen[sc.Name] {
			return nil, fmt.Errorf("scenario: suite %q has duplicate scenario name %q", s.Name, sc.Name)
		}
		seen[sc.Name] = true
		out[i] = sc
	}
	return out, nil
}

// Options configures a suite execution.
type Options struct {
	// Parallel bounds the suite-level worker pool (0 = GOMAXPROCS, 1 =
	// sequential). Results are aggregated in scenario-index order after
	// all workers finish, so fixed-seed output is bit-identical at any
	// parallelism (the plantnet.RunRepeated pattern).
	Parallel int
	// CheckpointPath enables crash-safe resume: the suite state is saved
	// (atomically, via the tune checkpoint machinery) after every scenario
	// completes, and a restart skips scenarios already completed under the
	// same spec, seed, and protocol.
	CheckpointPath string
	// ArchiveDir, when set, archives suite provenance: one evaluation
	// record per scenario plus a suite.json manifest.
	ArchiveDir string
	// Logger, when set, receives one event per scenario state change
	// ("resumed", "started", "completed", "failed").
	Logger func(event string, index int, name string)
	// InterruptAfter, when positive, runs at most this many of the
	// scenarios not resumed from the checkpoint (the first ones in index
	// order); when that leaves any unreached, RunSuite returns
	// ErrInterrupted — a crash simulation hook for resume tests and demos.
	// Every scenario it does run completes and checkpoints.
	InterruptAfter int
}

// ErrInterrupted reports a suite stopped by Options.InterruptAfter.
var ErrInterrupted = errors.New("scenario: suite interrupted")

// SuiteResult aggregates a suite execution in scenario-index order.
type SuiteResult struct {
	Suite string
	// Results holds one entry per scenario, index-aligned; nil where the
	// scenario failed or was not reached before an interruption.
	Results []*Result
	// Errs is index-aligned with Results (nil on success).
	Errs []error
	// Executed counts scenarios actually run in this invocation; Resumed
	// counts those restored from the checkpoint without re-running.
	Executed int
	Resumed  int
}

// suiteMetric is the checkpoint metric name.
const suiteMetric = "user_resp_time"

// fingerprint identifies a (scenario, derived seed) pair in the checkpoint
// so resume only trusts trials whose spec, protocol, seed and Result layout
// all match. The two halves are stored as exact small integers in
// Trial.Config. The error is json.Marshal's: a spec holding a non-finite
// number, which Validate rejects first.
func fingerprint(sc Scenario, seed int64) (hi, lo float64, err error) {
	// The sharded kernel is worker-count invariant (bit-identical results
	// for any Shards >= 2), so the fingerprint collapses the count to its
	// canonical 2: retuning parallelism never invalidates a checkpoint,
	// while switching between the sequential (0) and sharded (>= 2)
	// deterministic families still does.
	if sc.Shards > 2 {
		sc.Shards = 2
	}
	b, err := json.Marshal(sc)
	if err != nil {
		return 0, 0, fmt.Errorf("scenario %q: fingerprint: %w", sc.Name, err)
	}
	h := fnv.New64a()
	h.Write(b)
	fmt.Fprintf(h, "|seed=%d", seed)
	for _, f := range resultLayout {
		fmt.Fprintf(h, "|%s:%s", f.path, f.kind)
	}
	sum := h.Sum64()
	return float64(sum >> 32), float64(sum & 0xffffffff), nil
}

// RunSuite executes every scenario of the suite on a bounded worker pool
// with ordered aggregation, optional crash-safe checkpointing, and optional
// provenance archiving. See Options for the determinism and resume
// contracts.
//
//simlint:ordered per-scenario seeds are derived before the pool starts and workers write results[i]/errs[i] for the pending index they claim; aggregation walks index order (suite_test pins parallel == sequential)
func RunSuite(s Suite, opts Options) (*SuiteResult, error) {
	scenarios, err := s.resolved()
	if err != nil {
		return nil, err
	}
	n := len(scenarios)

	// All per-scenario seeds derive from the suite seed up front, so a
	// scenario's result does not depend on which worker runs it or on what
	// completed before it.
	seeder := rngutil.NewSeeder(s.Seed + 17)
	seeds := make([]int64, n)
	fpHi := make([]float64, n)
	fpLo := make([]float64, n)
	for i := range seeds {
		seeds[i] = seeder.Next()
		if fpHi[i], fpLo[i], err = fingerprint(scenarios[i], seeds[i]); err != nil {
			return nil, err
		}
	}

	results := make([]*Result, n)
	errs := make([]error, n)
	trials := make([]*tune.Trial, n)
	resumed := 0

	// Resume: trust only checkpoint trials whose fingerprint still matches
	// the scenario spec + seed + protocol at the same index.
	if opts.CheckpointPath != "" {
		if ck, lerr := tune.Load(opts.CheckpointPath); lerr == nil && ck.Name == s.Name {
			for _, t := range ck.Trials {
				i := t.ID
				if i < 0 || i >= n || t.Status != tune.Completed {
					continue
				}
				if len(t.Config) != 3 || t.Config[0] != float64(i) ||
					t.Config[1] != fpHi[i] || t.Config[2] != fpLo[i] {
					continue
				}
				if r, ok := decodeResult(t.Reports); ok && r.Index == i {
					// The strings are not checkpointed: the fingerprint
					// guarantees the spec they derive from is unchanged.
					r.Name = scenarios[i].Name
					r.NetModel = scenarios[i].networkModelName()
					results[i] = r
					resumed++
					if opts.Logger != nil {
						opts.Logger("resumed", i, scenarios[i].Name)
					}
				}
			}
		} else if lerr != nil && !errors.Is(lerr, os.ErrNotExist) {
			return nil, fmt.Errorf("scenario: checkpoint %s unusable: %w", opts.CheckpointPath, lerr)
		}
	}
	for i := range trials {
		trials[i] = &tune.Trial{
			ID:     i,
			Config: []float64{float64(i), fpHi[i], fpLo[i]},
			Status: tune.Pending,
		}
		if results[i] != nil {
			trials[i].Status = tune.Completed
			trials[i].Value = results[i].RespMean
			trials[i].Reports = encodeResult(results[i])
		}
	}

	var archive *provenance.Archive
	if opts.ArchiveDir != "" {
		archive, err = provenance.NewArchive(opts.ArchiveDir)
		if err != nil {
			return nil, err
		}
	}

	var mu sync.Mutex // guards trials, results, errs, saveErr, checkpoint writes
	saveCheckpoint := func() error {
		if opts.CheckpointPath == "" {
			return nil
		}
		a := &tune.Analysis{Name: s.Name, Metric: suiteMetric, Mode: space.Min,
			Trials: trials}
		return a.Save(opts.CheckpointPath)
	}

	// The scenarios to run in this invocation: those not resumed, in index
	// order, cut to InterruptAfter.
	var pending []int
	for i, r := range results {
		if r == nil {
			pending = append(pending, i)
		}
	}
	interrupted := opts.InterruptAfter > 0 && len(pending) > opts.InterruptAfter
	if interrupted {
		pending = pending[:opts.InterruptAfter]
	}

	var saveErr error // first checkpoint-write failure
	par.For(len(pending), opts.Parallel, func(_, k int) {
		i := pending[k]
		sc := scenarios[i]
		mu.Lock()
		trials[i].Status = tune.Running
		if opts.Logger != nil {
			opts.Logger("started", i, sc.Name)
		}
		mu.Unlock()
		r, rerr := sc.Run(seeds[i])
		mu.Lock()
		defer mu.Unlock()
		if rerr != nil {
			errs[i] = rerr
			trials[i].Status = tune.Failed
			trials[i].Err = rerr
			if opts.Logger != nil {
				opts.Logger("failed", i, sc.Name)
			}
		} else {
			r.Index = i
			results[i] = r
			trials[i].Status = tune.Completed
			trials[i].Value = r.RespMean
			trials[i].Reports = encodeResult(r)
			if opts.Logger != nil {
				opts.Logger("completed", i, sc.Name)
			}
		}
		if err := saveCheckpoint(); err != nil && saveErr == nil {
			saveErr = err
		}
	})
	if saveErr != nil {
		return nil, fmt.Errorf("scenario: saving checkpoint: %w", saveErr)
	}

	// Ordered aggregation: everything below walks scenarios in index
	// order, so the output is independent of worker scheduling.
	out := &SuiteResult{
		Suite:    s.Name,
		Results:  results,
		Errs:     errs,
		Executed: len(pending),
		Resumed:  resumed,
	}
	if interrupted {
		return out, ErrInterrupted
	}
	if archive != nil {
		if err := archiveSuite(archive, s, scenarios, seeds, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// archiveSuite stores suite provenance: one evaluation record per completed
// scenario (its deployment, netem rules, and aggregate metrics) plus a
// suite.json manifest with the full declarative spec and root seed.
func archiveSuite(a *provenance.Archive, s Suite, scenarios []Scenario, seeds []int64, out *SuiteResult) error {
	for i, r := range out.Results {
		if r == nil {
			continue
		}
		sc := scenarios[i]
		dep := &provenance.DeploymentRecord{
			Configuration: map[string]string{
				"engine_layer":  sc.withDefaults().EngineLayer,
				"network_model": sc.networkModelName(),
				"pools":         sc.withDefaults().Pools.String(),
				"workload":      sc.Workload.kind(),
				"seed":          fmt.Sprint(seeds[i]),
			},
		}
		if cfg, err := sc.Deployment(); err == nil {
			for _, rule := range cfg.Network {
				dep.NetworkRules = append(dep.NetworkRules,
					fmt.Sprintf("%s->%s delay=%gms rate=%gGbps loss=%g%% sym=%v",
						rule.Src, rule.Dst, rule.DelayMS, rule.RateGbps, rule.LossPct, rule.Symmetric))
			}
		}
		rec := provenance.EvaluationRecord{
			Index:      i,
			Config:     map[string]float64{"gateways": float64(r.Gateways), "clients": float64(r.Clients)},
			Objective:  r.RespMean,
			Metric:     suiteMetric,
			Deployment: dep,
			Extra: map[string]float64{
				"engine_resp_mean": r.EngineResp.Mean,
				"net_overhead_sec": r.NetOverheadSec,
				"resp_p95":         r.RespP95,
				"throughput":       r.Throughput,
				"completed":        float64(r.Completed),
			},
		}
		if err := a.Finalize(rec); err != nil {
			return err
		}
	}
	manifest, err := json.MarshalIndent(struct {
		Suite    Suite   `json:"suite"`
		Seeds    []int64 `json:"scenario_seeds"`
		Executed int     `json:"executed"`
		Resumed  int     `json:"resumed"`
	}{s, seeds, out.Executed, out.Resumed}, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: marshal suite manifest: %w", err)
	}
	return a.WriteBlob("suite.json", manifest)
}
