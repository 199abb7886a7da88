package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"e2clab/internal/fault"
	"e2clab/internal/plantnet"
	"e2clab/internal/scenario"
	"e2clab/internal/tune"
)

// suiteSize overrides a frozen suite's protocol and keeps only its first
// scenarios; zero keeps the file's.
type suiteSize struct {
	durationSeconds float64
	repeats         int
	scenarios       int
}

// suiteLoad is a workload that runs a frozen suite file through
// scenario.LoadSuite and scenario.RunSuite, the path `experiments -suite`
// takes. The suite is a file so that a later edit to the scenario library
// cannot silently change the benchmark.
type suiteLoad struct {
	suite    scenario.Suite
	parallel int // RunSuite's worker pool

	last *scenario.SuiteResult
}

// loadSuite reads file from dataDir, roots it at seed, applies size, and
// runs the warm-up op: the first scenario alone under the suite protocol,
// on a horizon of at most warmupSeconds (0 keeps the suite's).
func loadSuite(dataDir, file string, seed int64, size suiteSize, parallel int, warmupSeconds float64) (suiteLoad, error) {
	s, err := scenario.LoadSuite(filepath.Join(dataDir, file))
	if err != nil {
		return suiteLoad{}, err
	}
	s.Seed = seed
	if size.durationSeconds > 0 {
		s.DurationSeconds, s.Repeats = size.durationSeconds, size.repeats
	}
	if size.scenarios > 0 {
		s.Scenarios = s.Scenarios[:size.scenarios]
	}
	warm := *s
	warm.Scenarios = warm.Scenarios[:1]
	if warmupSeconds > 0 {
		warm.DurationSeconds = min(warm.DurationSeconds, warmupSeconds)
	}
	if _, err := scenario.RunSuite(warm, scenario.Options{Parallel: 1}); err != nil {
		return suiteLoad{}, fmt.Errorf("%s warm-up: %w", s.Name, err)
	}
	return suiteLoad{suite: *s, parallel: parallel}, nil
}

// run runs the suite once with opts and the workload's pool. An op is one
// scenario, from the Logger's "started" event to its "completed" or
// "failed" one; tr, when set, records each as a span under a RunSuite span.
func (l *suiteLoad) run(s scenario.Suite, opts scenario.Options, tr *tracer) (passOut, *scenario.SuiteResult, error) {
	n := len(s.Scenarios)
	started := make([]time.Time, n)
	spans := make([]int, n)
	out := passOut{opsMS: make([]float64, n)}
	root := tr.begin("scenario.RunSuite", 0, -1)
	opts.Parallel = l.parallel
	// The Logger runs under RunSuite's lock, so these writes are serialized.
	opts.Logger = func(event string, i int, _ string) {
		switch event {
		case "started":
			started[i] = now()
			spans[i] = tr.begin("scenario.Run", root, i)
		case "completed", "failed":
			out.opsMS[i] = ms(now().Sub(started[i]))
			tr.end(spans[i])
		}
	}
	res, err := scenario.RunSuite(s, opts)
	tr.end(root)
	if err != nil {
		return out, nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	for _, e := range res.Errs {
		if e != nil {
			out.failed++
		}
	}
	out.digest = resultsDigest(res)
	return out, res, nil
}

// resultsDigest hashes every Result in index order.
func resultsDigest(res *scenario.SuiteResult) uint64 {
	d := newDigest()
	for _, r := range res.Results {
		d.add(r)
	}
	return d.sum()
}

func (l *suiteLoad) verify() (string, error) {
	completed := 0
	for i, r := range l.last.Results {
		if r == nil || r.Completed == 0 {
			return "", fmt.Errorf("%s: scenario %d (%s) completed no request", l.suite.Name, i, l.suite.Scenarios[i].Name)
		}
		completed += r.Completed
	}
	return fmt.Sprintf("%d scenarios, %d simulated requests completed", len(l.last.Results), completed), nil
}

// campaign runs a frozen copy of the standard scenario suite on a pool of
// workers with a fresh checkpoint file per pass.
type campaign struct {
	suiteLoad
	seed int64
	work string // directory for checkpoint files

	// lastDigest and checkpoint belong to the last pass; the checkpoint is
	// kept only after a traced pass.
	lastDigest uint64
	checkpoint string
}

func newCampaign(seed int64, size suiteSize, dataDir, workDir string) (*campaign, error) {
	l, err := loadSuite(dataDir, "campaign.json", seed, size, workers, 0)
	if err != nil {
		return nil, err
	}
	return &campaign{suiteLoad: l, seed: seed, work: workDir}, nil
}

func (c *campaign) pass(tr *tracer) (passOut, error) {
	dir, err := os.MkdirTemp(c.work, "campaign-")
	if err != nil {
		return passOut{}, err
	}
	ckpt := filepath.Join(dir, "checkpoint.json")
	out, res, err := c.run(c.suite, scenario.Options{CheckpointPath: ckpt}, tr)
	if tr == nil {
		os.RemoveAll(dir)
	} else {
		c.checkpoint = ckpt
	}
	if err != nil {
		return out, err
	}
	c.last, c.lastDigest = res, out.digest
	return out, nil
}

func (c *campaign) layers(tr *tracer, m *metrics, reps int) error {
	var busy float64
	for _, s := range tr.spans {
		if s.name == "scenario.Run" {
			d := ms(s.end - s.start)
			m.add("scenario.run_ms."+c.suite.Scenarios[s.op].Name, "ms", d)
			busy += d
		}
	}
	suiteMS := tr.durations("scenario.RunSuite")[0]
	m.add("scenario.parallel_eff", "ratio", busy/(workers*suiteMS))

	// Lowering: validation, the deployment form and the closed-form network
	// cost of every scenario. The pass already ran them, so errors cannot
	// occur here.
	m.add("scenario.lower_us", "us", 1e3*timeMedian(reps, func() {
		for _, sc := range c.suite.Scenarios {
			_ = sc.Validate()
			_, _ = sc.Deployment()
			_ = sc.NetworkOverheadSeconds()
		}
	}))

	probe, err := c.probeOptions()
	if err != nil {
		return err
	}
	var probeErr error
	m.add("scenario.probe_ms", "ms", timeMedian(reps, func() {
		_, probeErr = plantnet.NewRunner().Run(probe)
	}))
	if probeErr != nil {
		return fmt.Errorf("calibration probe: %w", probeErr)
	}

	if err := c.checkpointLayers(m, 10*reps); err != nil {
		return err
	}

	// Every faulted scenario's schedule, compiled at its horizon.
	type compile struct {
		spec     *fault.Spec
		horizon  float64
		gateways int
		seed     int64
	}
	var specs []compile
	for i, sc := range c.suite.Scenarios {
		if sc.Faults.IsZero() {
			continue
		}
		h := sc.DurationSeconds
		if h <= 0 {
			h = c.suite.DurationSeconds
		}
		specs = append(specs, compile{sc.Faults, h, sc.TotalGateways(), c.seed + int64(i)})
	}
	m.add("fault.compile_us", "us", 1e3*timeMedian(reps, func() {
		for _, s := range specs {
			fault.Compile(s.spec, s.seed, s.horizon, s.gateways)
		}
	}))
	return nil
}

// probeOptions replays, from public fields, the calibration probe of the
// suite's calibrated scenario: a continuous shape with no explicit rate, on
// the analytical network (the simulated one is lowered by unexported code).
func (c *campaign) probeOptions() (plantnet.RunOptions, error) {
	for _, sc := range c.suite.Scenarios {
		w := sc.Workload
		if w.Continuous && w.RatePerClient == 0 && w.Kind != "trace" && sc.NetworkModel == "" {
			return plantnet.RunOptions{Pools: sc.Pools, Clients: sc.Clients(), Replicas: sc.Replicas,
				Duration: 120, Warmup: 30, Seed: c.seed}, nil
		}
	}
	return plantnet.RunOptions{}, fmt.Errorf("campaign: the suite has no calibrated analytical scenario")
}

// checkpointLayers times saving the finished checkpoint and resuming the
// suite from it; every resume must restore every Result bit for bit.
func (c *campaign) checkpointLayers(m *metrics, reps int) error {
	defer os.RemoveAll(filepath.Dir(c.checkpoint))
	a, err := tune.Load(c.checkpoint)
	if err != nil {
		return err
	}
	fi, err := os.Stat(c.checkpoint)
	if err != nil {
		return err
	}
	m.add("scenario.checkpoint_kb", "KiB", float64(fi.Size())/1024)
	copyPath := filepath.Join(filepath.Dir(c.checkpoint), "copy.json")
	var saveErr error
	m.add("scenario.checkpoint_save_ms", "ms", timeMedian(reps, func() {
		if err := a.Save(copyPath); err != nil {
			saveErr = err
		}
	}))
	if saveErr != nil {
		return saveErr
	}
	var resumeErr error
	m.add("scenario.resume_ms", "ms", timeMedian(reps, func() {
		res, err := scenario.RunSuite(c.suite, scenario.Options{Parallel: workers, CheckpointPath: c.checkpoint})
		switch {
		case err != nil:
			resumeErr = err
		case res.Resumed != len(c.suite.Scenarios):
			resumeErr = fmt.Errorf("resumed %d of %d scenarios", res.Resumed, len(c.suite.Scenarios))
		case resultsDigest(res) != c.lastDigest:
			resumeErr = fmt.Errorf("resumed results differ from the traced pass")
		}
	}))
	if resumeErr != nil {
		return fmt.Errorf("campaign resume: %w", resumeErr)
	}
	return nil
}
