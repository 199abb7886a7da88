// Command bench is the repository's end-to-end benchmark. It runs one
// workload for a host-time budget, checks the simulated outputs, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 600, "failed": 0, "metrics": {"wall_s": {"value": 2.9, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured on untraced
// passes, with host times given at a reference host speed measured around
// each pass (hostspeed.go). With -trace 1 the run makes one traced pass of
// every workload instead, measures the layers around it, prints the
// per-layer metrics, and writes the spans as Chrome trace-event JSON. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"e2clab/internal/stats"
)

// workloadNames lists the workloads in the order a traced run visits them.
var workloadNames = []string{"optimize", "campaign", "edge-scale"}

// sizes fixes how much work a run does.
type sizes struct {
	optimize optimizeSize
	campaign suiteSize
	edge     suiteSize
	// setups is how many times a run sets its workload up (setup_s is the
	// median); minPasses, at least 1, the fewest measured passes whatever
	// the budget.
	setups, minPasses int
	// layerReps repeats each per-layer measurement; ladder scales the
	// kernel ladder's iteration counts.
	layerReps, ladder int
}

var fullSizes = sizes{
	optimize:  optimizeSize{studies: 2, samples: 150, initial: 20, repeat: 2, duration: 120},
	setups:    9,
	minPasses: 2,
	layerReps: 5,
	ladder:    100000,
}

// passOut is what one pass of a workload produces.
type passOut struct {
	digest uint64
	opsMS  []float64 // host time of each op, in op order
	failed int       // ops that returned an error
}

// workload is one benchmark input set. Its constructor is the set-up,
// including one untimed warm-up op; passes are then measured.
type workload interface {
	// pass runs the workload once; tr is nil on untraced passes.
	pass(tr *tracer) (passOut, error)
	// verify checks the last pass's outputs beyond the digest and returns
	// a one-line summary of them.
	verify() (string, error)
	// layers adds the per-layer metrics measured around the traced pass
	// recorded in tr; reps repeats each measurement.
	layers(tr *tracer, m *metrics, reps int) error
}

type config struct {
	seed    int64
	sz      sizes
	dataDir string
	workDir string
}

func build(name string, cfg config) (workload, error) {
	switch name {
	case "optimize":
		return newOptimize(cfg.seed, cfg.sz.optimize)
	case "campaign":
		return newCampaign(cfg.seed, cfg.sz.campaign, cfg.dataDir, cfg.workDir)
	case "edge-scale":
		return newEdge(cfg.seed, cfg.sz.edge, cfg.dataDir)
	}
	return nil, fmt.Errorf("unknown workload %q (want optimize, campaign or edge-scale)", name)
}

// metric is one printed measurement.
type metric struct {
	name, unit string
	value      float64
}

type metrics []metric

func (m *metrics) add(name, unit string, v float64) { *m = append(*m, metric{name, unit, v}) }

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checker decides whether a pass's outputs are right. At the reference
// seed on amd64 every digest must equal the committed one; elsewhere (other
// architectures may fuse multiply-adds) every pass of the run's workload
// must agree with its first.
type checker struct {
	ref      map[string]string // nil where the reference does not apply
	workload string
	first    uint64
}

func (c checker) ok(workload string, digest uint64) bool {
	if c.ref != nil {
		return c.ref[workload] == hexDigest(digest)
	}
	return workload != c.workload || digest == c.first
}

// tally counts a pass's ops. All of them fail when its outputs are wrong.
func (r *result) tally(workload string, out passOut, c checker, stderr io.Writer) {
	r.Attempted += len(out.opsMS)
	if !c.ok(workload, out.digest) {
		r.Correct = false
		r.Failed += len(out.opsMS)
		fmt.Fprintf(stderr, "bench: %s output digest %s is wrong\n", workload, hexDigest(out.digest))
		return
	}
	if out.failed > 0 {
		r.Correct = false
		r.Failed += out.failed
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, fullSizes); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer, sz sizes) error {
	start := now()
	runtime.GOMAXPROCS(workers)
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: optimize, campaign or edge-scale")
	seed := fs.Int64("seed", referenceSeed, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "host-time budget for the measured passes")
	trace := fs.Int("trace", 0, "1 runs the traced layer ledger and prints the per-layer metrics")
	traceOut := fs.String("trace-out", ".bench_build/trace.json", "Chrome trace written with -trace 1")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	dataDir := fs.String("data", "bench/testdata", "directory holding campaign.json and reference.json")
	workDir := fs.String("work", ".bench_build", "directory for checkpoint files")
	writeRef := fs.Bool("write-reference", false, "record this run's digest in reference.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	cfg := config{seed: *seed, sz: sz, dataDir: *dataDir, workDir: *workDir}

	// Set-up, several times; the last instance is measured. The first
	// set-up is timed from process start.
	var w workload
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		w = nil
		runtime.GC()
		t0 := now()
		if i == 0 {
			t0 = start
		}
		var err error
		if w, err = build(*name, cfg); err != nil {
			return err
		}
		setups = append(setups, now().Sub(t0).Seconds())
	}
	setupSlowdown, err := hostSlowdown()
	if err != nil {
		return err
	}

	// A traced run needs an untraced pass only as the baseline of the
	// tracing overhead and of the traced pass's digest.
	budget, minPasses := time.Duration(*seconds*float64(time.Second)), sz.minPasses
	if *trace == 1 {
		budget, minPasses = 0, 1
	}
	passes, err := measure(w, budget, minPasses, setupSlowdown, stderr)
	if err != nil {
		return err
	}

	refPath := filepath.Join(*dataDir, "reference.json")
	c := checker{workload: *name, first: passes[0].out.digest}
	if *seed == referenceSeed && runtime.GOARCH == "amd64" && !*writeRef {
		if c.ref, err = loadReference(refPath); err != nil {
			return err
		}
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, p := range passes {
		res.tally(*name, p.out, c, stderr)
	}
	fmt.Fprintf(stderr, "%s: seed %d, %d passes, output digest %s\n", *name, *seed, len(passes), hexDigest(c.first))
	if note, err := w.verify(); err != nil {
		res.Correct = false
		fmt.Fprintln(stderr, "bench:", err)
	} else {
		fmt.Fprintf(stderr, "%s: %s\n", *name, note)
	}
	if *writeRef {
		if err := writeReference(refPath, *name, c.first); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s: recorded digest %s in %s\n", *name, hexDigest(c.first), refPath)
	}

	var m metrics
	if *trace == 0 {
		// Host times at the reference host speed (hostspeed.go). The peak
		// resident set of one pass depends on where the collector happens
		// to run in it (the same pass of edge-scale reads 38 or 47 MiB), so
		// the smallest over the passes is reported: what the work needs.
		var walls, cpus, ops []float64
		rss := math.Inf(1)
		for _, p := range passes {
			walls = append(walls, p.wall.Seconds()/p.slowdown)
			cpus = append(cpus, p.cpu.Seconds()/p.slowdown)
			for _, op := range p.out.opsMS {
				ops = append(ops, op/p.slowdown)
			}
			rss = min(rss, p.rssMB)
		}
		m.add("setup_s", "s", median(setups)/setupSlowdown)
		m.add("wall_s", "s", median(walls))
		m.add("cpu_s", "s", median(cpus))
		m.add("op_p50_ms", "ms", stats.Quantile(ops, 0.50))
		m.add("op_p75_ms", "ms", stats.Quantile(ops, 0.75))
		m.add("peak_rss_mb", "MiB", rss)
	} else {
		tracers, err := ledger(cfg, *name, w, passes[0].wall.Seconds(), &m, &res, c, stderr)
		if err != nil {
			return err
		}
		if err := writeChrome(*traceOut, tracers); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace written to %s\n", *traceOut)
	}

	for _, x := range m {
		fmt.Fprintf(stderr, "  %-40s %14.6g %s\n", x.name, x.value, x.unit)
		res.Metrics[x.name] = metricValue{x.value, x.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}

// passStat is one measured pass.
type passStat struct {
	out       passOut
	wall, cpu time.Duration
	// slowdown is the host's over the pass: the geometric mean of the
	// reference loops' readings just before and just after it.
	slowdown float64
	rssMB    float64 // peak resident set during the pass
}

// measure runs untraced passes until the next one would overrun budget,
// and at least minPasses of them. before is the host slowdown read just
// before the first pass. Each pass starts right after a reading, so after a
// full collection.
func measure(w workload, budget time.Duration, minPasses int, before float64, stderr io.Writer) ([]passStat, error) {
	var ps []passStat
	t0 := now()
	for len(ps) < minPasses || now().Sub(t0)+ps[len(ps)-1].wall <= budget {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		c0, p0 := cpuTime(), now()
		out, err := w.pass(nil)
		if err != nil {
			return nil, err
		}
		p := passStat{out: out, wall: now().Sub(p0), cpu: cpuTime() - c0}
		if p.rssMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
		after, err := hostSlowdown()
		if err != nil {
			return nil, err
		}
		p.slowdown, before = math.Sqrt(before*after), after
		fmt.Fprintf(stderr, "pass %d: %.3f s wall, %.3f s cpu, %d ops, host slowdown %.3f, peak RSS %.1f MiB\n",
			len(ps), p.wall.Seconds(), p.cpu.Seconds(), len(out.opsMS), p.slowdown, p.rssMB)
		ps = append(ps, p)
	}
	return ps, nil
}

// ledger makes one traced pass of every workload and measures the layers
// around it, then runs the kernel ladder. The run's own workload reuses its
// instance, and its traced pass against the untraced one gives the tracing
// overhead.
func ledger(cfg config, name string, w workload, untracedWall float64, m *metrics,
	res *result, c checker, stderr io.Writer) ([]*tracer, error) {
	var tracers []*tracer
	for _, wl := range workloadNames {
		inst := w
		if wl != name {
			var err error
			if inst, err = build(wl, cfg); err != nil {
				return nil, err
			}
		}
		tr := newTracer()
		runtime.GC()
		t0 := now()
		out, err := inst.pass(tr)
		if err != nil {
			return nil, err
		}
		traced := now().Sub(t0).Seconds()
		if wl == name {
			m.add("bench.trace_overhead", "ratio", traced/untracedWall)
		}
		tracedLayers(wl, inst, out, tr, m, cfg.sz.layerReps, res, c, stderr)
		tracers = append(tracers, tr)
	}
	ladder(m, cfg.seed, cfg.sz.ladder, cfg.sz.layerReps)
	return tracers, nil
}

// tracedLayers checks a traced pass and, only if its outputs hold, measures
// the layers around it: the layer measurements read the pass's results. A
// failed check or layer makes the run incorrect.
func tracedLayers(wl string, inst workload, out passOut, tr *tracer, m *metrics, reps int,
	res *result, c checker, stderr io.Writer) {
	res.tally(wl, out, c, stderr)
	if _, err := inst.verify(); err != nil {
		res.Correct = false
		fmt.Fprintln(stderr, "bench:", err)
		return
	}
	if err := inst.layers(tr, m, reps); err != nil {
		res.Correct = false
		fmt.Fprintf(stderr, "bench: %s layers: %v\n", wl, err)
	}
}
