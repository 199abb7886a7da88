package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"e2clab/internal/core"
)

// tinySizes runs every workload and the whole ledger in a few seconds.
var tinySizes = sizes{
	optimize:  optimizeSize{studies: 2, samples: 6, initial: 4, repeat: 2, duration: 70},
	campaign:  suiteSize{durationSeconds: 40, repeats: 1},
	edge:      suiteSize{durationSeconds: 5, repeats: 1, scenarios: 2},
	setups:    1,
	minPasses: 2,
	layerReps: 1,
	ladder:    2000,
}

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(list []struct{ Name string }) []string {
	var out []string
	for _, x := range list {
		out = append(out, x.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks the output line against BENCHMARK.json and the trace file.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if got := names(spec.Workloads); strings.Join(got, ",") != "campaign,edge-scale,optimize" {
		t.Fatalf("BENCHMARK.json workloads %v", got)
	}

	work := t.TempDir()
	traceOut := filepath.Join(work, "trace.json")
	for _, wl := range workloadNames {
		for trace, want := range [][]string{names(spec.EndToEnd), names(spec.PerLayer)} {
			var stdout, stderr bytes.Buffer
			err := run([]string{"--workload", wl, "--seed", "7", "--seconds", "0", "--trace", strconv.Itoa(trace),
				"--data", "testdata", "--work", work, "--trace-out", traceOut}, &stdout, &stderr, tinySizes)
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", wl, trace, err, stderr.String())
			}
			if runtime.GOMAXPROCS(0) != workers {
				t.Errorf("GOMAXPROCS %d, want %d", runtime.GOMAXPROCS(0), workers)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v", wl, trace, err)
			}
			// Two passes at one seed must agree; correct covers it.
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct %v, %d of %d failed\n%s",
					wl, trace, res.Correct, res.Failed, res.Attempted, stderr.String())
			}
			var got []string
			for name, v := range res.Metrics {
				got = append(got, name)
				if !metricName.MatchString(name) || v.Unit == "" {
					t.Errorf("bad metric name %q or unit %q", name, v.Unit)
				}
			}
			sort.Strings(got)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace %d metrics\n got %v\nwant %v", wl, trace, got, want)
			}
			if trace == 1 {
				checkTrace(t, traceOut)
			}
		}
	}
}

// checkTrace parses a Chrome trace and checks that every parent exists in
// its process and that no span's self time exceeds its duration.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ TraceEvents []chromeEvent }
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	ids := map[[2]int]bool{}
	for _, e := range f.TraceEvents {
		ids[[2]int{e.Pid, int(e.Args["id"].(float64))}] = true
	}
	for _, e := range f.TraceEvents {
		if p := int(e.Args["parent"].(float64)); p != 0 && !ids[[2]int{e.Pid, p}] {
			t.Errorf("span %s: parent %d missing", e.Name, p)
		}
		if self := e.Args["self_us"].(float64); self < 0 || self > e.Dur+1e-6 {
			t.Errorf("span %s: self %v µs outside [0, %v]", e.Name, self, e.Dur)
		}
	}
}

// TestFailedObjectiveIsIncorrectNotFatal: when every evaluation of a traced
// optimize pass fails, the run is reported incorrect and the layer
// measurements, which need a best trial, are skipped.
func TestFailedObjectiveIsIncorrectNotFatal(t *testing.T) {
	o, err := newOptimize(7, tinySizes.optimize)
	if err != nil {
		t.Fatal(err)
	}
	for i := range o.studies {
		o.studies[i].obj = func(*core.Evaluation) (float64, error) { return 0, errors.New("engine down") }
	}
	tr := newTracer()
	out, err := o.pass(tr)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != len(out.opsMS) || out.failed == 0 {
		t.Fatalf("%d of %d ops failed, want all", out.failed, len(out.opsMS))
	}
	res := result{Correct: true}
	var m metrics
	var stderr bytes.Buffer
	tracedLayers("optimize", o, out, tr, &m, 1, &res, checker{workload: "optimize", first: out.digest}, &stderr)
	if res.Correct || res.Failed != out.failed {
		t.Errorf("correct %v, %d failed; want incorrect with %d failed", res.Correct, res.Failed, out.failed)
	}
	if len(m) != 0 {
		t.Errorf("layers measured after a failed check: %v", m)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "root", id: 1, start: 0, end: 100},
		{name: "a", id: 2, parent: 1, start: 10, end: 50},
		{name: "b", id: 3, parent: 1, start: 30, end: 70},
		{name: "c", id: 4, parent: 1, start: 90, end: 120},
	}}
	if got := tr.self(1); got != 30 {
		t.Errorf("self = %v, want 30 (100 minus the union [10,70] and [90,100])", got)
	}
}

func TestDigestSeesBitPatterns(t *testing.T) {
	sum := func(v any) uint64 {
		d := newDigest()
		d.add(v)
		return d.sum()
	}
	negZero := 0.0
	negZero = -negZero
	if sum(0.0) == sum(negZero) {
		t.Error("0 and -0 hash alike")
	}
	type r struct {
		M map[string]float64
		P *float64
	}
	x := 1.5
	a := sum(r{M: map[string]float64{"a": 1, "b": 2}, P: &x})
	for i := 0; i < 10; i++ {
		if sum(r{M: map[string]float64{"b": 2, "a": 1}, P: &x}) != a {
			t.Fatal("map order changes the digest")
		}
	}
	if sum(r{M: map[string]float64{"a": 1, "b": 2}}) == a {
		t.Error("nil pointer hashes like a set one")
	}
}
