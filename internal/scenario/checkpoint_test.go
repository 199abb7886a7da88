package scenario

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"e2clab/internal/rngutil"
	"e2clab/internal/stats"
	"e2clab/internal/tune"
)

// resultLeaves returns every leaf field of *r, nested structs flattened, with
// its dotted path. It walks Result on its own, so the tests below check the
// checkpoint layout rather than share its blind spots.
func resultLeaves(r *Result) (paths []string, fields []reflect.Value) {
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Struct {
				walk(f, prefix+v.Type().Field(i).Name+".")
			} else {
				paths = append(paths, prefix+v.Type().Field(i).Name)
				fields = append(fields, f)
			}
		}
	}
	walk(reflect.ValueOf(r).Elem(), "")
	return paths, fields
}

// distinctResult returns a Result whose every leaf field holds a distinct
// non-zero value, floats with a full mantissa.
func distinctResult(t *testing.T) *Result {
	t.Helper()
	r := &Result{}
	paths, fields := resultLeaves(r)
	for i, f := range fields {
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i+1) + 1/3.0)
		case reflect.String:
			f.SetString(fmt.Sprint("s", i+1))
		default:
			t.Fatalf("Result field %s has kind %s", paths[i], f.Kind())
		}
	}
	return r
}

// TestCheckpointRoundTrip: every numeric Result field survives encodeResult
// -> decodeResult bit for bit; the strings are restored from the spec.
func TestCheckpointRoundTrip(t *testing.T) {
	want := distinctResult(t)
	got, ok := decodeResult(encodeResult(want))
	if !ok {
		t.Fatal("decodeResult rejected its own encoding")
	}
	got.Name, got.NetModel = want.Name, want.NetModel
	if dump(got) != dump(want) {
		t.Errorf("round trip lost a field\nwant %s\ngot  %s", dump(want), dump(got))
	}
}

// TestEveryResultFieldIsRendered: changing any one Result field other than
// Index changes the comparison or the detail table.
func TestEveryResultFieldIsRendered(t *testing.T) {
	render := func(r *Result) string {
		sr := &SuiteResult{Suite: "s", Results: []*Result{r}, Errs: []error{nil}}
		return ComparisonTable(sr).String() + DetailTable(r).String()
	}
	base := render(distinctResult(t))
	paths, _ := resultLeaves(&Result{})
	for i, path := range paths {
		if path == "Index" {
			continue
		}
		r := distinctResult(t)
		_, fields := resultLeaves(r)
		switch f := fields[i]; f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 1)
		case reflect.String:
			f.SetString(f.String() + "x")
		}
		if render(r) == base {
			t.Errorf("Result field %s is rendered by neither ComparisonTable nor DetailTable", path)
		}
	}
}

// TestStaleCheckpointShapeReruns: a trial whose reports do not have the
// layout's shape, as if written before a field was added, re-runs; every
// other trial resumes.
func TestStaleCheckpointShapeReruns(t *testing.T) {
	checkOnlyStaleReruns(t, func(_ Suite, tr *tune.Trial) {
		tr.Reports = tr.Reports[:len(tr.Reports)-1]
	})
}

// preOutcomesResult is Result as it was before it embedded
// plantnet.Outcomes: the same leaves in the same order, with the counters
// as ints under their own names.
type preOutcomesResult struct {
	Index                     int
	Name                      string
	Gateways, Clients, Phases int
	NetModel                  string
	EngineResp                stats.Summary
	NetOverheadSec, RespMean  float64
	RespP95, Throughput       float64
	Completed                 int

	FaultGatewayFailures, FaultCrashRequeues, FaultCrashFailures, FaultDropped int

	Failed, Retries, RetrySuccesses, Hedges, HedgeWins int
	Rerouted, Shed, BreakerOpens, DeadlineExceeded     int

	Goodput, Availability float64
}

// TestOldFieldPathCheckpointReruns: a trial fingerprinted under the field
// paths of an older Result re-runs, even though its reports have the
// current layout's shape; every other trial resumes.
func TestOldFieldPathCheckpointReruns(t *testing.T) {
	old := walkResult(reflect.TypeOf(preOutcomesResult{}), nil, "")
	if len(old) != len(resultLayout) {
		t.Fatalf("old layout has %d leaves, current %d: the shape check alone would catch it", len(old), len(resultLayout))
	}
	checkOnlyStaleReruns(t, func(s Suite, tr *tune.Trial) {
		scenarios, err := s.resolved()
		if err != nil {
			t.Fatal(err)
		}
		seeder := rngutil.NewSeeder(s.Seed + 17)
		var seed int64
		for range tr.ID + 1 {
			seed = seeder.Next()
		}
		cur := resultLayout
		resultLayout = old
		hi, lo, err := fingerprint(scenarios[tr.ID], seed)
		resultLayout = cur
		if err != nil {
			t.Fatal(err)
		}
		if hi == tr.Config[1] && lo == tr.Config[2] {
			t.Fatal("the old field paths give the current fingerprint")
		}
		tr.Config[1], tr.Config[2] = hi, lo
	})
}

// checkOnlyStaleReruns runs testSuite with a checkpoint, applies stale to
// one checkpointed trial, and checks that a resumed run re-runs exactly that
// scenario and reproduces every Result.
func checkOnlyStaleReruns(t *testing.T, stale func(Suite, *tune.Trial)) {
	t.Helper()
	s := testSuite()
	ckpt := filepath.Join(t.TempDir(), "suite.json")
	ref := mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt})

	const idx = 2
	a, err := tune.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	stale(s, a.Trials[idx])
	if err := a.Save(ckpt); err != nil {
		t.Fatal(err)
	}

	var started []int
	sr := mustRun(t, s, Options{Parallel: 1, CheckpointPath: ckpt,
		Logger: func(ev string, i int, _ string) {
			if ev == "started" {
				started = append(started, i)
			}
		}})
	if len(started) != 1 || started[0] != idx {
		t.Errorf("re-ran scenarios %v, want only [%d]", started, idx)
	}
	if sr.Resumed != len(s.Scenarios)-1 {
		t.Errorf("resumed %d scenarios, want %d", sr.Resumed, len(s.Scenarios)-1)
	}
	for i := range ref.Results {
		if dump(ref.Results[i]) != dump(sr.Results[i]) {
			t.Errorf("scenario %d: result after the partial re-run differs", i)
		}
	}
}
