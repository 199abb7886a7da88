package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"e2clab/internal/space"
	"e2clab/internal/testbed"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const paperScenario = `{
  "name": "plantnet",
  "layers": [
    {"name": "cloud", "services": [
      {"name": "plantnet_engine", "quantity": 2, "cluster": "chifflot",
       "env": {"http": "40", "download": "40", "extract": "7", "simsearch": "40"}}
    ]},
    {"name": "edge", "services": [
      {"name": "client_chiclet", "quantity": 8, "cluster": "chiclet"},
      {"name": "client_chetemi", "quantity": 15, "cluster": "chetemi"},
      {"name": "client_chifflet", "quantity": 8, "cluster": "chifflet"},
      {"name": "client_gros", "quantity": 9, "cluster": "gros"}
    ]}
  ],
  "network": [
    {"src": "edge", "dst": "cloud", "delay_ms": 2, "rate_gbps": 10, "symmetric": true}
  ]
}`

func TestLoadScenarioAndBuild(t *testing.T) {
	path := writeFile(t, "scenario.json", paperScenario)
	s, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "plantnet" || len(s.Layers) != 2 {
		t.Fatalf("scenario = %+v", s)
	}
	e, err := s.Build(testbed.Grid5000())
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	defer d.ReleaseAll()
	if d.NodeCount() != 42 {
		t.Errorf("deployed %d nodes, want 42", d.NodeCount())
	}
	if e.Network == nil || e.Network.Between("edge", "cloud").DelayMS != 2 ||
		e.Network.Between("cloud", "edge").DelayMS != 2 {
		t.Error("network rules not built")
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []string{
		`{"layers": [{"name": "a", "services": [{"name": "s", "cluster": "c"}]}]}`, // no name
		`{"name": "x", "layers": []}`,
		`{"name": "x", "layers": [{"name": "", "services": [{"name": "s", "cluster": "c"}]}]}`,
		`{"name": "x", "layers": [{"name": "a", "services": []}]}`,
		`{"name": "x", "layers": [{"name": "a", "services": [{"name": "", "cluster": "c"}]}]}`,
		`{"name": "x", "layers": [{"name": "a", "services": [{"name": "s", "cluster": "c", "quantity": -1}]}]}`,
	}
	for i, content := range bad {
		path := writeFile(t, "bad.json", content)
		if _, err := LoadScenario(path); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLoadScenarioUnknownFieldRejected(t *testing.T) {
	path := writeFile(t, "s.json", `{"name": "x", "layres": []}`)
	if _, err := LoadScenario(path); err == nil {
		t.Error("typo'd field accepted (DisallowUnknownFields should catch it)")
	}
}

func TestLoadScenarioMissingFile(t *testing.T) {
	if _, err := LoadScenario("/nonexistent/s.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBuildRejectsUnknownCluster(t *testing.T) {
	path := writeFile(t, "s.json",
		`{"name": "x", "layers": [{"name": "a", "services": [{"name": "s", "cluster": "mars"}]}]}`)
	s, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(testbed.Grid5000()); err == nil {
		t.Error("unknown cluster accepted at build")
	}
}

const paperOptimizer = `{
  "problem": {
    "name": "plantnet_engine",
    "objective": "user_resp_time",
    "mode": "min",
    "variables": [
      {"name": "http", "type": "int", "low": 20, "high": 60},
      {"name": "download", "type": "int", "low": 20, "high": 60},
      {"name": "simsearch", "type": "int", "low": 20, "high": 60},
      {"name": "extract", "type": "int", "low": 3, "high": 9}
    ]
  },
  "search": {
    "algorithm": "skopt",
    "base_estimator": "ET",
    "n_initial_points": 45,
    "initial_point_generator": "lhs",
    "acq_func": "gp_hedge"
  },
  "num_samples": 10,
  "max_concurrent": 2,
  "use_asha": true,
  "repeat": 6,
  "duration": 1380,
  "seed": 42
}`

func TestLoadOptimizerListing1(t *testing.T) {
	path := writeFile(t, "opt.json", paperOptimizer)
	o, err := LoadOptimizer(path)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := o.BuildSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Problem.Name != "plantnet_engine" || spec.Problem.Space.Len() != 4 {
		t.Fatalf("problem = %+v", spec.Problem)
	}
	// The built problem must match the canonical Equation 2 problem.
	ref := space.PlantNetProblem()
	for i := 0; i < 4; i++ {
		got, want := spec.Problem.Space.Dim(i), ref.Space.Dim(i)
		if got.Name != want.Name || got.Low != want.Low || got.High != want.High || got.Kind != want.Kind {
			t.Errorf("dim %d: %+v != %+v", i, got, want)
		}
	}
	if spec.Search.BaseEstimator != "ET" || spec.Search.AcqFunc != "gp_hedge" ||
		spec.Search.NInitialPoints != 45 || spec.Search.InitialPointGenerator != "lhs" {
		t.Errorf("search = %+v", spec.Search)
	}
	if spec.NumSamples != 10 || spec.MaxConcurrent != 2 || !spec.UseASHA ||
		spec.Repeat != 6 || spec.Duration != 1380 || spec.Seed != 42 {
		t.Errorf("protocol = %+v", spec)
	}
}

func TestBuildSpecRejectsNegativeProtocol(t *testing.T) {
	cases := []struct {
		name string
		set  func(o *Optimizer)
	}{
		{"num_samples", func(o *Optimizer) { o.NumSamples = -4 }},
		{"max_concurrent", func(o *Optimizer) { o.MaxConcurrent = -2 }},
		{"repeat", func(o *Optimizer) { o.Repeat = -3 }},
		{"repeat_parallelism", func(o *Optimizer) { o.RepeatParallelism = -1 }},
		{"duration", func(o *Optimizer) { o.Duration = -5 }},
	}
	base, err := LoadOptimizer(writeFile(t, "opt.json", paperOptimizer))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		o := *base
		c.set(&o)
		if _, err := o.BuildSpec(); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("negative %s: err = %v, want a rejection naming it", c.name, err)
		}
	}
	// Zero still means "use the default".
	o := *base
	o.NumSamples, o.MaxConcurrent, o.Repeat, o.RepeatParallelism, o.Duration = 0, 0, 0, 0, 0
	if _, err := o.BuildSpec(); err != nil {
		t.Errorf("zero protocol values rejected: %v", err)
	}
}

func TestProblemConfigVariableTypes(t *testing.T) {
	p := ProblemConfig{
		Name: "t", Objective: "y", Mode: "max",
		Variables: []VariableConfig{
			{Name: "i", Type: "int", Low: 0, High: 5},
			{Name: "f", Type: "float", Low: 0.5, High: 2},
			{Name: "lf", Type: "float", Low: 0.001, High: 1, Log: true},
			{Name: "c", Type: "categorical", Categories: []string{"a", "b"}},
		},
	}
	prob, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if prob.Objectives[0].Mode != space.Max {
		t.Error("mode max not honored")
	}
	if prob.Space.Dim(2).Log != true {
		t.Error("log flag lost")
	}
	if prob.Space.Dim(3).Kind != space.CategoricalKind {
		t.Error("categorical kind lost")
	}
}

func TestProblemConfigErrors(t *testing.T) {
	cases := []ProblemConfig{
		{Name: "x", Objective: "y"}, // no variables
		{Name: "x", Objective: "y", Variables: []VariableConfig{{Name: "v", Type: "complex"}}},
		{Name: "x", Objective: "y", Mode: "maximize", Variables: []VariableConfig{{Name: "v", Type: "int", High: 3}}},
		{Name: "x", Variables: []VariableConfig{{Name: "v", Type: "int", High: 3}}}, // no objective
		{Name: "x", Objective: "y", Variables: []VariableConfig{{Name: "v", Type: "int", Low: 3, High: 3}}},
	}
	for i, p := range cases {
		if _, err := p.Build(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
