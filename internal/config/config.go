// Package config loads E2Clab-style configuration files. The real
// framework is driven by layers_services.yaml, network.yaml and — with the
// paper's extension — an optimizer configuration ("the whole optimization
// cycle is defined through a configuration file... designed to be easy to
// use and to understand, and it can be easily adapted to different
// optimization problems"). This reproduction uses JSON (stdlib-only
// constraint) with the same structure.
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"e2clab/internal/core"
	"e2clab/internal/netem"
	"e2clab/internal/space"
	"e2clab/internal/testbed"
)

// Scenario mirrors layers_services.yaml + network.yaml: where services run
// and how layers communicate.
type Scenario struct {
	Name string `json:"name"`
	// NetworkModel records how the network rules are evaluated when the
	// scenario is simulated: "analytical" (closed-form transfer times; the
	// default when empty), "simulated" (rules lowered to discrete-event
	// links with gateway queueing), or "packet" (simulated links with
	// packetized TCP-like transport; see internal/scenario).
	NetworkModel string        `json:"network_model,omitempty"`
	Layers       []LayerConfig `json:"layers"`
	Network      []NetworkRule `json:"network,omitempty"`
}

// LayerConfig is one continuum layer (cloud / fog / edge).
type LayerConfig struct {
	Name     string          `json:"name"`
	Services []ServiceConfig `json:"services"`
}

// ServiceConfig places one service on a cluster.
type ServiceConfig struct {
	Name     string            `json:"name"`
	Quantity int               `json:"quantity,omitempty"`
	Cluster  string            `json:"cluster"`
	Env      map[string]string `json:"env,omitempty"`
}

// NetworkRule is one emulated constraint between layers.
type NetworkRule struct {
	Src       string  `json:"src"`
	Dst       string  `json:"dst"`
	DelayMS   float64 `json:"delay_ms,omitempty"`
	RateGbps  float64 `json:"rate_gbps,omitempty"`
	LossPct   float64 `json:"loss_pct,omitempty"`
	Symmetric bool    `json:"symmetric,omitempty"`
}

// LoadScenario reads and validates a scenario file.
func LoadScenario(path string) (*Scenario, error) {
	var s Scenario
	if err := loadJSON(path, &s); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate performs structural checks that do not need a testbed.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("config: scenario needs a name")
	}
	if len(s.Layers) == 0 {
		return fmt.Errorf("config: scenario %q has no layers", s.Name)
	}
	switch s.NetworkModel {
	case "", "analytical", "simulated", "packet":
	default:
		return fmt.Errorf("config: scenario %q has unknown network_model %q", s.Name, s.NetworkModel)
	}
	for _, l := range s.Layers {
		if l.Name == "" {
			return fmt.Errorf("config: scenario %q has an unnamed layer", s.Name)
		}
		if len(l.Services) == 0 {
			return fmt.Errorf("config: layer %q has no services", l.Name)
		}
		for _, svc := range l.Services {
			if svc.Name == "" || svc.Cluster == "" {
				return fmt.Errorf("config: layer %q has a service missing name or cluster", l.Name)
			}
			if svc.Quantity < 0 {
				return fmt.Errorf("config: service %q has negative quantity", svc.Name)
			}
		}
	}
	return nil
}

// Build assembles a core.Experiment on the given testbed.
func (s *Scenario) Build(tb *testbed.Testbed) (*core.Experiment, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e := &core.Experiment{Name: s.Name, Testbed: tb}
	for _, l := range s.Layers {
		layer := testbed.Layer{Name: l.Name}
		for _, svc := range l.Services {
			layer.Services = append(layer.Services, testbed.Service{
				Name: svc.Name, Quantity: svc.Quantity, Cluster: svc.Cluster, Env: svc.Env,
			})
		}
		e.Layers = append(e.Layers, layer)
	}
	if len(s.Network) > 0 {
		rules := make([]netem.Rule, len(s.Network))
		for i, r := range s.Network {
			rules[i] = netem.Rule{Src: r.Src, Dst: r.Dst, DelayMS: r.DelayMS,
				RateGbps: r.RateGbps, LossPct: r.LossPct, Symmetric: r.Symmetric}
		}
		e.Network = netem.New(rules...)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// Optimizer mirrors the paper's optimizer_conf: the optimization problem
// (Phase I), the methods (Phase II), and the execution protocol.
type Optimizer struct {
	Problem       ProblemConfig `json:"problem"`
	Search        SearchConfig  `json:"search"`
	NumSamples    int           `json:"num_samples"`
	MaxConcurrent int           `json:"max_concurrent,omitempty"`
	UseASHA       bool          `json:"use_asha,omitempty"`
	Repeat        int           `json:"repeat,omitempty"`
	// RepeatParallelism bounds the worker pool each evaluation uses for its
	// repeated experiments (0 = GOMAXPROCS, 1 = sequential); tune it down
	// when max_concurrent already saturates the machine.
	RepeatParallelism int     `json:"repeat_parallelism,omitempty"`
	Duration          float64 `json:"duration,omitempty"`
	Seed              int64   `json:"seed,omitempty"`
	ArchiveDir        string  `json:"archive_dir,omitempty"`
}

// ProblemConfig defines optimization variables, objective, and mode.
type ProblemConfig struct {
	Name      string           `json:"name"`
	Objective string           `json:"objective"`
	Mode      string           `json:"mode"` // "min" or "max"
	Variables []VariableConfig `json:"variables"`
}

// VariableConfig is one optimization variable with bounds.
type VariableConfig struct {
	Name       string   `json:"name"`
	Type       string   `json:"type"` // "int", "float", "categorical"
	Low        float64  `json:"low,omitempty"`
	High       float64  `json:"high,omitempty"`
	Log        bool     `json:"log,omitempty"`
	Categories []string `json:"categories,omitempty"`
}

// SearchConfig selects the search algorithm (Listing 1 parameters).
type SearchConfig struct {
	Algorithm             string `json:"algorithm,omitempty"` // skopt | random | ga | de | sa | pso | tabu
	BaseEstimator         string `json:"base_estimator,omitempty"`
	NInitialPoints        int    `json:"n_initial_points,omitempty"`
	InitialPointGenerator string `json:"initial_point_generator,omitempty"`
	AcqFunc               string `json:"acq_func,omitempty"`
}

// LoadOptimizer reads an optimizer configuration file.
func LoadOptimizer(path string) (*Optimizer, error) {
	var o Optimizer
	if err := loadJSON(path, &o); err != nil {
		return nil, err
	}
	return &o, nil
}

// BuildSpec converts the configuration into a core.Spec. A zero protocol
// value means "use the default"; a negative one is rejected rather than
// silently replaced by it.
func (o *Optimizer) BuildSpec() (core.Spec, error) {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"num_samples", float64(o.NumSamples)},
		{"max_concurrent", float64(o.MaxConcurrent)},
		{"repeat", float64(o.Repeat)},
		{"repeat_parallelism", float64(o.RepeatParallelism)},
		{"duration", o.Duration},
	} {
		if f.v < 0 {
			return core.Spec{}, fmt.Errorf("config: %s must not be negative, got %v", f.name, f.v)
		}
	}
	problem, err := o.Problem.Build()
	if err != nil {
		return core.Spec{}, err
	}
	return core.Spec{
		Problem: problem,
		Search: core.SearchSpec{
			Algorithm:             o.Search.Algorithm,
			BaseEstimator:         o.Search.BaseEstimator,
			NInitialPoints:        o.Search.NInitialPoints,
			InitialPointGenerator: o.Search.InitialPointGenerator,
			AcqFunc:               o.Search.AcqFunc,
		},
		NumSamples:        o.NumSamples,
		MaxConcurrent:     o.MaxConcurrent,
		UseASHA:           o.UseASHA,
		Repeat:            o.Repeat,
		RepeatParallelism: o.RepeatParallelism,
		Duration:          o.Duration,
		Seed:              o.Seed,
		ArchiveDir:        o.ArchiveDir,
	}, nil
}

// Build converts the problem configuration into a space.Problem.
func (p *ProblemConfig) Build() (*space.Problem, error) {
	if len(p.Variables) == 0 {
		return nil, fmt.Errorf("config: problem %q has no variables", p.Name)
	}
	dims := make([]space.Dimension, len(p.Variables))
	for i, v := range p.Variables {
		switch v.Type {
		case "int":
			dims[i] = space.Int(v.Name, int(v.Low), int(v.High))
		case "float":
			if v.Log {
				dims[i] = space.LogFloat(v.Name, v.Low, v.High)
			} else {
				dims[i] = space.Float(v.Name, v.Low, v.High)
			}
		case "categorical":
			dims[i] = space.Categorical(v.Name, v.Categories...)
		default:
			return nil, fmt.Errorf("config: variable %q has unknown type %q", v.Name, v.Type)
		}
	}
	s, err := space.TryNew(dims...)
	if err != nil {
		return nil, err
	}
	mode := space.Min
	switch p.Mode {
	case "", "min":
	case "max":
		mode = space.Max
	default:
		return nil, fmt.Errorf("config: problem %q has unknown mode %q", p.Name, p.Mode)
	}
	obj := p.Objective
	if obj == "" {
		return nil, fmt.Errorf("config: problem %q has no objective", p.Name)
	}
	return space.NewProblem(p.Name, s, space.Objective{Name: obj, Mode: mode}), nil
}

func loadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("config: %s: %w", path, err)
	}
	return nil
}
