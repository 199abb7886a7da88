package space

import (
	"fmt"
	"math"
)

// Mode states whether an objective is minimized or maximized.
type Mode int

const (
	// Min minimizes the objective (e.g. user response time).
	Min Mode = iota
	// Max maximizes the objective (e.g. Fog gateway throughput).
	Max
)

func (m Mode) String() string {
	if m == Max {
		return "max"
	}
	return "min"
}

// Objective is one optimized metric f_m(x) of Equation 1.
type Objective struct {
	Name string
	Mode Mode
}

// Constraint is an inequality constraint g_j(x) <= 0 of Equation 1. Fn
// returns the constraint value for a point in value space.
type Constraint struct {
	Name string
	Fn   func(x []float64) float64
}

// Equality is an equality constraint h_k(x) = 0 of Equation 1, satisfied
// when |Fn(x)| <= Tol.
type Equality struct {
	Name string
	Fn   func(x []float64) float64
	Tol  float64
}

// Problem is a full optimization problem definition (Phase I of the
// methodology): variables with bounds, objective(s), and constraints.
type Problem struct {
	Name        string
	Space       *Space
	Objectives  []Objective
	Constraints []Constraint
	Equalities  []Equality
}

// NewProblem builds a single-objective problem.
func NewProblem(name string, s *Space, obj Objective) *Problem {
	return &Problem{Name: name, Space: s, Objectives: []Objective{obj}}
}

// Violation returns the total constraint violation of x: the sum of positive
// inequality values and absolute equality residuals beyond tolerance. Zero
// means feasible. Metaheuristics use it for penalty-based handling.
func (p *Problem) Violation(x []float64) float64 {
	var v float64
	for i, d := range p.Space.dims {
		if d.Kind == CategoricalKind {
			continue
		}
		if x[i] < d.Low {
			v += d.Low - x[i]
		}
		if x[i] > d.High {
			v += x[i] - d.High
		}
	}
	for _, c := range p.Constraints {
		if g := c.Fn(x); g > 0 {
			v += g
		}
	}
	for _, e := range p.Equalities {
		tol := e.Tol
		if tol == 0 {
			tol = 1e-9
		}
		if r := math.Abs(e.Fn(x)); r > tol {
			v += r - tol
		}
	}
	return v
}

// MultiObjective reports whether the problem optimizes more than one metric
// (the right-hand example of Figure 4).
func (p *Problem) MultiObjective() bool { return len(p.Objectives) > 1 }

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	if p.Space == nil || p.Space.Len() == 0 {
		return fmt.Errorf("space: problem %q has no search space", p.Name)
	}
	if len(p.Objectives) == 0 {
		return fmt.Errorf("space: problem %q has no objective", p.Name)
	}
	for _, o := range p.Objectives {
		if o.Name == "" {
			return fmt.Errorf("space: problem %q has unnamed objective", p.Name)
		}
	}
	return nil
}

// PlantNetProblem is the concrete optimization problem of Equation 2 in the
// paper: find (http, download, simsearch, extract) minimizing user response
// time, with pool sizes bounded to ±50% of the production baseline.
func PlantNetProblem() *Problem {
	s := New(
		Int("http", 20, 60),
		Int("download", 20, 60),
		Int("simsearch", 20, 60),
		Int("extract", 3, 9),
	)
	return NewProblem("plantnet_engine", s, Objective{Name: "user_resp_time", Mode: Min})
}
