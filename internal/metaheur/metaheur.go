// Package metaheur implements the evolutionary and swarm-intelligence
// optimizers the paper's Phase II prescribes for short-time running
// applications: Genetic Algorithm, Differential Evolution, Simulated
// Annealing, Particle Swarm Optimization, and Tabu search. core.Manager
// reaches them through the optimization config's algorithm name.
//
// All algorithms minimize a single black-box objective over a space.Space
// within a fixed evaluation budget, operate internally in the unit
// hypercube, and are deterministic given their seed.
package metaheur

import (
	"math"
	"math/rand"

	"e2clab/internal/rngutil"
	"e2clab/internal/space"
)

// Result reports the outcome of one optimization run.
type Result struct {
	// X is the best point found, in value space.
	X []float64
	// Y is the objective value at X.
	Y float64
	// Evals is the number of objective evaluations spent.
	Evals int
	// History is the running best value after each evaluation (convergence
	// curve for the reproducibility summary).
	History []float64
}

// Algorithm is a budgeted black-box minimizer.
type Algorithm interface {
	// Minimize runs up to budget objective evaluations of fn (value-space
	// input) over s.
	Minimize(s *space.Space, fn func([]float64) float64, budget int) Result
	// Name identifies the algorithm in summaries.
	Name() string
}

// tracker accumulates evaluations and the convergence history.
type tracker struct {
	s       *space.Space
	fn      func([]float64) float64
	budget  int
	evals   int
	bestX   []float64
	bestY   float64
	history []float64
}

func newTracker(s *space.Space, fn func([]float64) float64, budget int) *tracker {
	return &tracker{s: s, fn: fn, budget: budget, bestY: math.Inf(1)}
}

// eval evaluates a unit-space point; returns +Inf without evaluating when
// the budget is exhausted.
func (t *tracker) eval(u []float64) float64 {
	if t.evals >= t.budget {
		return math.Inf(1)
	}
	x := t.s.FromUnit(u)
	y := t.fn(x)
	t.evals++
	if y < t.bestY {
		t.bestY = y
		t.bestX = x
	}
	t.history = append(t.history, t.bestY)
	return y
}

func (t *tracker) done() bool { return t.evals >= t.budget }

func (t *tracker) result() Result {
	return Result{X: t.bestX, Y: t.bestY, Evals: t.evals, History: t.history}
}

func randomUnit(r *rand.Rand, d int) []float64 {
	u := make([]float64, d)
	for i := range u {
		u[i] = r.Float64()
	}
	return u
}

func clampUnit(u []float64) {
	for i, v := range u {
		if v < 0 {
			u[i] = 0
		}
		if v > 1 {
			u[i] = 1
		}
	}
}

// Penalized wraps an objective with the problem's constraint-violation
// penalty so that constrained problems can be handled by any unconstrained
// algorithm in this package.
func Penalized(p *space.Problem, fn func([]float64) float64, weight float64) func([]float64) float64 {
	if weight <= 0 {
		weight = 1e6
	}
	return func(x []float64) float64 {
		if v := p.Violation(x); v > 0 {
			return fn(x) + weight*v
		}
		return fn(x)
	}
}

// GA is a real-coded genetic algorithm with tournament selection, BLX-alpha
// crossover, Gaussian mutation, and elitism.
type GA struct {
	PopSize    int
	Alpha      float64 // BLX-alpha blend range (default 0.3)
	MutProb    float64 // per-gene mutation probability (default 1/d)
	MutSigma   float64 // mutation std in unit space (default 0.1)
	Tournament int     // tournament size (default 3)
	Elite      int     // elites carried over (default 1)
	Seed       int64
}

// Name implements Algorithm.
func (GA) Name() string { return "ga" }

// Minimize implements Algorithm.
func (g GA) Minimize(s *space.Space, fn func([]float64) float64, budget int) Result {
	d := s.Len()
	pop := g.PopSize
	if pop <= 0 {
		pop = 20
	}
	alpha := g.Alpha
	if alpha <= 0 {
		alpha = 0.3
	}
	mutProb := g.MutProb
	if mutProb <= 0 {
		mutProb = 1 / float64(d)
	}
	sigma := g.MutSigma
	if sigma <= 0 {
		sigma = 0.1
	}
	tourn := g.Tournament
	if tourn <= 1 {
		tourn = 3
	}
	elite := g.Elite
	if elite < 0 {
		elite = 1
	}
	r := rngutil.New(g.Seed + 1)
	t := newTracker(s, fn, budget)

	type ind struct {
		u []float64
		y float64
	}
	cur := make([]ind, pop)
	for i := range cur {
		cur[i].u = randomUnit(r, d)
		cur[i].y = t.eval(cur[i].u)
	}
	pick := func() ind {
		best := cur[r.Intn(pop)]
		for k := 1; k < tourn; k++ {
			c := cur[r.Intn(pop)]
			if c.y < best.y {
				best = c
			}
		}
		return best
	}
	for !t.done() {
		next := make([]ind, 0, pop)
		// Elitism: copy the best individuals unchanged (no re-evaluation).
		order := make([]int, pop)
		for i := range order {
			order[i] = i
		}
		for i := 0; i < elite && i < pop; i++ {
			bi := i
			for j := i + 1; j < pop; j++ {
				if cur[order[j]].y < cur[order[bi]].y {
					bi = j
				}
			}
			order[i], order[bi] = order[bi], order[i]
			next = append(next, cur[order[i]])
		}
		for len(next) < pop && !t.done() {
			p1, p2 := pick(), pick()
			child := make([]float64, d)
			for j := 0; j < d; j++ {
				lo, hi := p1.u[j], p2.u[j]
				if lo > hi {
					lo, hi = hi, lo
				}
				span := hi - lo
				child[j] = lo - alpha*span + r.Float64()*(span+2*alpha*span)
				if r.Float64() < mutProb {
					child[j] += r.NormFloat64() * sigma
				}
			}
			clampUnit(child)
			next = append(next, ind{u: child, y: t.eval(child)})
		}
		if len(next) == pop {
			cur = next
		}
	}
	return t.result()
}

// DE is Differential Evolution, DE/rand/1/bin.
type DE struct {
	PopSize int
	F       float64 // differential weight (default 0.5)
	CR      float64 // crossover rate (default 0.9)
	Seed    int64
}

// Name implements Algorithm.
func (DE) Name() string { return "de" }

// Minimize implements Algorithm.
func (de DE) Minimize(s *space.Space, fn func([]float64) float64, budget int) Result {
	d := s.Len()
	pop := de.PopSize
	if pop <= 0 {
		pop = 4 * d
		if pop < 8 {
			pop = 8
		}
	}
	f := de.F
	if f <= 0 {
		f = 0.5
	}
	cr := de.CR
	if cr <= 0 {
		cr = 0.9
	}
	r := rngutil.New(de.Seed + 1)
	t := newTracker(s, fn, budget)

	us := make([][]float64, pop)
	ys := make([]float64, pop)
	for i := range us {
		us[i] = randomUnit(r, d)
		ys[i] = t.eval(us[i])
	}
	for !t.done() {
		for i := 0; i < pop && !t.done(); i++ {
			// Three distinct donors, all different from i.
			a, b, c := i, i, i
			for a == i {
				a = r.Intn(pop)
			}
			for b == i || b == a {
				b = r.Intn(pop)
			}
			for c == i || c == a || c == b {
				c = r.Intn(pop)
			}
			trial := make([]float64, d)
			jRand := r.Intn(d)
			for j := 0; j < d; j++ {
				if j == jRand || r.Float64() < cr {
					trial[j] = us[a][j] + f*(us[b][j]-us[c][j])
				} else {
					trial[j] = us[i][j]
				}
			}
			clampUnit(trial)
			if y := t.eval(trial); y <= ys[i] {
				us[i], ys[i] = trial, y
			}
		}
	}
	return t.result()
}

// SA is simulated annealing with Gaussian moves and geometric cooling.
type SA struct {
	T0      float64 // initial temperature (default: auto from first moves)
	Cooling float64 // geometric cooling factor per evaluation (default 0.995)
	Sigma   float64 // move std in unit space (default 0.15)
	Seed    int64
}

// Name implements Algorithm.
func (SA) Name() string { return "sa" }

// Minimize implements Algorithm.
func (sa SA) Minimize(s *space.Space, fn func([]float64) float64, budget int) Result {
	d := s.Len()
	cooling := sa.Cooling
	if cooling <= 0 || cooling >= 1 {
		cooling = 0.995
	}
	sigma := sa.Sigma
	if sigma <= 0 {
		sigma = 0.15
	}
	r := rngutil.New(sa.Seed + 1)
	t := newTracker(s, fn, budget)

	cur := randomUnit(r, d)
	curY := t.eval(cur)
	temp := sa.T0
	if temp <= 0 {
		temp = math.Abs(curY)*0.3 + 1e-3
	}
	// The move size anneals with the temperature so late iterations refine
	// locally instead of hopping at the initial scale.
	step := sigma
	for !t.done() {
		cand := make([]float64, d)
		for j := range cand {
			cand[j] = cur[j] + r.NormFloat64()*step
		}
		clampUnit(cand)
		y := t.eval(cand)
		if y <= curY || r.Float64() < math.Exp((curY-y)/temp) {
			cur, curY = cand, y
		}
		temp *= cooling
		if temp < 1e-12 {
			temp = 1e-12
		}
		step *= cooling
		if step < sigma*0.02 {
			step = sigma * 0.02
		}
	}
	return t.result()
}

// PSO is global-best particle swarm optimization with the standard
// constriction coefficients.
type PSO struct {
	Swarm   int     // particles (default 20)
	Inertia float64 // w (default 0.729)
	C1, C2  float64 // cognitive/social (default 1.49445)
	VMax    float64 // velocity clamp in unit space (default 0.25)
	Seed    int64
}

// Name implements Algorithm.
func (PSO) Name() string { return "pso" }

// Minimize implements Algorithm.
func (p PSO) Minimize(s *space.Space, fn func([]float64) float64, budget int) Result {
	d := s.Len()
	n := p.Swarm
	if n <= 0 {
		n = 20
	}
	w := p.Inertia
	if w <= 0 {
		w = 0.729
	}
	c1, c2 := p.C1, p.C2
	if c1 <= 0 {
		c1 = 1.49445
	}
	if c2 <= 0 {
		c2 = 1.49445
	}
	vmax := p.VMax
	if vmax <= 0 {
		vmax = 0.25
	}
	r := rngutil.New(p.Seed + 1)
	t := newTracker(s, fn, budget)

	pos := make([][]float64, n)
	vel := make([][]float64, n)
	pbest := make([][]float64, n)
	pbestY := make([]float64, n)
	var gbest []float64
	gbestY := math.Inf(1)
	for i := 0; i < n; i++ {
		pos[i] = randomUnit(r, d)
		vel[i] = make([]float64, d)
		for j := range vel[i] {
			vel[i][j] = (r.Float64()*2 - 1) * vmax
		}
		y := t.eval(pos[i])
		pbest[i] = append([]float64(nil), pos[i]...)
		pbestY[i] = y
		if y < gbestY {
			gbestY = y
			gbest = append([]float64(nil), pos[i]...)
		}
	}
	for !t.done() {
		for i := 0; i < n && !t.done(); i++ {
			for j := 0; j < d; j++ {
				vel[i][j] = w*vel[i][j] +
					c1*r.Float64()*(pbest[i][j]-pos[i][j]) +
					c2*r.Float64()*(gbest[j]-pos[i][j])
				if vel[i][j] > vmax {
					vel[i][j] = vmax
				}
				if vel[i][j] < -vmax {
					vel[i][j] = -vmax
				}
				pos[i][j] += vel[i][j]
			}
			clampUnit(pos[i])
			y := t.eval(pos[i])
			if y < pbestY[i] {
				pbestY[i] = y
				copy(pbest[i], pos[i])
				if y < gbestY {
					gbestY = y
					copy(gbest, pos[i])
				}
			}
		}
	}
	return t.result()
}
