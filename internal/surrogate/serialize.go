package surrogate

import (
	"encoding/json"
	"fmt"
	"math"

	"e2clab/internal/linalg"
)

// Model serialization supports the paper's finalize() step: "Saved
// information refers to intermediate models throughout training and points
// evaluated". Marshal/Unmarshal round-trip every model family so archived
// surrogates can be reloaded and queried without retraining.

type modelEnvelope struct {
	Type   string       `json:"type"`
	Forest *forestState `json:"forest,omitempty"`
	GBRT   *gbrtState   `json:"gbrt,omitempty"`
	GP     *gpState     `json:"gp,omitempty"`
}

type treeState struct {
	Nodes []treeNodeState `json:"nodes"`
}

type treeNodeState struct {
	Feature   int     `json:"f"`
	Threshold float64 `json:"t,omitempty"`
	Left      int     `json:"l,omitempty"`
	Right     int     `json:"r,omitempty"`
	Value     float64 `json:"v"`
	Count     int     `json:"n"`
}

type forestState struct {
	Name  string      `json:"name"`
	Trees []treeState `json:"trees"`
}

type gbrtState struct {
	Base        float64     `json:"base"`
	Rate        float64     `json:"rate"`
	Stages      []treeState `json:"stages"`
	ResidualStd float64     `json:"residual_std"`
}

type gpState struct {
	Kernel string      `json:"kernel"`
	Noise  float64     `json:"noise"`
	X      [][]float64 `json:"x"`
	Alpha  []float64   `json:"alpha"`
	L      []float64   `json:"l"` // row-major lower Cholesky factor
	YMean  float64     `json:"y_mean"`
	YStd   float64     `json:"y_std"`
	LS     float64     `json:"length_scale"`
}

func treeToState(t *Tree) treeState {
	s := treeState{Nodes: make([]treeNodeState, len(t.nodes))}
	for i, n := range t.nodes {
		s.Nodes[i] = treeNodeState{Feature: n.feature, Threshold: n.threshold,
			Left: n.left, Right: n.right, Value: n.value, Count: n.count}
	}
	return s
}

// loadTree installs an archived node list into t, rejecting any layout
// the walk cannot follow: a tree needs a node, and a split node i needs
// left == i+1 < right < len(nodes), the preorder Fit builds, and a feature
// index that fits the walk's int32. That bounds every descent to strictly
// increasing in-range indices.
func loadTree(t *Tree, s treeState) error {
	n := len(s.Nodes)
	if n == 0 {
		return fmt.Errorf("surrogate: tree with no nodes")
	}
	t.nodes = make([]treeNode, n)
	for i, nd := range s.Nodes {
		if nd.Feature >= 0 && (nd.Feature > math.MaxInt32 || nd.Left != i+1 || nd.Right <= nd.Left || nd.Right >= n) {
			return fmt.Errorf("surrogate: tree node %d is not a preorder split (f=%d l=%d r=%d, %d nodes)",
				i, nd.Feature, nd.Left, nd.Right, n)
		}
		t.nodes[i] = treeNode{feature: nd.Feature, threshold: nd.Threshold,
			left: nd.Left, right: nd.Right, value: nd.Value, count: nd.Count}
	}
	t.buildWalk()
	return nil
}

// Marshal serializes a fitted model.
func Marshal(m Model) ([]byte, error) {
	env := modelEnvelope{}
	switch v := m.(type) {
	case *Forest:
		env.Type = v.name
		fs := forestState{Name: v.name}
		for _, t := range v.trees {
			fs.Trees = append(fs.Trees, treeToState(t))
		}
		env.Forest = &fs
	case *GBRT:
		env.Type = "GBRT"
		gs := gbrtState{Base: v.base, Rate: v.cfg.LearningRate, ResidualStd: v.residualStd}
		for _, t := range v.stages {
			gs.Stages = append(gs.Stages, treeToState(t))
		}
		env.GBRT = &gs
	case *GP:
		if !v.ok {
			return nil, fmt.Errorf("surrogate: cannot marshal unfitted GP")
		}
		env.Type = "GP"
		env.GP = &gpState{Kernel: "matern52", Noise: v.cfg.Noise,
			X: v.X, Alpha: v.alpha, L: v.chol.L.Data,
			YMean: v.yMean, YStd: v.yStd, LS: v.ls}
	default:
		return nil, fmt.Errorf("surrogate: cannot marshal %T", m)
	}
	return json.Marshal(env)
}

// Unmarshal reconstructs a model serialized with Marshal.
func Unmarshal(b []byte) (Model, error) {
	var env modelEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("surrogate: %w", err)
	}
	switch env.Type {
	case "ET", "RF":
		st := env.Forest
		if st == nil {
			return nil, fmt.Errorf("surrogate: forest payload missing")
		}
		if st.Name != env.Type || len(st.Trees) == 0 {
			return nil, fmt.Errorf("surrogate: %s payload names %q with %d trees", env.Type, st.Name, len(st.Trees))
		}
		// The forest is built the way its constructor builds it, so a refit
		// draws the same tree streams and split settings as a fresh one.
		newForest := NewExtraTrees
		if env.Type == "RF" {
			newForest = NewRandomForest
		}
		f := newForest(ForestConfig{NEstimators: len(st.Trees)}, nil)
		for i, ts := range st.Trees {
			if err := loadTree(f.trees[i], ts); err != nil {
				return nil, err
			}
		}
		return f, nil
	case "GBRT":
		st := env.GBRT
		if st == nil {
			return nil, fmt.Errorf("surrogate: GBRT payload missing")
		}
		if !(st.Rate > 0) {
			return nil, fmt.Errorf("surrogate: GBRT learning rate %v, want > 0", st.Rate)
		}
		g := NewGBRT(GBRTConfig{LearningRate: st.Rate}, nil)
		g.base = st.Base
		g.residualStd = st.ResidualStd
		g.stages = make([]*Tree, len(st.Stages))
		for i, ts := range st.Stages {
			g.stages[i] = NewTree(DefaultTreeConfig(), nil)
			if err := loadTree(g.stages[i], ts); err != nil {
				return nil, err
			}
		}
		return g, nil
	case "GP":
		st := env.GP
		if st == nil {
			return nil, fmt.Errorf("surrogate: GP payload missing")
		}
		if st.Kernel != "matern52" {
			return nil, fmt.Errorf("surrogate: unknown kernel %q", st.Kernel)
		}
		n := len(st.X)
		if n == 0 || len(st.L) != n*n || len(st.Alpha) != n {
			return nil, fmt.Errorf("surrogate: GP payload inconsistent (n=%d)", n)
		}
		d := len(st.X[0])
		for i, row := range st.X {
			if d == 0 || len(row) != d {
				return nil, fmt.Errorf("surrogate: GP row %d has %d columns, row 0 has %d; want one width >= 1", i, len(row), d)
			}
		}
		if !(st.LS > 0) || math.IsInf(st.LS, 1) || !(st.Noise > 0) {
			return nil, fmt.Errorf("surrogate: GP length scale %v / noise %v, want finite > 0", st.LS, st.Noise)
		}
		g := NewGP(GPConfig{Noise: st.Noise})
		l := linalg.NewMatrix(n, n)
		copy(l.Data, st.L)
		g.X = st.X
		g.alpha = st.Alpha
		g.chol = &linalg.Cholesky{L: l}
		g.yMean, g.yStd, g.ls, g.ok = st.YMean, st.YStd, st.LS, true
		return g, nil
	default:
		return nil, fmt.Errorf("surrogate: unknown model type %q", env.Type)
	}
}
