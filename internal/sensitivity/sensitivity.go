// Package sensitivity implements the sensitivity-analysis techniques of the
// paper's Section IV-C: One-at-a-time (OAT), "a simple and common approach
// that consists in varying a single parameter at a time to identify the
// effect on the output", and Refine, which chains OAT sweeps to turn the
// preliminary optimum into the refined one.
package sensitivity

import (
	"fmt"
	"sort"

	"e2clab/internal/space"
)

// OATPoint is one evaluation of an OAT sweep.
type OATPoint struct {
	// Value is the swept parameter's value.
	Value float64
	// X is the full configuration evaluated.
	X []float64
	// Y is the objective at X.
	Y float64
}

// OATResult is the sweep of one parameter around a center configuration.
type OATResult struct {
	Dimension string
	Center    []float64
	Points    []OATPoint
}

// Best returns the sweep's best (minimum) point.
func (r *OATResult) Best() OATPoint {
	best := r.Points[0]
	for _, p := range r.Points[1:] {
		if p.Y < best.Y {
			best = p
		}
	}
	return best
}

// OAT sweeps dimension dim of s over center ± delta (clipped to bounds),
// evaluating fn at each setting while all other parameters stay at the
// center — exactly the paper's extract ±2 / simsearch ±3 protocol.
func OAT(s *space.Space, center []float64, dim string, delta int, fn func(x []float64) float64) (*OATResult, error) {
	di := s.IndexOf(dim)
	if di < 0 {
		return nil, fmt.Errorf("sensitivity: unknown dimension %q", dim)
	}
	if !s.Contains(center) {
		return nil, fmt.Errorf("sensitivity: center %v outside the space", center)
	}
	if delta < 1 {
		return nil, fmt.Errorf("sensitivity: delta must be >= 1, got %d", delta)
	}
	d := s.Dim(di)
	res := &OATResult{Dimension: dim, Center: append([]float64(nil), center...)}
	seen := map[float64]bool{}
	for off := -delta; off <= delta; off++ {
		v := d.Clip(center[di] + float64(off))
		if seen[v] {
			continue // clipped duplicates at the bounds
		}
		seen[v] = true
		x := append([]float64(nil), center...)
		x[di] = v
		res.Points = append(res.Points, OATPoint{Value: v, X: x, Y: fn(x)})
	}
	sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].Value < res.Points[j].Value })
	return res, nil
}

// Refine runs OAT sweeps over several dimensions sequentially, adopting
// each sweep's best value before sweeping the next — the paper's refinement
// of the preliminary optimum into the refined optimum.
func Refine(s *space.Space, center []float64, dims []string, delta int, fn func(x []float64) float64) ([]float64, []*OATResult, error) {
	cur := append([]float64(nil), center...)
	var sweeps []*OATResult
	for _, dim := range dims {
		r, err := OAT(s, cur, dim, delta, fn)
		if err != nil {
			return nil, nil, err
		}
		sweeps = append(sweeps, r)
		best := r.Best()
		cur = append([]float64(nil), best.X...)
	}
	return cur, sweeps, nil
}
