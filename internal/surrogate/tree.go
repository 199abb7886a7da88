package surrogate

import (
	"math"
	"math/rand"
	"slices"
)

// TreeConfig controls CART regression-tree growth.
type TreeConfig struct {
	// MaxDepth limits tree depth (0 = unlimited).
	MaxDepth int
	// MinSamplesLeaf is the minimum training rows per leaf.
	MinSamplesLeaf int
	// RandomThresholds draws one uniform threshold per candidate feature
	// instead of scanning all split points — the Extra-Trees splitter.
	RandomThresholds bool
	// Bootstrap resamples the training set with replacement before fitting
	// (used by Random Forest members).
	Bootstrap bool
}

// DefaultTreeConfig mirrors sklearn's regression-tree defaults.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 0, MinSamplesLeaf: 1}
}

// Tree is a CART regression tree, the building block of Forest and GBRT.
//
// Fitting runs over per-feature presorted index arrays computed once per
// Fit: every feature's index slice is kept partitioned so each tree node
// owns a contiguous, still-sorted segment. Split search therefore never
// re-sorts (the old splitter sorted the node's rows for every CART feature
// scan), Extra-Trees reads a node's min/max in O(1) from the segment ends
// and accumulates only the left prefix of a cut, and the whole build
// recurses over segment bounds with zero per-node allocations.
type Tree struct {
	cfg     TreeConfig
	rng     *rand.Rand
	src     rand.Source // rng's source when owned by an ensemble (reseedable)
	nodes   []treeNode
	walk    []walkNode   // compact prediction mirror of nodes (see buildWalk)
	scratch *treeScratch // lazily created; reused across Fits of this tree
}

// treeNode is a flat-array tree node; leaves have feature == -1.
type treeNode struct {
	feature     int
	threshold   float64
	left, right int
	value       float64
	count       int
}

// walkNode is the 16-byte prediction-time view of a node: build emits nodes
// in preorder, so an internal node's left child is always the next index and
// only the right index needs storing; a leaf reuses thr for its value.
// Four nodes per cache line make ensemble batch prediction markedly less
// memory-bound than walking the 48-byte treeNode array.
type walkNode struct {
	thr   float64 // split threshold, or the leaf value when feat < 0
	feat  int32
	right int32
}

// buildWalk derives the compact walk array, the only prediction path. It
// relies on the preorder layout (left == i+1 < right) that build produces
// and Unmarshal enforces.
func (t *Tree) buildWalk() {
	if cap(t.walk) < len(t.nodes) {
		t.walk = make([]walkNode, 0, len(t.nodes))
	}
	t.walk = t.walk[:0]
	for _, nd := range t.nodes {
		if nd.feature >= 0 {
			t.walk = append(t.walk, walkNode{thr: nd.threshold, feat: int32(nd.feature), right: int32(nd.right)})
		} else {
			t.walk = append(t.walk, walkNode{thr: nd.value, feat: -1})
		}
	}
}

// walkPredict scores one row through a compact walk array.
func walkPredict(w []walkNode, x []float64) float64 {
	j := 0
	for {
		nd := w[j]
		if nd.feat < 0 {
			return nd.thr
		}
		if x[nd.feat] <= nd.thr {
			j++
		} else {
			j = int(nd.right)
		}
	}
}

// treeScratch holds every buffer a fit needs. One scratch serves any number
// of sequential fits (GBRT reuses one across all boosting stages; Forest
// reuses one per worker shard); it grows monotonically and never shrinks.
type treeScratch struct {
	n, d    int
	colX    []float64 // d*n column-major feature values (bootstrap-resolved)
	yv      []float64 // n target values (bootstrap-resolved)
	sortedB []int32   // d*n backing for sorted
	sorted  [][]int32 // per-feature row indices, sorted within node segments
	aux     []int32   // stable-partition spill buffer
	isLeft  []bool    // split membership marks, always cleared after use
	perm    []int     // feature-permutation buffer (replicates rand.Perm)
}

func (s *treeScratch) reset(n, d int) {
	s.n, s.d = n, d
	if cap(s.colX) < n*d {
		s.colX = make([]float64, n*d)
		s.sortedB = make([]int32, n*d)
	}
	s.colX = s.colX[:n*d]
	s.sortedB = s.sortedB[:n*d]
	if cap(s.yv) < n {
		s.yv = make([]float64, n)
		s.aux = make([]int32, 0, n)
		s.isLeft = make([]bool, n)
	}
	s.yv = s.yv[:n]
	s.isLeft = s.isLeft[:n]
	for i := range s.isLeft {
		s.isLeft[i] = false
	}
	if cap(s.perm) < d {
		s.perm = make([]int, d)
	}
	s.perm = s.perm[:d]
	if cap(s.sorted) < d {
		s.sorted = make([][]int32, d)
	}
	s.sorted = s.sorted[:d]
	for f := 0; f < d; f++ {
		s.sorted[f] = s.sortedB[f*n : (f+1)*n : (f+1)*n]
	}
}

// NewTree returns an untrained tree.
func NewTree(cfg TreeConfig, r *rand.Rand) *Tree {
	if r == nil {
		//simlint:allow rngseed deterministic fallback for a nil rng; the pipeline always passes a derived stream (see bo/plantnet seeders)
		r = rand.New(rand.NewSource(1))
	}
	return &Tree{cfg: cfg, rng: r}
}

// Fit trains the tree on rows X and targets y.
func (t *Tree) Fit(X [][]float64, y []float64) error {
	if t.scratch == nil {
		t.scratch = &treeScratch{}
	}
	return t.fit(X, y, t.scratch)
}

// fit trains on X, y using s for every working buffer. Callers that train
// many trees (Forest shards, GBRT stages) pass a shared scratch so the
// buffers are allocated once per worker, not once per tree.
func (t *Tree) fit(X [][]float64, y []float64, s *treeScratch) error {
	n, d, err := validate(X, y)
	if err != nil {
		return err
	}
	s.reset(n, d)
	// Resolve the (possibly bootstrap-resampled) training set into a
	// column-major copy: split scans then read one contiguous array per
	// feature instead of chasing row pointers.
	if t.cfg.Bootstrap {
		for k := 0; k < n; k++ {
			j := t.rng.Intn(n)
			row := X[j]
			for f := 0; f < d; f++ {
				s.colX[f*n+k] = row[f]
			}
			s.yv[k] = y[j]
		}
	} else {
		for k := 0; k < n; k++ {
			row := X[k]
			for f := 0; f < d; f++ {
				s.colX[f*n+k] = row[f]
			}
			s.yv[k] = y[k]
		}
	}
	for f := 0; f < d; f++ {
		sf := s.sorted[f]
		for k := range sf {
			sf[k] = int32(k)
		}
		col := s.colX[f*n : (f+1)*n]
		slices.SortFunc(sf, func(a, b int32) int {
			va, vb := col[a], col[b]
			if va < vb {
				return -1
			}
			if va > vb {
				return 1
			}
			return int(a - b) // index tiebreak: fully deterministic order
		})
	}
	t.nodes = t.nodes[:0]
	t.build(s, 0, n, 0)
	t.buildWalk()
	return nil
}

// build grows a subtree over the rows in segment [start, end) of every
// per-feature sorted array and returns its node index.
func (t *Tree) build(s *treeScratch, start, end, depth int) int {
	node := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{feature: -1})

	var sum, sumSq float64
	for _, i := range s.sorted[0][start:end] {
		v := s.yv[i]
		sum += v
		sumSq += v * v
	}
	m := end - start
	fm := float64(m)
	t.nodes[node].value = sum / fm
	t.nodes[node].count = m
	sse := sumSq - sum*sum/fm

	minLeaf := t.cfg.MinSamplesLeaf
	if minLeaf < 1 {
		minLeaf = 1
	}
	if m < 2*minLeaf || sse <= 1e-12 || (t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth) {
		return node
	}

	feat, thr, ok := t.bestSplit(s, start, end, sum, sumSq, minLeaf)
	if !ok {
		return node
	}
	// The chosen feature's segment is sorted, so its left rows are exactly
	// the prefix with value <= thr.
	n := s.n
	col := s.colX[feat*n : (feat+1)*n]
	sf := s.sorted[feat][start:end]
	nl := 0
	for _, i := range sf {
		if col[i] > thr {
			break
		}
		s.isLeft[i] = true
		nl++
	}
	if nl < minLeaf || m-nl < minLeaf {
		for _, i := range sf[:nl] {
			s.isLeft[i] = false
		}
		return node
	}
	// Stable-partition every other feature's segment by membership, which
	// keeps each child's segments sorted without ever re-sorting.
	for f := 0; f < s.d; f++ {
		if f == feat {
			continue
		}
		g := s.sorted[f][start:end]
		aux := s.aux[:0]
		w := 0
		for _, i := range g {
			if s.isLeft[i] {
				g[w] = i
				w++
			} else {
				aux = append(aux, i)
			}
		}
		copy(g[w:], aux)
	}
	for _, i := range sf[:nl] {
		s.isLeft[i] = false
	}
	t.nodes[node].feature = feat
	t.nodes[node].threshold = thr
	t.nodes[node].left = t.build(s, start, start+nl, depth+1)
	t.nodes[node].right = t.build(s, start+nl, end, depth+1)
	return node
}

// bestSplit searches every feature for the SSE-minimizing split: a single
// presorted sweep with prefix sums for CART, one random threshold with an
// O(prefix) accumulation for Extra-Trees. tSum/tSq are the node's total Σy
// and Σy², already computed by build. Features are visited in a rand.Perm
// order, which breaks cost ties and decides which Extra-Trees feature takes
// which threshold draw, so the Perm draw is part of every tree's seeded
// stream.
func (t *Tree) bestSplit(s *treeScratch, start, end int, tSum, tSq float64, minLeaf int) (feat int, thr float64, ok bool) {
	d := s.d
	// Replicate rand.Perm(d) into the scratch buffer: same algorithm, same
	// Intn sequence, no allocation.
	p := s.perm
	p[0] = 0
	for i := 1; i < d; i++ {
		j := t.rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	best := math.Inf(1)
	n := s.n
	m := end - start
	for _, f := range p {
		col := s.colX[f*n : (f+1)*n]
		sf := s.sorted[f][start:end]
		if t.cfg.RandomThresholds {
			lo, hi := col[sf[0]], col[sf[m-1]]
			if hi <= lo {
				continue
			}
			cut := lo + t.rng.Float64()*(hi-lo)
			var lSum, lSq float64
			nl := 0
			for _, i := range sf {
				if col[i] > cut {
					break
				}
				yi := s.yv[i]
				lSum += yi
				lSq += yi * yi
				nl++
			}
			nr := m - nl
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			rSum, rSq := tSum-lSum, tSq-lSq
			cost := (lSq - lSum*lSum/float64(nl)) + (rSq - rSum*rSum/float64(nr))
			if cost < best {
				best, feat, thr, ok = cost, f, cut, true
			}
			continue
		}
		// Exhaustive CART scan: the segment is already sorted, so evaluate
		// every boundary between distinct values with prefix sums.
		var lSum, lSq float64
		rSum, rSq := tSum, tSq
		for k := 0; k < m-1; k++ {
			yi := s.yv[sf[k]]
			lSum += yi
			lSq += yi * yi
			rSum -= yi
			rSq -= yi * yi
			if col[sf[k]] == col[sf[k+1]] {
				continue
			}
			nl, nr := k+1, m-k-1
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			cost := (lSq - lSum*lSum/float64(nl)) + (rSq - rSum*rSum/float64(nr))
			if cost < best {
				best = cost
				feat = f
				thr = (col[sf[k]] + col[sf[k+1]]) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// Predict returns the fitted tree's prediction at x. The tree must be
// fitted: the ensembles check that once per model, not once per tree.
func (t *Tree) Predict(x []float64) float64 {
	return walkPredict(t.walk, x)
}

// Depth returns the fitted tree's depth (for tests and diagnostics).
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var walk func(i int) int
	walk = func(i int) int {
		if t.nodes[i].feature < 0 {
			return 1
		}
		l, r := walk(t.nodes[i].left), walk(t.nodes[i].right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int {
	n := 0
	for _, nd := range t.nodes {
		if nd.feature < 0 {
			n++
		}
	}
	return n
}
