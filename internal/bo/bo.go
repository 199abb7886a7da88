// Package bo implements sequential model-based (Bayesian) optimization with
// an ask/tell interface, mirroring skopt.Optimizer as configured in the
// paper's Listing 1:
//
//	Optimizer(base_estimator='ET', n_initial_points=45,
//	          initial_point_generator="lhs", acq_func="gp_hedge")
//
// The optimizer works for minimization (the paper's objective is minimizing
// user response time). Maximization problems negate their metric (package
// optimize does this automatically).
//
// # Performance model
//
// Ask is the hot path of every optimization cycle: each call fits a fresh
// surrogate and scores a candidate pool of cfg.NCandidates points. The
// acquisition loop scores the whole pool through surrogate.PredictBatch, so
// batch-capable models (forests, GBRT, GP) amortize per-point overhead and
// shard the pool across CPU cores; candidate and unit buffers are
// preallocated once and reused across Asks; and the dedup index uses a
// cheap quantized FNV-1a hash of the value-space point instead of the
// space.Format string it used to allocate for every draw. An Optimizer is
// NOT safe for concurrent use — drivers that evaluate in parallel (package
// tune) serialize Ask/Tell and rely on the constant-liar pending mechanism
// instead.
package bo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"e2clab/internal/acquisition"
	"e2clab/internal/rngutil"
	"e2clab/internal/sample"
	"e2clab/internal/space"
	"e2clab/internal/surrogate"
)

// Config selects the optimizer's strategy; the zero value is completed with
// the paper's defaults.
type Config struct {
	// BaseEstimator is the surrogate family, one of skopt's four: "ET",
	// "RF", "GBRT", "GP". Default "ET".
	BaseEstimator string
	// NInitialPoints is the size of the space-filling design evaluated
	// before the surrogate takes over. Default 10.
	NInitialPoints int
	// InitialPointGenerator: "lhs", "sobol", "halton", "random", "grid".
	// Default "lhs".
	InitialPointGenerator string
	// AcqFunc: "gp_hedge" (default), "EI", "PI", "LCB".
	AcqFunc string
	// NCandidates is the size of the random candidate pool scanned to
	// maximize the acquisition function. Default 1000.
	NCandidates int
	// Seed makes the whole optimization deterministic.
	Seed int64
}

func (c *Config) fillDefaults() {
	if c.BaseEstimator == "" {
		c.BaseEstimator = "ET"
	}
	if c.NInitialPoints <= 0 {
		c.NInitialPoints = 10
	}
	if c.InitialPointGenerator == "" {
		c.InitialPointGenerator = "lhs"
	}
	if c.AcqFunc == "" {
		c.AcqFunc = "gp_hedge"
	}
	if c.NCandidates <= 0 {
		c.NCandidates = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// pendingPoint is an asked-but-not-told point. seq preserves ask order so
// the constant-liar training rows stay in deterministic insertion order
// even though removal is key-indexed.
type pendingPoint struct {
	u   []float64
	seq uint64
}

// Optimizer is an ask/tell sequential model-based optimizer.
type Optimizer struct {
	space   *space.Space
	dims    []space.Dimension
	cfg     Config
	rng     *rand.Rand
	factory surrogate.Factory
	sampler sample.Sampler
	acq     acquisition.Function
	hedge   *acquisition.Hedge

	initQueue [][]float64 // unit-space initial design, consumed by Ask
	X         [][]float64 // unit-space evaluated points
	y         []float64
	// pending indexes asked-but-not-told points by their dedup key so Tell
	// removes them in O(1) instead of scanning (parallel ask/tell issues
	// many Tells against a hot pending set).
	pending    map[uint64][]pendingPoint
	nPending   int
	pendingSeq uint64
	seen       map[uint64]struct{}

	// Reusable per-Ask buffers: candidate pool in canonical unit space and
	// value space (parallel slices over flat backing arrays), plus scratch
	// for key hashing and pending ordering.
	candU        [][]float64
	candX        [][]float64
	candUBack    []float64
	candXBack    []float64
	keyBuf       []byte
	pendingOrder []pendingPoint
	// model is the cached surrogate: reseedable families (forests, GBRT)
	// are re-seeded and refit in place each Ask — bit-identical to a fresh
	// factory construction, without rebuilding the ensemble — while other
	// families are constructed fresh as before. trainX/trainY are the
	// constant-liar training buffers, reused across Asks.
	model  surrogate.Model
	trainX [][]float64
	trainY []float64
}

// New builds an optimizer over s.
func New(s *space.Space, cfg Config) (*Optimizer, error) {
	cfg.fillDefaults()
	factory, err := surrogate.ByName(cfg.BaseEstimator)
	if err != nil {
		return nil, err
	}
	smp, err := sample.ByName(cfg.InitialPointGenerator)
	if err != nil {
		return nil, err
	}
	o := &Optimizer{
		space:   s,
		dims:    s.Dims(),
		cfg:     cfg,
		rng:     rngutil.New(cfg.Seed),
		factory: factory,
		sampler: smp,
		pending: make(map[uint64][]pendingPoint),
		seen:    make(map[uint64]struct{}),
	}
	switch cfg.AcqFunc {
	case "gp_hedge":
		o.hedge = acquisition.NewHedge(rngutil.New(cfg.Seed + 1))
	default:
		fn, ok := acquisition.Default(cfg.AcqFunc)
		if !ok {
			return nil, fmt.Errorf("bo: unknown acquisition function %q", cfg.AcqFunc)
		}
		o.acq = fn
	}
	o.initQueue = smp.Sample(o.rng, cfg.NInitialPoints, s.Len())
	return o, nil
}

// Config returns the effective configuration (defaults filled), recorded by
// the reproducibility summary.
func (o *Optimizer) Config() Config { return o.cfg }

// N returns the number of evaluations told so far.
func (o *Optimizer) N() int { return len(o.y) }

// Ask proposes the next configuration to evaluate, in value space. Repeated
// Asks without Tells are allowed (parallel evaluation); pending points are
// assumed to return the best value seen so far ("constant liar"), which
// pushes subsequent proposals away from in-flight configurations.
func (o *Optimizer) Ask() []float64 {
	// Space-filling phase.
	for len(o.initQueue) > 0 {
		u := o.initQueue[0]
		o.initQueue = o.initQueue[1:]
		x := o.space.FromUnit(u)
		if !o.isSeen(x) {
			o.track(x)
			return x
		}
	}
	if len(o.y)+o.nPending < 2 {
		return o.randomPoint()
	}
	x := o.modelAsk()
	o.track(x)
	return x
}

// track records x as pending and marks it seen.
func (o *Optimizer) track(x []float64) {
	k := o.key(x)
	o.pendingSeq++
	o.pending[k] = append(o.pending[k], pendingPoint{u: o.space.ToUnit(x), seq: o.pendingSeq})
	o.nPending++
	o.seen[k] = struct{}{}
}

func (o *Optimizer) isSeen(x []float64) bool {
	_, ok := o.seen[o.key(x)]
	return ok
}

func (o *Optimizer) randomPoint() []float64 {
	for i := 0; i < 256; i++ {
		u := make([]float64, o.space.Len())
		for j := range u {
			u[j] = o.rng.Float64()
		}
		x := o.space.FromUnit(u)
		if !o.isSeen(x) {
			o.track(x)
			return x
		}
	}
	// Space exhausted (tiny discrete spaces): re-propose the best point.
	x, _ := o.Best()
	if x == nil {
		x = o.space.FromUnit(make([]float64, o.space.Len()))
	}
	o.track(x)
	return x
}

// orderedPending returns the pending points sorted by ask order (the
// deterministic order the old slice representation had for free).
func (o *Optimizer) orderedPending() []pendingPoint {
	o.pendingOrder = o.pendingOrder[:0]
	for _, lst := range o.pending {
		o.pendingOrder = append(o.pendingOrder, lst...)
	}
	sort.Slice(o.pendingOrder, func(a, b int) bool {
		return o.pendingOrder[a].seq < o.pendingOrder[b].seq
	})
	return o.pendingOrder
}

// modelAsk fits the surrogate and maximizes the acquisition over a random
// candidate pool, scoring the whole pool in one PredictBatch call. The
// winner is returned as a fresh copy, because the pool's buffers are reused
// across Asks.
func (o *Optimizer) modelAsk() []float64 {
	// Training set: evaluated points plus constant-liar pending points, in
	// buffers reused across Asks.
	o.trainX = append(o.trainX[:0], o.X...)
	o.trainY = append(o.trainY[:0], o.y...)
	if o.nPending > 0 {
		liar := o.bestY()
		for _, p := range o.orderedPending() {
			o.trainX = append(o.trainX, p.u)
			o.trainY = append(o.trainY, liar)
		}
	}
	seed := o.rng.Int63()
	if rs, ok := o.model.(surrogate.Reseeder); ok {
		rs.Reseed(seed)
	} else {
		o.model = o.factory(rngutil.New(seed))
	}
	model := o.model
	if err := model.Fit(o.trainX, o.trainY); err != nil {
		return o.randomUntracked()
	}
	best := o.bestY()

	units, values := o.candidates()
	means, stds := surrogate.PredictBatch(model, units)
	if o.hedge != nil {
		// Find each base function's favorite candidate, pick via hedge.
		picks := make([]int, len(o.hedge.Funcs))
		hmeans := make([]float64, len(o.hedge.Funcs))
		scores := make([]float64, len(o.hedge.Funcs))
		for i := range scores {
			picks[i] = -1
			scores[i] = math.Inf(-1)
		}
		for c := range units {
			m, s := means[c], stds[c]
			for i, fn := range o.hedge.Funcs {
				if sc := fn.Score(m, s, best); sc > scores[i] {
					scores[i], picks[i], hmeans[i] = sc, c, m
				}
			}
		}
		choice := o.hedge.Choose()
		o.hedge.Update(hmeans)
		if picks[choice] < 0 {
			return o.randomUntracked()
		}
		return append([]float64(nil), values[picks[choice]]...)
	}
	bestIdx := -1
	bestScore := math.Inf(-1)
	for c := range units {
		if sc := o.acq.Score(means[c], stds[c], best); sc > bestScore {
			bestScore, bestIdx = sc, c
		}
	}
	if bestIdx < 0 {
		return o.randomUntracked()
	}
	return append([]float64(nil), values[bestIdx]...)
}

// candidates draws the random pool, excluding already-proposed points. It
// returns parallel slices: the canonical unit-space points handed to the
// surrogate and their value-space counterparts, converted exactly once per
// draw (per dimension: unit -> value -> canonical unit in a single pass).
// Both views are backed by buffers reused across Asks; callers must copy
// any row they retain past the next Ask.
func (o *Optimizer) candidates() (units, values [][]float64) {
	d := o.space.Len()
	nc := o.cfg.NCandidates
	if o.candUBack == nil {
		o.candUBack = make([]float64, nc*d)
		o.candXBack = make([]float64, nc*d)
		o.candU = make([][]float64, 0, nc)
		o.candX = make([][]float64, 0, nc)
	}
	o.candU, o.candX = o.candU[:0], o.candX[:0]
	for i := 0; i < nc*4 && len(o.candU) < nc; i++ {
		k := len(o.candU)
		urow := o.candUBack[k*d : (k+1)*d : (k+1)*d]
		xrow := o.candXBack[k*d : (k+1)*d : (k+1)*d]
		for j := 0; j < d; j++ {
			xv := o.dims[j].FromUnit(o.rng.Float64())
			xrow[j] = xv
			urow[j] = o.dims[j].ToUnit(xv)
		}
		if o.isSeen(xrow) {
			continue
		}
		o.candU = append(o.candU, urow)
		o.candX = append(o.candX, xrow)
	}
	return o.candU, o.candX
}

func (o *Optimizer) randomUntracked() []float64 {
	u := make([]float64, o.space.Len())
	for j := range u {
		u[j] = o.rng.Float64()
	}
	return o.space.FromUnit(u)
}

// Tell reports the objective value for a previously Asked (or external)
// point.
func (o *Optimizer) Tell(x []float64, yv float64) {
	u := o.space.ToUnit(x)
	k := o.key(x)
	// Drop the matching pending entry, if any: key-indexed, oldest first.
	if lst := o.pending[k]; len(lst) > 0 {
		if len(lst) == 1 {
			delete(o.pending, k)
		} else {
			o.pending[k] = lst[1:]
		}
		o.nPending--
	}
	o.seen[k] = struct{}{}
	o.X = append(o.X, u)
	o.y = append(o.y, yv)
}

// Best returns the best (lowest-objective) evaluated point in value space,
// or (nil, +Inf) before any Tell.
func (o *Optimizer) Best() ([]float64, float64) {
	bi, bv := -1, math.Inf(1)
	for i, v := range o.y {
		if v < bv {
			bi, bv = i, v
		}
	}
	if bi < 0 {
		return nil, bv
	}
	return o.space.FromUnit(o.X[bi]), bv
}

func (o *Optimizer) bestY() float64 {
	_, v := o.Best()
	if math.IsInf(v, 1) {
		return 0
	}
	return v
}

// SnapshotModel refits the surrogate on all evidence told so far and
// serializes it — the "intermediate models throughout training" that the
// paper's finalize() archives.
func (o *Optimizer) SnapshotModel() ([]byte, error) {
	if len(o.y) < 2 {
		return nil, fmt.Errorf("bo: need >= 2 observations to snapshot a model, have %d", len(o.y))
	}
	model := o.factory(rngutil.New(o.cfg.Seed + 999))
	if err := model.Fit(o.X, o.y); err != nil {
		return nil, err
	}
	return surrogate.Marshal(model)
}

// Evaluations returns copies of all (x, y) pairs told so far, in value
// space, for the Phase III archive.
func (o *Optimizer) Evaluations() ([][]float64, []float64) {
	X := make([][]float64, len(o.X))
	for i, u := range o.X {
		X[i] = o.space.FromUnit(u)
	}
	return X, append([]float64(nil), o.y...)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// key hashes a value-space point into the dedup key used by the seen map
// and the pending index. Integer and categorical dimensions hash their
// exact value; float dimensions are quantized to the 4 significant digits
// space.Format prints, so dedup semantics match the Format-string keys this
// replaced — without the fmt round trip and string allocation per draw.
func (o *Optimizer) key(x []float64) uint64 {
	h := uint64(fnvOffset64)
	for i, v := range x {
		switch o.dims[i].Kind {
		case space.IntKind, space.CategoricalKind:
			u := uint64(int64(v))
			for s := 0; s < 64; s += 8 {
				h ^= (u >> s) & 0xff
				h *= fnvPrime64
			}
		default:
			o.keyBuf = strconv.AppendFloat(o.keyBuf[:0], v, 'g', 4, 64)
			for _, c := range o.keyBuf {
				h ^= uint64(c)
				h *= fnvPrime64
			}
		}
		// Dimension separator, so (1, 12) and (11, 2) hash differently.
		h ^= 0xff
		h *= fnvPrime64
	}
	return h
}
