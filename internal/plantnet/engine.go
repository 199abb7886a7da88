package plantnet

import (
	"fmt"
	"math"
	"math/rand"

	"e2clab/internal/fault"
	"e2clab/internal/resilience"
	"e2clab/internal/rngutil"
	"e2clab/internal/sim"
	"e2clab/internal/sim/shard"
	"e2clab/internal/stats"
	"e2clab/internal/workload"
)

// RunOptions configures one engine experiment: a thread-pool configuration
// exercised by a closed-loop population of simultaneous requests for a
// fixed duration — exactly the paper's experimental unit (23 minutes, one
// PoolConfig, one workload).
type RunOptions struct {
	Pools PoolConfig
	// Clients is the number of simultaneous requests (the paper's
	// workloads: 80, 120, 140) for the default closed-loop mode.
	Clients int
	// OpenLoopRate, when positive, switches to an open-loop workload:
	// requests arrive as a Poisson process at this rate (req/s) regardless
	// of completions, and Clients is ignored. Useful for what-if capacity
	// studies where demand is exogenous.
	OpenLoopRate float64
	// Arrivals, when non-nil, switches to an open-loop workload whose
	// rate follows a piecewise-constant profile — a nonhomogeneous Poisson
	// process realized by seeded Lewis-Shedler thinning. Unlike lowering a
	// shaped workload to independent per-phase runs, queue state carries
	// across the rate changes within the single run. Overrides Clients and
	// OpenLoopRate.
	Arrivals *workload.PiecewiseRate
	// Network, when non-nil, switches the run to the simulated network
	// continuum: every request traverses explicit per-hop sim.Links
	// (per-gateway uplink, shared backhaul) before the pipeline and the
	// reverse path after it, so the measured user response time includes
	// queueing on the network. nil keeps the network out of the run — the
	// analytical mode, where callers price the path in closed form with
	// netem.TransferSeconds.
	Network *NetworkModel
	// Replicas is the number of engine instances, each on its own node
	// with its own pools, CPU and GPU; clients are spread round-robin
	// (the paper deploys the engine "on the chifflot machines"). Default 1.
	Replicas int
	// Duration is the experiment length in seconds (paper: 1380).
	Duration float64
	// Warmup excludes the initial transient from statistics (default 60 s).
	Warmup float64
	// SampleInterval is the metric-collection period (paper: 10 s).
	SampleInterval float64
	// TraceRequests records the full Table I task breakdown of the first N
	// post-warmup completions in Metrics.Traces (0 disables tracing).
	TraceRequests int
	// Faults, when non-nil and non-zero, compiles a deterministic fault
	// schedule into the run's event calendar: gateway churn and link
	// flaps/transitions (both require Network), and replica crashes with
	// failover to the surviving replicas. Schedule times are relative to
	// the start of THIS run; the stochastic parts (churn intervals,
	// failover delays) draw from their own streams derived from Seed, so
	// a non-faulted run consumes exactly the same RNG it always did.
	Faults *fault.Spec
	// FaultTimeline, when non-nil, bypasses the per-run compile and
	// schedules these pre-compiled events verbatim (times relative to
	// this run's t=0). scenario.Run uses it to lower ONE wall-clock fault
	// timeline continuously across the phases of a phased workload
	// (fault.Windows); tests use it to pin exact event times. An empty
	// non-nil slice is a valid window with no events.
	FaultTimeline []fault.Event
	// Resilience, when non-nil and non-zero, compiles the policy into
	// pre-bound event-kernel hooks at setup: per-attempt timeouts,
	// seeded-jitter retries, hedged requests, per-replica circuit
	// breakers, gateway failover and queue-depth shedding. All policy
	// randomness comes from per-request substreams derived from Seed
	// (internal/resilience), never from the engine streams — a policied
	// run sees the exact fault timeline the unpolicied run does, and a
	// policy-free run consumes zero extra randomness.
	Resilience *resilience.Policy
	// MaxParallel bounds the worker pool RunRepeated uses to execute its
	// independent seeded runs concurrently; 0 means GOMAXPROCS, 1 forces
	// sequential execution. A single Run ignores it (the discrete-event
	// kernel is single-threaded by design).
	MaxParallel int
	// Shards >= 2 runs THIS experiment on the sharded event kernel
	// (internal/sim/shard): the gateway classes become domain shards, the
	// replicas/backhaul a core shard, each with a private engine advancing
	// in conservative lookahead windows, executed by up to Shards workers
	// (and no more than GOMAXPROCS).
	// Requires a simulated Network. Output is a fixed-seed deterministic
	// function of the scenario and is bit-identical for every Shards >= 2
	// and every GOMAXPROCS — but it is a DIFFERENT deterministic family
	// than the sequential kernel (domain-partitioned RNG streams; see
	// sharded.go). Shards <= 1 keeps the sequential kernel, bit-identical
	// to a run without the field.
	Shards   int
	Seed     int64
	Hardware Hardware    // zero value -> Chifflot()
	Cal      Calibration // zero value -> DefaultCalibration()
}

func (o *RunOptions) fillDefaults() {
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Duration <= 0 {
		o.Duration = 1380
	}
	if o.Warmup <= 0 {
		o.Warmup = 60
	}
	if o.SampleInterval <= 0 {
		o.SampleInterval = 10
	}
	if o.Hardware == (Hardware{}) {
		o.Hardware = Chifflot()
	}
	if o.Cal.GPURate == 0 {
		o.Cal = DefaultCalibration()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Sample is one metric-collection snapshot (every 10 s in the paper).
// Utilizations and busy fractions average over replicas; power is summed.
type Sample struct {
	Time          float64
	RespTime      float64 // mean response time of requests completed in the window (NaN if none)
	Throughput    float64 // completions/s in the window
	CPUUtil       float64
	GPUUtil       float64 // delivered inference throughput / peak
	GPUPowerW     float64
	CPUPowerW     float64
	GPUMemGB      float64
	SysMemGB      float64
	HTTPBusy      float64
	DownloadBusy  float64
	ExtractBusy   float64
	SimsearchBusy float64
}

// Metrics aggregates an experiment, mirroring the quantities in the paper's
// Figures 3 and 8-11: user response time (mean ± std over samples), task
// processing times, resource usage, and pool busy fractions.
type Metrics struct {
	Config    PoolConfig
	Clients   int
	Replicas  int
	Duration  float64
	Completed int

	// UserResponseTime summarizes the per-sample window means, matching
	// the paper's "metric values collected every 10 seconds". In simulated
	// network mode it includes the network path; in analytical mode it is
	// engine-side only.
	UserResponseTime stats.Summary
	// RespP50/P95/P99 are per-request response-time percentiles over the
	// measured period (reservoir-estimated) — tail latency the paper's
	// means do not expose.
	RespP50, RespP95, RespP99 float64
	// Throughput is completions/s over the measured period.
	Throughput float64
	// TaskTimes summarizes each Table I step over completed requests.
	TaskTimes map[string]stats.Summary

	CPUUtil       stats.Summary
	GPUUtil       stats.Summary
	GPUPowerW     stats.Summary
	CPUPowerW     stats.Summary
	HTTPBusy      stats.Summary
	DownloadBusy  stats.Summary
	ExtractBusy   stats.Summary
	SimsearchBusy stats.Summary
	// GPUMemGB and SysMemGB are per-replica (per-node) footprints.
	GPUMemGB float64
	SysMemGB float64
	// EnergyPerRequestJ is the engine energy (CPU+GPU, all replicas)
	// divided by completed requests over the measured period, in Joules.
	EnergyPerRequestJ float64

	// NetDelivered / NetRetransmits count simulated-network payload
	// deliveries and loss-driven retransmissions across all links (zero in
	// analytical mode).
	NetDelivered   int64
	NetRetransmits int64

	// Outcomes counts the fault and resilience-policy outcomes.
	Outcomes
	// AvailabilityFraction is Completed/(Completed+FailedRequests), 1 when
	// nothing failed. Goodput is post-warmup completions/s whose user
	// response met the policy timeout (== Throughput when no timeout or no
	// policy) — completions that needed longer than the SLO, e.g. across
	// retries, do not count.
	AvailabilityFraction float64
	Goodput              float64

	Samples []Sample
	// Traces holds per-request task breakdowns when
	// RunOptions.TraceRequests > 0.
	Traces []RequestTrace
}

// Outcomes is the request-outcome taxonomy of a run, counted where each
// outcome happens and summed across a sharded run's engines.
type Outcomes struct {
	// Fault-injection outcomes (all zero when RunOptions.Faults is nil).
	// GatewayFailures counts in-flight requests failed by a departed
	// gateway (closed-loop clients retry through a live one immediately).
	// CrashRequeues counts requests rescued off a crashed replica and
	// requeued on a survivor after the seeded failover delay; their
	// response time includes the failover penalty. CrashFailures counts
	// requests lost because no replica survived. DroppedArrivals counts
	// open-loop arrivals dropped because no live gateway or replica could
	// accept them (closed-loop clients park instead and resume on the next
	// join/recovery).
	GatewayFailures int64
	CrashRequeues   int64
	CrashFailures   int64
	DroppedArrivals int64

	// FailedRequests counts terminal logical failures over the whole run
	// — attempts exhausted under a policy, or (in unpolicied faulted
	// runs) gateway failures, crash losses and dropped open-loop
	// arrivals.
	FailedRequests int64

	// Resilience-policy outcomes (all zero when RunOptions.Resilience is
	// nil). Retries counts re-dispatched attempts; RetrySuccesses, logical
	// requests that completed after at least one retry. Hedges counts
	// duplicate arms launched and HedgeWins the ones that beat their
	// primary. Rerouted counts failover re-routes off churned gateways
	// (both at submission and in flight, each paying the surviving uplink).
	// Shed counts arrivals rejected at the admission watermark,
	// BreakerOpens circuit-breaker open transitions, and DeadlineExceeded
	// attempts failed past their per-attempt deadline.
	Retries          int64
	RetrySuccesses   int64
	Hedges           int64
	HedgeWins        int64
	Rerouted         int64
	Shed             int64
	BreakerOpens     int64
	DeadlineExceeded int64
}

// Add adds x's counts to o.
func (o *Outcomes) Add(x Outcomes) {
	o.GatewayFailures += x.GatewayFailures
	o.CrashRequeues += x.CrashRequeues
	o.CrashFailures += x.CrashFailures
	o.DroppedArrivals += x.DroppedArrivals
	o.FailedRequests += x.FailedRequests
	o.Retries += x.Retries
	o.RetrySuccesses += x.RetrySuccesses
	o.Hedges += x.Hedges
	o.HedgeWins += x.HedgeWins
	o.Rerouted += x.Rerouted
	o.Shed += x.Shed
	o.BreakerOpens += x.BreakerOpens
	o.DeadlineExceeded += x.DeadlineExceeded
}

// RequestTrace is the task breakdown of one traced request.
type RequestTrace struct {
	// Start is the request submission time.
	Start float64
	// Response is the total user response time.
	Response float64
	// Tasks are the Table I step durations, in TaskNames order.
	Tasks [9]float64
}

// request tracks one identification query through the Table I pipeline.
// Nodes are owned by the engine's freelist and recycled after each
// completion, and every stage continuation is bound once per node (the
// closures read req.rep, which is reassigned on reuse) — so the steady-state
// request pipeline performs zero heap allocations: no request, no closure,
// no event, and (in simulated network mode) no transfer.
type request struct {
	e         *engine
	rep       *replica
	path      *gatewayPath // simulated network mode only
	hop       int          // next link index on the current direction
	start     float64
	taskStart float64
	tasks     [9]float64 // durations in TaskNames order

	// Fault-injection bookkeeping (only consulted when the run has a
	// fault schedule): the replica/gateway indices behind rep/path, the
	// request's slot in its replica's in-flight set (-1 when untracked),
	// and the pending bare stage timer (download, simsearch IO) a crash
	// must cancel — stale handles are inert, so it is never cleared.
	repIdx int32
	gw     int32
	ifIdx  int32
	timer  sim.Event

	// Resilience bookkeeping (only consulted when a policy is active).
	// A node is one ARM — an attempt in flight; the logical request is
	// the primary arm (pri == nil), which a hedge arm points back to.
	// rstate is the request's private SplitMix64 jitter substream,
	// prevDelay the decorrelated-backoff memory, deadline the absolute
	// per-attempt cutoff, and hedgeEv the pending hedge-launch timer
	// (generation-counted, so stale handles cancel inertly).
	rstate    uint64
	prevDelay float64
	deadline  float64
	attempts  int32
	arms      int32 // live arms of the logical request (primary only)
	won       bool  // logical completion latched (primary only)
	retried   bool  // at least one retry was dispatched (primary only)
	pri       *request
	hedgeEv   sim.Event

	// Sharded-kernel bookkeeping (only consulted when e.shRole != shNone;
	// see sharded.go): the cross-shard token correlating this arm's
	// up-crossing with its down-crossing, and — on the core — the domain
	// node the down-message answers to.
	shTok int64
	shSrc int32

	// Stage continuations, in pipeline order (bound once in bind).
	arrive, httpGranted, preDone, dlGranted, dlDone,
	exGranted, exDone, procDone, ssGranted, ssCPUDone,
	ssIODone, postDone, finish func()
	// Simulated-network continuations: next uplink hop, response-path
	// start, next downlink hop.
	netUp, netResp, netDown func()
	// Resilience continuations: retry redispatch and hedge launch
	// (bound once in bind, scheduled by the policy hooks).
	retryFn, hedgeFn func()
}

// bind builds the stage continuations. Each samples its service time at the
// same program point the pre-pooling pipeline did, so RNG consumption — and
// therefore every fixed-seed output — is bit-identical.
func (req *request) bind() {
	e := req.e
	req.httpGranted = func() {
		if e.resOn && e.grantGuard(req) {
			return
		}
		e.preProcess(req)
	}
	req.arrive = func() {
		if e.resOn && e.arriveGuard(req) {
			return
		}
		if e.faultsOn && !e.admit(req) {
			return
		}
		req.taskStart = e.sim.Now()
		req.rep.http.Request(req.httpGranted)
	}
	req.retryFn = func() { e.redispatch(req) }
	req.hedgeFn = func() { e.launchHedge(req) }
	req.dlGranted = func() { e.download(req) }
	req.preDone = func() {
		e.rec(req, 0) // pre-process
		req.rep.dl.Request(req.dlGranted)
	}
	req.exGranted = func() { e.extract(req) }
	req.dlDone = func() {
		req.rep.cpu.RemoveHold(e.cal.DownloadCPUWeight)
		req.rep.dl.Release()
		e.rec(req, 2) // download
		req.rep.ex.Request(req.exGranted)
	}
	req.procDone = func() {
		e.rec(req, 5) // process
		req.rep.ss.Request(req.ssGranted)
	}
	req.exDone = func() {
		req.rep.ex.Release()
		e.rec(req, 4) // extract
		req.rep.cpu.Add(e.cal.ProcessWork.Sample(e.rng), 1, req.procDone)
	}
	req.ssGranted = func() { e.simsearch(req) }
	req.ssIODone = func() {
		req.rep.ss.Release()
		e.rec(req, 7) // simsearch
		req.rep.cpu.Add(e.cal.PostProcessWork.Sample(e.rng), 1, req.postDone)
	}
	req.ssCPUDone = func() {
		req.timer = e.sim.Schedule(e.cal.SimsearchIOTime.Sample(e.rng), req.ssIODone)
	}
	req.postDone = func() {
		e.rec(req, 8) // post-process
		if e.faultsOn {
			e.untrack(req) // the response has left the replica
		}
		req.rep.http.Release()
		e.complete(req)
	}
	req.finish = func() {
		if e.resOn {
			e.finishResilient(req)
			return
		}
		e.record(req.start, &req.tasks)
		// Recycle before resubmitting so a closed-loop client reuses its
		// own node immediately.
		e.freeReqs = append(e.freeReqs, req)
		if !e.openLoop {
			e.submit()
		}
	}
}

// bindNet builds the network-stage continuations. They are bound lazily —
// on a node's first simulated-network use, not in bind — so analytical
// runs pay nothing for them; once bound they survive recycling and runner
// reuse like every other stage closure. Kept out of line so its cold-path
// closure allocations are not re-attributed to the //simlint:noalloc
// submission paths that call it.
//
//go:noinline
func (req *request) bindNet() {
	e := req.e
	req.netUp = func() {
		if e.resOn && e.lateArm(req) || e.churned(req, req.netUp) {
			return
		}
		if req.hop < len(req.path.up) {
			l := req.path.up[req.hop]
			req.hop++
			l.Transfer(e.net.upBytes, req.netUp)
			return
		}
		if e.shRole != shNone {
			// Sharded: the client->replica half-RTT is carried by the
			// cross-shard crossing, not a local schedule. A domain engine
			// finished its own uplink and hands the arm to the core; the
			// core engine finished the backhaul and the request arrives.
			if e.shRole == shDomain {
				e.domainCrossUp(req)
			} else {
				req.arrive()
			}
			return
		}
		e.sim.Schedule(e.cal.NetworkRTT/2, req.arrive)
	}
	req.netDown = func() {
		// The deadline is not re-checked once service completed: a late
		// response still completes (it just misses the goodput SLO).
		if e.resOn && e.dropLoser(req) || e.churned(req, req.netDown) {
			return
		}
		if req.hop < len(req.path.down) {
			l := req.path.down[req.hop]
			req.hop++
			l.Transfer(e.net.downBytes, req.netDown)
			return
		}
		if e.shRole == shCore {
			// The response leaves the core: cross back to the owning
			// domain, which walks its own downlink and finishes.
			e.coreCrossDown(req)
			return
		}
		req.finish()
	}
	req.netResp = func() {
		req.hop = 0
		req.netDown()
	}
}

// replica is one engine instance on one node: its own pools, CPU and GPU.
// inflight tracks the requests currently inside the replica (arrive to
// postDone) when a fault schedule is active, so a crash can requeue
// exactly the affected work.
type replica struct {
	cpu      *sim.SharedResource
	gpu      *sim.SharedResource
	http     *sim.Pool
	dl       *sim.Pool
	ex       *sim.Pool
	ss       *sim.Pool
	inflight []*request
}

// engine wires the replicas and runs the pipeline. One engine is reused
// across the runs of a Runner: everything per-run is reset in
// Runner.prepare, while the simulation arena, resource freelists, request
// nodes (with their bound closures), RNGs, and the response reservoir
// survive — which is what cuts the per-run setup allocations.
type engine struct {
	sim    *sim.Engine
	rng    *rand.Rand
	resRng *rand.Rand // reservoir stream, re-seeded per run
	netRng *rand.Rand // link loss stream, re-seeded per run
	cal    Calibration
	hw     Hardware
	reps   []*replica
	next   int // round-robin client-to-replica assignment

	net      *netState     // nil in analytical mode
	netModel *NetworkModel // model net was built from (cache key)
	nextGw   int           // round-robin client-to-gateway assignment

	// Fault-injection state (see fault.go). faultsOn gates every hot-path
	// check so non-faulted runs take exactly the branches they always did.
	faultsOn     bool
	faultEvents  []fault.Event // compiled timeline (buffer reused across runs)
	faultCursor  int
	faultStepFn  func()     // bound once per engine
	faultRng     *rand.Rand // failover-delay stream, re-seeded per run
	gwDown       []bool
	repDown      []bool
	gwDownCount  int
	repDownCount int
	parked       int     // closed-loop clients waiting for capacity to return
	extractHold  float64 // per-replica pinned CPU hold, re-added on recovery

	// Resilience-policy state (see resilience.go). resOn gates every
	// hot-path check, mirroring faultsOn, so policy-free runs take
	// exactly the branches — and consume exactly the randomness — they
	// always did. The flattened policy fields avoid pointer chasing on
	// the request hot path.
	resOn         bool
	resTimeout    float64 // per-attempt deadline; +Inf when unset
	resRetryMax   int32
	resRetryBase  float64
	resRetryCap   float64
	resHedgeOn    bool
	resHedgeQ     float64
	resHedgeDelay float64 // current hedge-launch delay; +Inf = dormant
	resBrkThresh  int32
	resBrkOpen    float64
	resFailover   bool
	resShedDepth  int
	resSeedBase   uint64 // per-run base of the request jitter substreams
	resSerial     uint64
	brkFails      []int32
	brkState      []uint8
	brkUntil      []float64
	gwClass       []int32 // gateway -> network-class index (failover)
	classLo       []int32 // class -> first gateway index
	classHi       []int32 // class -> one past last gateway index

	out      Outcomes // this engine's share of the run's outcome counters
	goodDone int64    // completions within the policy timeout (SLO)

	// Sharded-kernel state (see sharded.go). shRole is shNone on the
	// sequential kernel; every hot-path branch below is gated on it so
	// sequential runs take exactly the branches they always did. A domain
	// engine owns one gateway class and its clients; the core engine owns
	// the replicas and the backhaul. Crossing latencies are the halves of
	// the client<->replica path that the cross-shard message itself
	// travels (at least the window width, by construction).
	shRole     uint8
	shCoreID   int32         // domain: node index of the core shard
	shRepCount int32         // domain: mirrored replica count (e.reps is empty)
	shDomGw0   int32         // domain: global index of this domain's first gateway
	shUpLat    float64       // domain->core crossing latency
	shDownLat  float64       // core->domain crossing latency
	shOut      *shard.Outbox // current window's outbox (set per Advance)
	shArms     []*request    // domain: token -> arm awaiting its down-message
	shArmFree  []int32       // domain: free token slots
	shTokRep   [][]int32     // core: [domain][token] -> replica index + 1
	shSlots    []*shSlot     // every inbox slot ever built (refills the freelist)
	shSlotFree []*shSlot

	openLoop   bool
	warmup     float64
	warmupDone bool
	completed  int
	traceN     int
	traces     []RequestTrace
	tickFn     func()           // sampleTick, bound once per engine
	coreRows   []coreRow        // per-tick replica integrals (where the replicas live)
	domRows    []domRow         // per-tick completion windows (where the clients live)
	windowResp stats.Welford    // responses completed in current sample window
	respRes    *stats.Reservoir // per-request response times, post-warmup
	qScratch   []float64        // reused quantile output buffer (see Reservoir.Quantiles)
	taskAgg    [9]stats.Welford
	freeReqs   []*request // recycled request nodes (closures pre-bound)
	allReqs    []*request // every node ever built, to refill freeReqs on reset
}

// newRequest takes a node from the freelist (or builds and binds a fresh
// one) and points it at replica idx; a domain shard passes -1, since the
// core picks the replica when the arm crosses.
//
//simlint:noalloc steady-state submission reuses freelist nodes; the cold branch is the refill point
func (e *engine) newRequest(idx int) *request {
	var req *request
	if n := len(e.freeReqs); n > 0 {
		req = e.freeReqs[n-1]
		e.freeReqs = e.freeReqs[:n-1]
	} else {
		req = e.newNode() //simlint:allow noallocclosure freelist refill is the sanctioned cold path; steady state pops pooled nodes above
	}
	req.rep = nil
	if idx >= 0 {
		req.rep = e.reps[idx]
	}
	req.repIdx = int32(idx)
	req.start = e.sim.Now()
	req.tasks = [9]float64{}
	req.ifIdx = -1
	req.shTok = -1 // no crossing yet (a hedge may reference its primary's token)
	if e.resOn {
		e.initArm(req)
	}
	return req
}

// newNode is the freelist refill: a fresh node with its stage
// continuations bound once. Kept out of line so newRequest's steady state
// stays provably allocation-free.
//
//go:noinline
func (e *engine) newNode() *request {
	req := &request{e: e}
	req.bind()
	e.allReqs = append(e.allReqs, req)
	return req
}

// Runner executes engine experiments, recycling the simulation engine,
// replicas, pools, samplers' RNGs, the response reservoir, and the request
// freelist across runs — the per-run setup cost that dominated
// RunRepeated's allocation profile. A Runner is NOT safe for concurrent
// use; RunRepeated gives each of its workers a private one. Every run's
// output is bit-identical to a run on a fresh Runner (the reset is
// complete), which the golden and repeat-determinism tests enforce.
type Runner struct {
	e *engine
	// sh holds the pooled sharded-kernel machinery (per-shard engines,
	// coordinator, derived network models) when Shards >= 2 is used; nil
	// otherwise. See sharded.go.
	sh *shardedState
}

// NewRunner returns an empty Runner; the first Run populates it.
func NewRunner() *Runner { return &Runner{} }

// Run executes one experiment and returns its metrics.
func Run(opts RunOptions) (*Metrics, error) {
	return NewRunner().Run(opts)
}

// Run executes one experiment on the runner's pooled state.
func (r *Runner) Run(opts RunOptions) (*Metrics, error) {
	opts.fillDefaults()
	if opts.Duration <= opts.Warmup {
		// Every sample would fall inside the warmup: the run would measure
		// nothing and report a NaN mean.
		return nil, fmt.Errorf("plantnet: a %g s run ends inside its %g s warmup and measures nothing; raise Duration or lower Warmup",
			opts.Duration, opts.Warmup)
	}
	if err := opts.Pools.Validate(); err != nil {
		return nil, err
	}
	if opts.Clients < 1 && opts.OpenLoopRate <= 0 && opts.Arrivals == nil {
		return nil, fmt.Errorf("plantnet: need at least one client, a positive OpenLoopRate, or an Arrivals profile")
	}
	if opts.Arrivals != nil {
		if err := opts.Arrivals.Validate(); err != nil {
			return nil, err
		}
	}
	if opts.Network != nil {
		if err := opts.Network.Validate(); err != nil {
			return nil, err
		}
	}
	if opts.Shards >= 2 {
		return r.runSharded(opts)
	}
	r.e = prepareEngine(r.e, opts)
	return r.e.run(opts)
}

// prepareEngine builds an engine on first use (nil e) and resets it on
// every subsequent run; the sharded runner prepares one engine per shard
// from role-specific options. The reset is exhaustive: clock, arena, RNG
// streams, reservoir, resources, request nodes, links, and aggregation
// state all return to the fresh-construction state, so a reused engine's
// run is bit-identical to a fresh one. Construction performs no RNG draws,
// so build/reuse ordering cannot perturb determinism.
func prepareEngine(e *engine, opts RunOptions) *engine {
	if e == nil {
		e = &engine{
			sim:    sim.NewEngine(),
			rng:    rngutil.New(opts.Seed),
			resRng: rngutil.New(opts.Seed + 101),
		}
		e.respRes = stats.NewReservoir(8192, e.resRng)
	} else {
		e.sim.Reset()
		e.rng.Seed(opts.Seed)
		e.resRng.Seed(opts.Seed + 101)
		e.respRes.Reset()
		// Every request node becomes reusable after the calendar reset,
		// including the ones that were in flight when the last run ended.
		e.freeReqs = append(e.freeReqs[:0], e.allReqs...)
		e.next, e.nextGw = 0, 0
		e.openLoop, e.warmupDone = false, false
		e.completed = 0
		e.traces = nil // the previous run's Metrics owns its slice
		e.windowResp = stats.Welford{}
		e.taskAgg = [9]stats.Welford{}
		e.coreRows, e.domRows = e.coreRows[:0], e.domRows[:0]
	}
	if e.tickFn == nil {
		e.tickFn = e.sampleTick
	}
	e.warmup = opts.Warmup
	e.cal, e.hw = opts.Cal, opts.Hardware
	e.traceN = opts.TraceRequests
	e.extractHold = opts.Cal.ExtractThreadCPU * float64(opts.Pools.Extract)
	e.faultsOn = !opts.Faults.IsZero() || opts.FaultTimeline != nil
	e.faultCursor, e.parked = 0, 0
	e.gwDownCount, e.repDownCount = 0, 0
	e.resOn = !opts.Resilience.IsZero()
	e.resSerial = 0
	e.out, e.goodDone = Outcomes{}, 0
	// Role state returns to the sequential kernel's; the sharded runner
	// re-establishes roles after preparing each shard's engine.
	e.shRole, e.shOut = shNone, nil

	cal, hw := opts.Cal, opts.Hardware
	gpuRate := func(k float64) float64 {
		if k <= 0 {
			return 0
		}
		rate := cal.GPURate * min(k, cal.GPUSatConcurrency) / cal.GPUSatConcurrency
		if over := k - cal.GPUSatConcurrency; over > 0 {
			rate /= 1 + cal.GPUOversubPenalty*over
		}
		return rate
	}
	if len(e.reps) == opts.Replicas {
		for _, rep := range e.reps {
			rep.cpu.Reset(hw.CPUCores, sim.CPURate(hw.CPUCores))
			rep.gpu.Reset(cal.GPURate, gpuRate)
			rep.http.Reset(opts.Pools.HTTP)
			rep.dl.Reset(opts.Pools.Download)
			rep.ex.Reset(opts.Pools.Extract)
			rep.ss.Reset(opts.Pools.Simsearch)
			rep.cpu.AddHold(cal.ExtractThreadCPU * float64(opts.Pools.Extract))
			for i := range rep.inflight {
				rep.inflight[i] = nil
			}
			rep.inflight = rep.inflight[:0]
		}
	} else {
		e.reps = e.reps[:0]
		for i := 0; i < opts.Replicas; i++ {
			rep := &replica{
				cpu:  sim.NewCPU(e.sim, hw.CPUCores),
				gpu:  sim.NewSharedResource(e.sim, cal.GPURate, gpuRate),
				http: sim.NewPool(e.sim, "http", opts.Pools.HTTP),
				dl:   sim.NewPool(e.sim, "download", opts.Pools.Download),
				ex:   sim.NewPool(e.sim, "extract", opts.Pools.Extract),
				ss:   sim.NewPool(e.sim, "simsearch", opts.Pools.Simsearch),
			}
			// Pinned per-extract-worker CPU overhead (busy polling, marshaling).
			rep.cpu.AddHold(cal.ExtractThreadCPU * float64(opts.Pools.Extract))
			e.reps = append(e.reps, rep)
		}
	}

	if opts.Network != nil {
		if e.netRng == nil {
			e.netRng = rngutil.New(opts.Seed + 211)
		} else {
			e.netRng.Seed(opts.Seed + 211)
		}
		if e.net != nil && e.netModel == opts.Network {
			e.net.reset()
		} else {
			e.net = buildNetState(e.sim, opts.Network, e.netRng)
			e.netModel = opts.Network
		}
	} else {
		e.net, e.netModel = nil, nil
	}
	return e
}

// run executes the experiment on a prepared engine. It is the sequential
// family of the shared run driver: one engine is both the core and the
// only domain.
func (e *engine) run(opts RunOptions) (*Metrics, error) {
	if e.faultsOn {
		var err error
		if e.faultEvents, err = loadFaults(e.faultEvents, opts); err != nil {
			return nil, err
		}
	}
	if err := e.start(opts, e.faultEvents, openRate(opts), opts.Clients); err != nil {
		return nil, err
	}
	e.sim.Run(opts.Duration)
	doms := [1]*engine{e}
	return finalize(opts, e, doms[:], false), nil
}

// start places one engine's share of a run on its calendar: fault events
// first, so at any shared instant (even t=0, where a windowed phase carries
// crashed/churned state in) they fire before any arrival or sampler tick
// and no same-instant pipeline event slips in between — what makes the
// crash/churn handlers sound. Then the policy, arrivals and sampler ticks.
func (e *engine) start(opts RunOptions, faults []fault.Event, rate float64, clients int) error {
	if e.faultsOn {
		e.installFaults(faults, opts.Seed)
	}
	if e.resOn {
		if err := e.setupResilience(opts); err != nil {
			return err
		}
	}
	e.startArrivals(opts, rate, clients)
	// One shared tick closure for every sampling instant: At stores the
	// exact tick time and Now() returns it bit-for-bit inside the event.
	for t := opts.SampleInterval; t <= opts.Duration+1e-9; t += opts.SampleInterval {
		e.sim.At(t, e.tickFn)
	}
	return nil
}

// openRate is the run's open-loop rate: the thinning envelope of an
// Arrivals profile, else OpenLoopRate (0 for closed-loop runs).
func openRate(opts RunOptions) float64 {
	if opts.Arrivals != nil {
		return opts.Arrivals.Max()
	}
	return opts.OpenLoopRate
}

// startArrivals starts the engine's share of the workload. Open-loop
// candidates arrive as a Poisson process at rate, the caller's already
// scaled share of openRate (a sequential run passes it unscaled: lmax*G/G
// need not round back to lmax); an Arrivals profile thins them against the
// global envelope (Lewis-Shedler, the accept draw before the gap draw).
// Closed-loop clients each keep one request in flight, staggered over the
// first seconds to avoid lockstep.
func (e *engine) startArrivals(opts RunOptions, rate float64, clients int) {
	se := e.sim
	var arrive func()
	switch {
	case opts.Arrivals != nil:
		rates, lmax := opts.Arrivals, opts.Arrivals.Max()
		arrive = func() {
			if e.rng.Float64()*lmax < rates.At(se.Now()) {
				e.submit()
			}
			se.Schedule(e.rng.ExpFloat64()/rate, arrive)
		}
	case opts.OpenLoopRate > 0:
		arrive = func() {
			e.submit()
			se.Schedule(e.rng.ExpFloat64()/rate, arrive)
		}
	default:
		for i := 0; i < clients; i++ {
			se.Schedule(e.rng.Float64()*2, e.submit)
		}
		return
	}
	e.openLoop = true
	se.Schedule(e.rng.ExpFloat64()/rate, arrive)
}

// coreRow is one tick's cumulative replica integrals, recorded where the
// replicas live; domRow one tick's completion window, recorded where the
// clients live. finalize turns them into Samples.
type coreRow struct {
	t                          float64
	cpuW, gpuW, hB, dB, xB, sB float64
}

type domRow struct {
	resp      stats.Welford
	completed int
	good      int64
}

// sampleTick records the engine's sampler rows for its role (a sequential
// engine records both) and flips the warmup latch.
func (e *engine) sampleTick() {
	now := e.sim.Now()
	if e.shRole != shDomain {
		row := coreRow{t: now}
		for _, rep := range e.reps {
			row.cpuW += rep.cpu.WorkIntegral()
			row.gpuW += rep.gpu.WorkIntegral()
			row.hB += rep.http.BusyIntegral()
			row.dB += rep.dl.BusyIntegral()
			row.xB += rep.ex.BusyIntegral()
			row.sB += rep.ss.BusyIntegral()
		}
		e.coreRows = append(e.coreRows, row)
	}
	if e.shRole != shCore {
		e.domRows = append(e.domRows, domRow{resp: e.windowResp, completed: e.completed, good: e.goodDone})
		e.windowResp = stats.Welford{}
		e.refreshHedgeDelay()
	}
	if now > e.warmup {
		e.warmupDone = true
	}
}

// refreshHedgeDelay re-derives an adaptive hedge's launch threshold from
// the live post-warmup response distribution once enough samples
// accumulated (cold path, once per sample interval).
func (e *engine) refreshHedgeDelay() {
	if e.resOn && e.resHedgeQ > 0 && e.respRes.N() >= resilience.HedgeMinSamples {
		e.qScratch = e.respRes.Quantiles(e.qScratch[:0], e.resHedgeQ)
		e.resHedgeDelay = e.qScratch[0]
	}
}

// finalize turns the recorded sampler rows, counters, reservoirs and traces
// into Metrics. core recorded the replica integrals and domains the
// completion windows; a sequential run passes its one engine as both.
// Windows merge in domain order, and Welford.Merge into an empty
// accumulator is a plain copy, so a lone domain keeps its bits. It walks
// the rows actually recorded: a tick scheduled in the 1e-9 slack past
// Duration never fires. sharded selects the sharded family: the core is
// an engine of its own, and percentiles and traces merge across domains.
func finalize(opts RunOptions, core *engine, domains []*engine, sharded bool) *Metrics {
	m := &Metrics{Config: opts.Pools, Clients: opts.Clients, Replicas: opts.Replicas,
		Duration: opts.Duration, TaskTimes: make(map[string]stats.Summary)}
	cal, hw, pools := opts.Cal, opts.Hardware, opts.Pools
	nRep := float64(opts.Replicas)
	m.GPUMemGB = cal.GPUMemGB(pools)
	m.SysMemGB = cal.SysMemGB(pools)
	var (
		last                              coreRow
		respW, cpuW, gpuW, hB, dB, xB, sB stats.Welford
		gpuPW, cpuPW                      stats.Welford
		energyJ, measStartT               float64
		measStartCompleted                int
		measStartGood                     int64
		warm                              bool
	)
	for i, row := range core.coreRows {
		dt := row.t - last.t
		s := Sample{Time: row.t, GPUMemGB: m.GPUMemGB, SysMemGB: m.SysMemGB}
		s.CPUUtil = (row.cpuW - last.cpuW) / (hw.CPUCores * nRep * dt)
		s.GPUUtil = (row.gpuW - last.gpuW) / (cal.GPURate * nRep * dt)
		// Power sums over replicas (nodes); utilizations are averages.
		s.GPUPowerW = (cal.GPUIdlePowerW + cal.GPUPowerSlopeW*s.GPUUtil) * nRep
		s.CPUPowerW = (cal.CPUIdlePowerW + cal.CPUPowerSlopeW*s.CPUUtil) * nRep
		s.HTTPBusy = (row.hB - last.hB) / (float64(pools.HTTP) * nRep * dt)
		s.DownloadBusy = (row.dB - last.dB) / (float64(pools.Download) * nRep * dt)
		s.ExtractBusy = (row.xB - last.xB) / (float64(pools.Extract) * nRep * dt)
		s.SimsearchBusy = (row.sB - last.sB) / (float64(pools.Simsearch) * nRep * dt)
		last = row
		var w stats.Welford
		completed, good := 0, int64(0)
		for _, de := range domains {
			dr := &de.domRows[i]
			w.Merge(dr.resp)
			completed += dr.completed
			good += dr.good
		}
		s.RespTime = math.NaN()
		if w.N() > 0 {
			s.RespTime = w.Mean()
			s.Throughput = float64(w.N()) / dt
		}
		if row.t <= opts.Warmup {
			continue
		}
		if !warm {
			// The first post-warmup tick opens the measured period.
			warm = true
			measStartT, measStartCompleted, measStartGood = row.t, completed, good
			continue
		}
		if !math.IsNaN(s.RespTime) {
			respW.Add(s.RespTime)
		}
		cpuW.Add(s.CPUUtil)
		gpuW.Add(s.GPUUtil)
		gpuPW.Add(s.GPUPowerW)
		cpuPW.Add(s.CPUPowerW)
		energyJ += (s.GPUPowerW + s.CPUPowerW) * dt
		hB.Add(s.HTTPBusy)
		dB.Add(s.DownloadBusy)
		xB.Add(s.ExtractBusy)
		sB.Add(s.SimsearchBusy)
		m.Samples = append(m.Samples, s)
	}
	m.UserResponseTime = respW.Snapshot()
	m.CPUUtil = cpuW.Snapshot()
	m.GPUUtil = gpuW.Snapshot()
	m.GPUPowerW = gpuPW.Snapshot()
	m.CPUPowerW = cpuPW.Snapshot()
	m.HTTPBusy = hB.Snapshot()
	m.DownloadBusy = dB.Snapshot()
	m.ExtractBusy = xB.Snapshot()
	m.SimsearchBusy = sB.Snapshot()

	var good int64
	for _, de := range domains {
		m.Completed += de.completed
		good += de.goodDone
		m.addCounters(de)
	}
	if sharded {
		m.addCounters(core)
	}
	if measured := m.Completed - measStartCompleted; measured > 0 {
		m.EnergyPerRequestJ = energyJ / float64(measured)
	}
	span := opts.Duration - measStartT
	if span > 0 && warm {
		m.Throughput = float64(m.Completed-measStartCompleted) / span
	}
	m.Goodput = m.Throughput
	if core.resOn {
		m.Goodput = 0
		if span > 0 && warm {
			m.Goodput = float64(good-measStartGood) / span
		}
	}
	m.AvailabilityFraction = 1
	if tot := int64(m.Completed) + m.FailedRequests; tot > 0 {
		m.AvailabilityFraction = float64(int64(m.Completed)) / float64(tot)
	}
	for i, name := range TaskNames {
		var w stats.Welford
		w.Merge(core.taskAgg[i])
		if sharded {
			for _, de := range domains {
				w.Merge(de.taskAgg[i])
			}
		}
		m.TaskTimes[name] = w.Snapshot()
	}
	if sharded {
		m.mergePercentiles(domains)
		m.Traces = mergeTraces(domains, opts.TraceRequests)
	} else {
		if core.respRes.N() > 0 {
			core.qScratch = core.respRes.Quantiles(core.qScratch[:0], 0.50, 0.95, 0.99)
			m.RespP50, m.RespP95, m.RespP99 = core.qScratch[0], core.qScratch[1], core.qScratch[2]
		}
		m.Traces = core.traces
	}
	return m
}

// addCounters adds one engine's link and outcome counters to m.
func (m *Metrics) addCounters(e *engine) {
	if e.net != nil {
		for _, l := range e.net.links {
			m.NetDelivered += l.Delivered()
			m.NetRetransmits += l.Retransmits()
		}
	}
	m.Outcomes.Add(e.out)
}

// submit issues one request, assigned round-robin to a replica (and, in
// simulated network mode, to a gateway), and re-submits on completion
// (closed loop). Under a fault schedule or a resilience policy the
// round-robin is managed: dead replicas, departed gateways and open
// circuit breakers are skipped, and arms are deadline/hedge-armed. With
// nothing alive the arrival is dropped (open loop) or the client parks
// until the next join or recovery drains it. A domain shard picks no
// replica: the core does that when the arm crosses. The replica is picked
// before the gateway gate, so a dropped arrival still advances the
// replica round-robin.
//
//simlint:noalloc steady-state submission reuses freelist nodes and pre-bound closures
func (e *engine) submit() {
	if e.noReplica() {
		e.dropArrival()
		return
	}
	idx := -1
	if e.shRole != shDomain {
		idx = e.pickReplica()
	}
	if e.noGateway() {
		e.dropArrival()
		return
	}
	e.dispatchArm(e.newRequest(idx))
}

// record accounts one logical completion of a request submitted at start
// and returns its response time.
//
//simlint:noalloc completion accounting (request hot path)
func (e *engine) record(start float64, tasks *[9]float64) float64 {
	e.completed++
	resp := e.sim.Now() - start
	e.windowResp.Add(resp)
	if e.warmupDone {
		e.respRes.Add(resp)
		if len(e.traces) < e.traceN {
			e.traces = append(e.traces, RequestTrace{Start: start, Response: resp, Tasks: *tasks})
		}
	}
	return resp
}

// rec records the duration of task idx and resets the task clock.
func (e *engine) rec(req *request, idx int) {
	now := e.sim.Now()
	req.tasks[idx] = now - req.taskStart
	req.taskStart = now
	if e.warmupDone {
		e.taskAgg[idx].Add(req.tasks[idx])
	}
}

// The pipeline below follows Table I exactly; each stage records its
// duration then chains to the next.

func (e *engine) preProcess(req *request) {
	// HTTP slot acquired; queueing before this point is part of the user
	// response time but not a Table I step.
	req.taskStart = e.sim.Now()
	req.rep.cpu.Add(e.cal.PreProcessWork.Sample(e.rng), 1, req.preDone)
}

func (e *engine) download(req *request) {
	e.rec(req, 1) // wait-download
	req.rep.cpu.AddHold(e.cal.DownloadCPUWeight)
	req.timer = e.sim.Schedule(e.cal.DownloadTime.Sample(e.rng), req.dlDone)
}

func (e *engine) extract(req *request) {
	e.rec(req, 3) // wait-extract
	req.rep.gpu.Add(e.cal.ExtractWork.Sample(e.rng), 1, req.exDone)
}

func (e *engine) simsearch(req *request) {
	e.rec(req, 6) // wait-simsearch
	req.rep.cpu.Add(e.cal.SimsearchCPUWork.Sample(e.rng), 1, req.ssCPUDone)
}

func (e *engine) complete(req *request) {
	// Engine -> client network half-RTT, then (in simulated network mode)
	// the response path hop by hop; the client sees the response and
	// immediately issues the next request.
	if e.net != nil {
		if e.shRole == shCore {
			// Sharded: the engine->client half-RTT is paid by the
			// core->domain crossing at the end of the backhaul walk.
			req.netResp()
			return
		}
		e.sim.Schedule(e.cal.NetworkRTT/2, req.netResp)
		return
	}
	e.sim.Schedule(e.cal.NetworkRTT/2, req.finish)
}
