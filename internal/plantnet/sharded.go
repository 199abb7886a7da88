package plantnet

// Sharded event kernel: one experiment partitioned over internal/sim/shard.
//
// The decomposition is two-tier. Each gateway CLASS becomes a domain shard
// owning its clients, its per-gateway uplink/downlink links, its RNG
// streams, churn bookkeeping and resilience arming; one core shard owns the
// replicas (pools, CPU, GPU), the shared backhaul, circuit breakers,
// shedding and crash/requeue handling. A request's life is: domain walks its
// own uplink, crosses to the core (an up-message paying the client->replica
// half-RTT plus any hoisted backhaul propagation), the core walks the
// backhaul and runs the Table I pipeline, then crosses back (a down-message
// paying the reverse half) and the domain walks its own downlink and
// finishes. Every up-message produces exactly one down-message (msgDone or
// msgFail), which is what lets the domain own the logical request (win
// latch, retries, hedging, client resubmission) while the core owns the
// attempt.
//
// Determinism: the coordinator delivers cross-shard messages in (At, Src,
// Seq) order at window barriers, so output is a fixed-seed deterministic
// function of the scenario — bit-identical for every Shards >= 2 and every
// GOMAXPROCS. It is, however, a DIFFERENT deterministic family than the
// sequential kernel: each domain draws arrivals and link loss from its own
// seeded streams (rngutil.NewSeeder(Seed+401)), the core picks the replica
// when the crossing arrives (not when the client submits), breaker success
// resets on every core completion, hedge losers run to their natural end on
// the core (the domain win-latch discards them), and hoisted backhaul
// propagation is paid in the crossing rather than on the link (retransmits
// re-pay bandwidth but not propagation). Shards <= 1 never reaches this
// file and stays byte-for-byte the sequential kernel.

import (
	"fmt"
	"math"
	"sort"

	"e2clab/internal/fault"
	"e2clab/internal/netem"
	"e2clab/internal/rngutil"
	"e2clab/internal/sim/shard"
)

// Engine roles in a sharded run.
const (
	shNone uint8 = iota
	shDomain
	shCore
)

// Cross-shard message opcodes (Msg.Kind).
const (
	msgUp      int32 = iota + 1 // domain -> core: dispatch one arm (Ref = global gateway, Token = arm token, F0 = deadline)
	msgUpHedge                  // as msgUp, for a hedge arm (Token2 = primary's token, for the avoid-replica hint)
	msgDone                     // core -> domain: the arm completed (Vec = task breakdown)
	msgFail                     // core -> domain: the arm failed on the core side
)

// shWindowShrink keeps the window width strictly below the minimum crossing
// latency, so a message emitted at the very first instant of a run (or at a
// window's open boundary) is still due strictly after the window ends.
const shWindowShrink = 1 - 1.0/(1<<20)

// shSlot is one in-flight inbox delivery: the message value and a bound
// continuation that applies it. Slots are pooled per engine so the window
// loop applies messages without allocating.
type shSlot struct {
	m  shard.Msg
	fn func()
}

// shSlotGet pops a free slot or builds one (the sanctioned cold-path
// allocation, mirroring newRequest's freelist refill).
//
//simlint:noalloc steady-state delivery reuses pooled slots; the cold branch is the refill point
func (e *engine) shSlotGet() *shSlot {
	if n := len(e.shSlotFree); n > 0 {
		s := e.shSlotFree[n-1]
		e.shSlotFree = e.shSlotFree[:n-1]
		return s
	}
	return e.shSlotNew() //simlint:allow noallocclosure freelist refill is the sanctioned cold path; steady state pops pooled slots above
}

// shSlotNew is the freelist refill: a new slot with its apply continuation
// bound once. Kept out of line so shSlotGet's steady state stays provably
// allocation-free.
//
//go:noinline
func (e *engine) shSlotNew() *shSlot {
	s := &shSlot{}
	s.fn = func() {
		e.applyMsg(&s.m)
		e.shSlotFree = append(e.shSlotFree, s)
	}
	e.shSlots = append(e.shSlots, s)
	return s
}

// shardNode adapts an engine to shard.Node: apply the window's inbox at the
// stamped delivery times, then advance the private engine to the barrier.
type shardNode struct{ e *engine }

func (n shardNode) Advance(until float64, inbox []shard.Msg, out *shard.Outbox) {
	e := n.e
	e.shOut = out
	for i := range inbox {
		s := e.shSlotGet()
		s.m = inbox[i]
		e.sim.At(s.m.At, s.fn)
	}
	e.sim.Run(until)
}

// applyMsg dispatches one delivered cross-shard message.
//
//simlint:noalloc cross-shard message dispatch (request hot path)
func (e *engine) applyMsg(m *shard.Msg) {
	switch m.Kind {
	case msgUp, msgUpHedge:
		e.coreArrive(m)
	case msgDone, msgFail:
		e.domainResolve(m)
	}
}

// shArmPut parks an arm awaiting its down-message and returns its token.
//
//simlint:noalloc token table reuses freelist slots (request hot path)
func (e *engine) shArmPut(req *request) int64 {
	if n := len(e.shArmFree); n > 0 {
		t := e.shArmFree[n-1]
		e.shArmFree = e.shArmFree[:n-1]
		e.shArms[t] = req
		return int64(t)
	}
	e.shArms = append(e.shArms, req)
	return int64(len(e.shArms) - 1)
}

// setTokRep records which replica the core bound to a domain's token, so a
// later hedge crossing can prefer a different one.
//
//simlint:noalloc token->replica table reuses per-domain buffers (request hot path)
func (e *engine) setTokRep(src int32, tok int64, idx int32) {
	s := e.shTokRep[src]
	for int64(len(s)) <= tok {
		s = append(s, 0)
	}
	s[tok] = idx + 1
	e.shTokRep[src] = s
}

// tokRep returns the replica bound to (src, tok), or -1.
//
//simlint:noalloc token->replica lookup (request hot path)
func (e *engine) tokRep(src int32, tok int64) int32 {
	if tok < 0 {
		return -1
	}
	s := e.shTokRep[src]
	if tok >= int64(len(s)) {
		return -1
	}
	return s[tok] - 1
}

//simlint:noalloc token->replica clear (request hot path)
func (e *engine) clearTokRep(src int32, tok int64) {
	if s := e.shTokRep[src]; tok >= 0 && tok < int64(len(s)) {
		s[tok] = 0
	}
}

// domainCrossUp hands an arm that finished its own uplink to the core. The
// crossing itself pays the client->replica half-RTT (plus any hoisted
// backhaul propagation); the arm parks in the token table until its
// down-message.
//
//simlint:noalloc cross-shard emission reuses outbox buffers (request hot path)
func (e *engine) domainCrossUp(req *request) {
	tok := e.shArmPut(req)
	req.shTok = tok
	m := shard.Msg{
		At:    e.sim.Now() + e.shUpLat,
		Kind:  msgUp,
		Ref:   e.shDomGw0 + req.gw,
		Token: tok,
	}
	if e.resOn {
		m.F0 = req.deadline
		if req.pri != nil {
			m.Kind = msgUpHedge
			m.Token2 = req.pri.shTok
		}
	}
	e.shOut.Send(e.shCoreID, m)
}

// domainResolve applies a down-message: the parked arm resumes with the
// core's outcome. The domain owns the logical request — win latch, retry,
// terminal failure and client resubmission all run here.
//
//simlint:noalloc down-message application (request hot path)
func (e *engine) domainResolve(m *shard.Msg) {
	req := e.shArms[m.Token]
	e.shArms[m.Token] = nil
	e.shArmFree = append(e.shArmFree, int32(m.Token))
	if m.Kind == msgDone {
		req.tasks = m.Vec
		req.hop = 0
		req.netDown()
		return
	}
	// msgFail: the attempt died on the core side (deadline, shed, crash
	// loss, churned gateway). The taxonomy counter lives on the core; the
	// domain runs the logical outcome.
	e.failArm(req)
}

// coreArrive admits an up-message: pick a live replica (preferring not to
// share the primary's for a hedge), take a request node, and walk the
// backhaul toward the pipeline.
//
//simlint:noalloc up-message admission reuses freelist nodes (request hot path)
func (e *engine) coreArrive(m *shard.Msg) {
	if e.noReplica() {
		// Crossed while the last replica was down: the no-survivor loss.
		e.out.CrashFailures++
		e.coreFailTok(m.Src, m.Token)
		return
	}
	idx := -1
	if m.Kind == msgUpHedge {
		if avoid := e.tokRep(m.Src, m.Token2); avoid >= 0 {
			idx = e.pickReplicaNot(int(avoid))
		}
	}
	if idx < 0 {
		idx = e.pickReplica()
	}
	req := e.newRequest(idx)
	req.shSrc = m.Src
	req.shTok = m.Token
	e.setTokRep(m.Src, m.Token, int32(idx))
	if e.resOn {
		// Overwrite initArm's +Inf with the deadline the domain stamped
		// (same virtual clock on both shards).
		req.deadline = m.F0
	}
	e.walkUp(req, int(m.Ref))
}

// coreCrossDown sends a completed arm's response back to its domain; the
// crossing pays the replica->client half-RTT plus any hoisted propagation.
//
//simlint:noalloc cross-shard emission reuses outbox buffers (request hot path)
func (e *engine) coreCrossDown(req *request) {
	if e.resOn {
		// Every core completion is a replica success (the domain decides
		// wins); the sequential kernel credits breakers only on winning
		// arms.
		e.brkOk(req.repIdx)
	}
	e.clearTokRep(req.shSrc, req.shTok)
	e.shOut.Send(req.shSrc, shard.Msg{
		At:    e.sim.Now() + e.shDownLat,
		Kind:  msgDone,
		Token: req.shTok,
		Vec:   req.tasks,
	})
	e.freeReqs = append(e.freeReqs, req)
}

// coreEmitFail retires a core-side arm as failed and reports it to the
// owning domain.
//
//simlint:noalloc cross-shard failure emission (event path)
func (e *engine) coreEmitFail(req *request) {
	e.clearTokRep(req.shSrc, req.shTok)
	e.coreFailTok(req.shSrc, req.shTok)
	e.freeReqs = append(e.freeReqs, req)
}

//simlint:noalloc cross-shard failure emission (event path)
func (e *engine) coreFailTok(dst int32, tok int64) {
	e.shOut.Send(dst, shard.Msg{At: e.sim.Now() + e.shDownLat, Kind: msgFail, Token: tok})
}

// mirrorReplica tracks global replica liveness on a domain shard (the
// replica objects live on the core): admission, parking and retry gating
// read the mirrored count.
//
//simlint:noalloc fault mirror on a domain shard (event path)
func (e *engine) mirrorReplica(ri int, down bool) {
	if down {
		if !e.repDown[ri] {
			e.repDown[ri] = true
			e.repDownCount++
		}
		return
	}
	if e.repDown[ri] {
		e.repDown[ri] = false
		e.repDownCount--
		e.drainParked()
	}
}

// repCount is the replica population as seen from this engine's role: a
// domain engine holds no replica objects but mirrors the global count.
//
//simlint:noalloc replica-count check on the request hot path
func (e *engine) repCount() int {
	if e.shRole == shDomain {
		return int(e.shRepCount)
	}
	return len(e.reps)
}

// shardedState is a Runner's pooled sharded-run machinery: the derived
// per-role network models, the per-role engines, the coordinator, and the
// reusable fault-routing buffers. Rebuilt when the source model pointer or
// the hoisting decision changes, reused otherwise.
type shardedState struct {
	src                    *NetworkModel
	upHoisted, downHoisted bool

	domModels []*NetworkModel
	coreModel *NetworkModel
	classOf   []int32 // global gateway -> domain index
	classLo   []int32 // domain -> first global gateway index

	domains []*engine
	core    *engine
	nodes   []shard.Node
	coord   *shard.Coordinator

	faultBuf []fault.Event   // compiled global timeline (buffer reused)
	evDom    [][]fault.Event // per-domain routed events (local gateway targets)
	evCore   []fault.Event
}

// backhaulFaulted reports whether the run schedules any backhaul link
// event — in which case propagation hoisting is disabled (a LinkDown must
// keep its full semantics on the core's links).
func backhaulFaulted(opts RunOptions) bool {
	if s := opts.Faults; !s.IsZero() {
		for _, f := range s.LinkFlaps {
			if f.Gateway == fault.Backhaul {
				return true
			}
		}
		for _, tr := range s.LinkSchedule {
			if tr.Gateway == fault.Backhaul {
				return true
			}
		}
	}
	for i := range opts.FaultTimeline {
		switch opts.FaultTimeline[i].Kind {
		case fault.LinkDown, fault.LinkUp, fault.LinkSet:
			if opts.FaultTimeline[i].Target == fault.Backhaul {
				return true
			}
		}
	}
	return false
}

// crossingHoists returns the backhaul propagation delay folded into each
// crossing: the hoisted uplink and downlink hops' DelaySec, in
// whole-payload mode with no backhaul fault events. Packet mode never
// hoists (per-packet pacing depends on the hop's own delay), and faulted
// backhauls keep their delays so LinkDown/LinkSet semantics are exact.
func crossingHoists(nm *NetworkModel, opts RunOptions) (up, down float64) {
	if nm.Packet || backhaulFaulted(opts) {
		return 0, 0
	}
	if i := hoistedHop(nm.BackhaulUp, false); i >= 0 {
		up = nm.BackhaulUp[i].DelaySec
	}
	if i := hoistedHop(nm.BackhaulDown, true); i >= 0 {
		down = nm.BackhaulDown[i].DelaySec
	}
	return up, down
}

// hoistedHop is the index of the backhaul hop whose propagation a crossing
// carries — the first built hop, or with last the last one — or -1.
func hoistedHop(specs []netem.LinkSpec, last bool) int {
	for k := range specs {
		i := k
		if last {
			i = len(specs) - 1 - k
		}
		if !specs[i].IsZero() {
			return i
		}
	}
	return -1
}

// hoistDelays copies specs, zeroing the hoisted hop's DelaySec (the
// crossing pays it instead). A pure-delay hop becomes IsZero and is elided
// when the core's links are built.
func hoistDelays(specs []netem.LinkSpec, hoist, last bool) []netem.LinkSpec {
	out := append([]netem.LinkSpec(nil), specs...)
	if i := hoistedHop(out, last); hoist && i >= 0 {
		out[i].DelaySec = 0
	}
	return out
}

// newShardedState derives the partition from the global model: one
// single-class model per domain (own links only), and a core model whose
// classes keep their gateway counts but lose their link specs (every core
// path aliases the backhaul; global gateway indexing is preserved).
func newShardedState(nm *NetworkModel, upHoisted, downHoisted bool) *shardedState {
	sh := &shardedState{src: nm, upHoisted: upHoisted, downHoisted: downHoisted}
	D := len(nm.Classes)
	sh.classOf = make([]int32, nm.gateways())
	sh.classLo = make([]int32, D)
	g := 0
	for ci, c := range nm.Classes {
		sh.classLo[ci] = int32(g)
		for k := 0; k < c.Gateways; k++ {
			sh.classOf[g] = int32(ci)
			g++
		}
	}
	sh.domModels = make([]*NetworkModel, D)
	for d := range sh.domModels {
		sh.domModels[d] = &NetworkModel{
			UploadBytes:   nm.UploadBytes,
			ResponseBytes: nm.ResponseBytes,
			Classes:       []NetworkClass{nm.Classes[d]},
			Packet:        nm.Packet,
			MTUBytes:      nm.MTUBytes,
		}
	}
	core := &NetworkModel{
		UploadBytes:   nm.UploadBytes,
		ResponseBytes: nm.ResponseBytes,
		Classes:       make([]NetworkClass, D),
		BackhaulUp:    hoistDelays(nm.BackhaulUp, upHoisted, false),
		BackhaulDown:  hoistDelays(nm.BackhaulDown, downHoisted, true),
		Packet:        nm.Packet,
		MTUBytes:      nm.MTUBytes,
	}
	for d, c := range nm.Classes {
		core.Classes[d] = NetworkClass{Gateways: c.Gateways} // zero specs: elided, paths alias the backhaul only
	}
	sh.coreModel = core
	sh.domains = make([]*engine, D)
	sh.evDom = make([][]fault.Event, D)
	return sh
}

// routeFaults routes each event of the loaded global timeline to the
// engines it affects: gateway and non-backhaul link events to their owning
// domain (with local gateway targets; gateway churn also mirrors globally
// to the core, which fails in-flight crossings), replica events to the core
// (full crash semantics) and to every domain (liveness mirror), backhaul
// link events to the core.
func (sh *shardedState) routeFaults() {
	for d := range sh.evDom {
		sh.evDom[d] = sh.evDom[d][:0]
	}
	sh.evCore = sh.evCore[:0]
	for _, ev := range sh.faultBuf {
		switch ev.Kind {
		case fault.GatewayLeave, fault.GatewayJoin:
			d := sh.classOf[ev.Target]
			lev := ev
			lev.Target = ev.Target - int(sh.classLo[d])
			sh.evDom[d] = append(sh.evDom[d], lev)
			sh.evCore = append(sh.evCore, ev) // global mirror: the core fails in-flight crossings of a departed gateway
		case fault.ReplicaCrash, fault.ReplicaRecover:
			sh.evCore = append(sh.evCore, ev)
			for d := range sh.evDom {
				sh.evDom[d] = append(sh.evDom[d], ev) // liveness mirror for admission/parking/retry gating
			}
		case fault.LinkDown, fault.LinkUp, fault.LinkSet:
			if ev.Target == fault.Backhaul {
				sh.evCore = append(sh.evCore, ev)
				continue
			}
			d := sh.classOf[ev.Target]
			lev := ev
			lev.Target = ev.Target - int(sh.classLo[d])
			sh.evDom[d] = append(sh.evDom[d], lev)
		}
	}
}

// clientsOn counts the closed-loop clients of n, dealt round-robin over ngw
// gateways like the sequential kernel's, that land on the g gateways
// starting at global index lo.
func clientsOn(n, lo, g, ngw int) int {
	c := n / ngw * g
	if r := n % ngw; r > lo {
		c += min(r-lo, g)
	}
	return c
}

// runSharded executes one experiment on the sharded kernel (Shards >= 2;
// opts already defaults-filled and validated by Run). It is the sharded
// family of the shared run driver: one core engine and one domain engine
// per gateway class, each started like a sequential engine on its share
// of the run.
func (r *Runner) runSharded(opts RunOptions) (*Metrics, error) {
	nm := opts.Network
	if nm == nil {
		return nil, fmt.Errorf("plantnet: Shards >= 2 requires a simulated network model (set RunOptions.Network)")
	}
	hoistUp, hoistDown := crossingHoists(nm, opts)
	upLat := opts.Cal.NetworkRTT/2 + hoistUp
	downLat := opts.Cal.NetworkRTT/2 + hoistDown
	window := math.Min(upLat, downLat) * shWindowShrink
	if window <= 0 {
		return nil, fmt.Errorf("plantnet: sharded kernel needs positive cross-shard lookahead (NetworkRTT is %v)", opts.Cal.NetworkRTT)
	}

	sh := r.sh
	if sh == nil || sh.src != nm || sh.upHoisted != (hoistUp > 0) || sh.downHoisted != (hoistDown > 0) {
		sh = newShardedState(nm, hoistUp > 0, hoistDown > 0)
		r.sh = sh
	}
	D := len(nm.Classes)
	ngw := len(sh.classOf)
	faulted := !opts.Faults.IsZero() || opts.FaultTimeline != nil
	if faulted {
		var err error
		if sh.faultBuf, err = loadFaults(sh.faultBuf, opts); err != nil {
			return nil, err
		}
		sh.routeFaults()
	}

	// Core shard: replicas, pools, backhaul. It inherits the run seed, so
	// its service-time (rng), backhaul loss (netRng) and failover
	// (faultRng) streams are seeded exactly like the sequential kernel's.
	coreOpts := opts
	coreOpts.Network = sh.coreModel
	coreOpts.Clients, coreOpts.OpenLoopRate, coreOpts.Arrivals = 0, 0, nil
	coreOpts.Faults, coreOpts.FaultTimeline = nil, nil
	coreOpts.TraceRequests = 0
	coreOpts.Shards = 0
	ce := prepareEngine(sh.core, coreOpts)
	sh.core = ce
	ce.shRole = shCore
	ce.shDownLat = downLat
	ce.openLoop = true // the core never resubmits; clients live on the domains
	ce.faultsOn = faulted
	if len(ce.shTokRep) != D {
		ce.shTokRep = make([][]int32, D)
	}
	for i := range ce.shTokRep {
		ce.shTokRep[i] = ce.shTokRep[i][:0]
	}
	ce.shSlotFree = append(ce.shSlotFree[:0], ce.shSlots...)
	if err := ce.start(coreOpts, sh.evCore, 0, 0); err != nil {
		return nil, err
	}
	if ce.resOn {
		// Retries and hedges are domain decisions; the core runs each arm
		// to exactly one outcome.
		ce.resHedgeOn = false
		ce.resHedgeDelay = math.Inf(1)
		ce.resRetryMax = 0
	}

	// Domain shards: one per gateway class, each with its own seeded
	// streams (the domain-partitioned RNG family) and its class's share of
	// the arrivals. Open-loop processes scale the global rate by the
	// domain's gateway fraction; closed-loop clients map to gateways
	// exactly like the sequential round-robin (client i -> gateway i mod
	// ngw) and stagger with their own domain's stream.
	seeder := rngutil.NewSeeder(opts.Seed + 401)
	for d := 0; d < D; d++ {
		domOpts := opts
		domOpts.Network = sh.domModels[d]
		domOpts.Replicas = 0 // replica objects live on the core
		domOpts.Faults, domOpts.FaultTimeline = nil, nil
		domOpts.Shards = 0
		domOpts.Seed = seeder.Next()
		de := prepareEngine(sh.domains[d], domOpts)
		sh.domains[d] = de
		de.shRole = shDomain
		de.shCoreID = int32(D)
		de.shDomGw0 = sh.classLo[d]
		de.shUpLat = upLat
		de.shRepCount = int32(opts.Replicas)
		de.faultsOn = faulted
		for i := range de.shArms {
			de.shArms[i] = nil
		}
		de.shArms = de.shArms[:0]
		de.shArmFree = de.shArmFree[:0]
		de.shSlotFree = append(de.shSlotFree[:0], de.shSlots...)
		g := nm.Classes[d].Gateways
		rate := openRate(opts) * float64(g) / float64(ngw)
		if err := de.start(domOpts, sh.evDom[d], rate, clientsOn(opts.Clients, int(sh.classLo[d]), g, ngw)); err != nil {
			return nil, err
		}
		if de.resOn {
			// Breakers guard replicas, which live on the core; serials get
			// a per-domain offset so arm substreams never collide.
			de.resBrkThresh = 0
			de.resSerial = uint64(d+1) << 40
		}
	}

	if sh.coord == nil {
		// The core is the heaviest node, so it goes last: the coordinator
		// claims nodes from the last index down, heaviest first.
		nodes := make([]shard.Node, D+1)
		for d := 0; d < D; d++ {
			nodes[d] = shardNode{sh.domains[d]}
		}
		nodes[D] = shardNode{ce}
		sh.nodes = nodes
		sh.coord = shard.NewCoordinator(nodes, window)
	} else {
		sh.coord.Reset(window)
	}
	sh.coord.Run(opts.Duration, opts.Shards)
	return finalize(opts, ce, sh.domains, true), nil
}

// weightedVals sorts a (value, weight) pair of parallel slices by value.
type weightedVals struct{ v, w []float64 }

func (p *weightedVals) Len() int           { return len(p.v) }
func (p *weightedVals) Less(i, j int) bool { return p.v[i] < p.v[j] }
func (p *weightedVals) Swap(i, j int) {
	p.v[i], p.v[j] = p.v[j], p.v[i]
	p.w[i], p.w[j] = p.w[j], p.w[i]
}

// weightedQuantile is stats.Quantile generalized to weighted samples: each
// sample covers weight ranks of a total-rank line, and the quantile
// interpolates in the unit gap between adjacent samples' rank spans. With
// all weights 1 it degenerates exactly to the sequential Quantile.
func weightedQuantile(vals, ws []float64, total, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	target := q * (total - 1)
	cum := 0.0
	for i := range vals {
		hi := cum + ws[i] - 1 // highest rank this sample covers
		if target <= hi || i == len(vals)-1 {
			return vals[i]
		}
		if next := cum + ws[i]; target < next {
			frac := target - hi
			return vals[i]*(1-frac) + vals[i+1]*frac
		}
		cum += ws[i]
	}
	return vals[len(vals)-1]
}

// mergePercentiles sets m's response percentiles from the per-domain
// reservoirs merged as weighted samples (each reservoir value stands for
// N/len(values) requests), so unevenly loaded domains contribute in
// proportion to their traffic.
func (m *Metrics) mergePercentiles(domains []*engine) {
	var pv, pw []float64
	var totalN float64
	for _, de := range domains {
		n := de.respRes.N()
		if n == 0 {
			continue
		}
		vals := de.respRes.Values()
		wgt := float64(n) / float64(len(vals))
		for _, v := range vals {
			pv = append(pv, v)
			pw = append(pw, wgt)
		}
		totalN += float64(n)
	}
	if totalN > 0 {
		sort.Sort(&weightedVals{pv, pw})
		m.RespP50 = weightedQuantile(pv, pw, totalN, 0.50)
		m.RespP95 = weightedQuantile(pv, pw, totalN, 0.95)
		m.RespP99 = weightedQuantile(pv, pw, totalN, 0.99)
	}
}

// mergeTraces keeps the first n traced requests across the domains, in
// completion-time order.
func mergeTraces(domains []*engine, n int) []RequestTrace {
	var all []RequestTrace
	for _, de := range domains {
		all = append(all, de.traces...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		return all[i].Start+all[i].Response < all[j].Start+all[j].Response
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}
