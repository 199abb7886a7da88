package plantnet

// Resilience policies: RunOptions.Resilience compiles at setup into the
// flattened engine fields and the pre-bound retry/hedge continuations on
// each request node — no steady-state closures, no allocations on the
// retry/hedge/reroute paths. A node is one ARM (an attempt in flight);
// the logical request is its primary arm, which a hedge arm points back
// to via pri. Arms are checked against the policy at the pipeline
// checkpoints (arrival, HTTP grant, uplink/downlink hops, completion);
// between checkpoints they run the exact unpolicied pipeline.
//
// Determinism: every policy draw (retry jitter) comes from the request's
// own SplitMix64 substream derived arithmetically from (Seed, serial) —
// resilience never touches e.rng, e.netRng or e.faultRng, so a policied
// run sees the identical fault timeline and service-time draws the
// unpolicied run does (apples-to-apples availability comparisons), and a
// policy-free run consumes zero extra randomness.

import (
	"fmt"
	"math"

	"e2clab/internal/resilience"
	"e2clab/internal/sim"
)

// Per-replica circuit-breaker states.
const (
	brkClosed uint8 = iota
	brkOpen
	brkHalfOpen
	brkProbing
)

// setupResilience validates the policy against the prepared topology and
// flattens it into engine fields. Called from run() on a prepared engine
// (cold path — setup allocations are fine).
func (e *engine) setupResilience(opts RunOptions) error {
	p := opts.Resilience
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Failover && e.net == nil {
		return fmt.Errorf("plantnet: failover routing requires a simulated network model")
	}
	e.resTimeout = math.Inf(1)
	if p.TimeoutSeconds > 0 {
		e.resTimeout = p.TimeoutSeconds
	}
	e.resRetryMax, e.resRetryBase, e.resRetryCap = 0, 0, 0
	if r := p.Retry; r != nil {
		e.resRetryMax = int32(r.Max)
		e.resRetryBase = r.Base()
		e.resRetryCap = r.Cap()
	}
	e.resHedgeOn = p.Hedge != nil
	e.resHedgeQ = 0
	e.resHedgeDelay = math.Inf(1) // dormant until a delay is known
	if h := p.Hedge; h != nil {
		e.resHedgeQ = h.Quantile
		if h.DelaySeconds > 0 {
			e.resHedgeDelay = h.DelaySeconds
		}
	}
	e.resBrkThresh, e.resBrkOpen = 0, 0
	if b := p.Breaker; b != nil {
		e.resBrkThresh = int32(b.FailureThreshold)
		e.resBrkOpen = b.Open()
		e.brkFails = resetSlice(e.brkFails, len(e.reps))
		e.brkState = resetSlice(e.brkState, len(e.reps))
		e.brkUntil = resetSlice(e.brkUntil, len(e.reps))
	}
	e.resFailover = p.Failover
	e.resShedDepth = 0
	if s := p.Shed; s != nil {
		e.resShedDepth = s.QueueDepth
	}
	e.resSeedBase = resilience.SubstreamBase(opts.Seed)
	if p.Failover {
		// Gateway -> class bookkeeping for nearest-same-class failover;
		// buildNetState appends gateways in class declaration order.
		ngw := len(e.net.paths)
		nc := len(opts.Network.Classes)
		e.gwClass = resetSlice(e.gwClass, ngw)
		e.classLo = resetSlice(e.classLo, nc)
		e.classHi = resetSlice(e.classHi, nc)
		g := 0
		for ci := range opts.Network.Classes {
			e.classLo[ci] = int32(g)
			for k := 0; k < opts.Network.Classes[ci].Gateways && g < ngw; k++ {
				e.gwClass[g] = int32(ci)
				g++
			}
			e.classHi[ci] = int32(g)
		}
	}
	return nil
}

// initArm resets a node's policy bookkeeping and derives its private
// jitter substream — pure arithmetic, zero stream draws, so policied
// runs do not perturb the engine RNGs.
//
//simlint:noalloc per-arm policy initialization on the request hot path
func (e *engine) initArm(req *request) {
	e.resSerial++
	req.rstate = resilience.RequestState(e.resSeedBase, e.resSerial)
	req.attempts = 0
	req.arms = 1
	req.won = false
	req.retried = false
	req.pri = nil
	req.prevDelay = e.resRetryBase
	req.deadline = math.Inf(1)
	req.hedgeEv = sim.Event{}
}

// armRequest stamps a freshly dispatched arm's per-attempt deadline and
// (primary arms only) arms the hedge-launch timer.
//
//simlint:noalloc arm deadline/hedge arming on the request hot path
func (e *engine) armRequest(req *request) {
	req.deadline = e.sim.Now() + e.resTimeout
	if e.resHedgeOn && req.pri == nil {
		e.armHedge(req)
	}
}

//simlint:noalloc hedge timer arming on the request hot path
func (e *engine) armHedge(p *request) {
	d := e.resHedgeDelay
	if math.IsInf(d, 1) {
		return
	}
	p.hedgeEv = e.sim.Schedule(d, p.hedgeFn)
}

// lostArm reports whether req belongs to a logical request that already
// completed through another arm.
//
//simlint:noalloc arm state check on the request hot path
func (e *engine) lostArm(req *request) bool {
	if req.pri != nil {
		return req.pri.won
	}
	return req.won
}

// arriveGuard runs at a resilient arm's arrival checkpoint: losers tear
// down, late arms fail the deadline, and arrivals above the shed
// watermark are rejected. True means the arm was consumed.
//
//simlint:noalloc resilience arrival checkpoint on the request hot path
func (e *engine) arriveGuard(req *request) bool {
	if e.lateArm(req) {
		return true
	}
	if e.resShedDepth > 0 && req.rep.http.Queued() >= e.resShedDepth {
		e.out.Shed++
		e.resolveArm(req)
		return true
	}
	return false
}

// lateArm retires an arm whose logical request already completed through
// another arm, or that passed its deadline (feeding the breaker). True
// means the arm was consumed.
//
//simlint:noalloc resilience checkpoint on the request hot path
func (e *engine) lateArm(req *request) bool {
	if e.dropLoser(req) {
		return true
	}
	if e.sim.Now() > req.deadline {
		e.out.DeadlineExceeded++
		e.brkFail(req.repIdx)
		e.resolveArm(req)
		return true
	}
	return false
}

// dropLoser retires an arm whose logical request already completed
// through another arm.
//
//simlint:noalloc resilience checkpoint on the request hot path
func (e *engine) dropLoser(req *request) bool {
	if e.lostArm(req) {
		e.resolveArm(req)
		return true
	}
	return false
}

// grantGuard runs when a resilient arm is granted its HTTP slot: losers
// and deadline-exceeded arms give the slot straight back.
//
//simlint:noalloc resilience grant checkpoint on the request hot path
func (e *engine) grantGuard(req *request) bool {
	lost := e.lostArm(req)
	if !lost && e.sim.Now() <= req.deadline {
		return false
	}
	req.rep.http.Release()
	e.untrack(req)
	if !lost {
		e.out.DeadlineExceeded++
		e.brkFail(req.repIdx)
	}
	e.resolveArm(req)
	return true
}

// resolveArm retires one arm. Hedge arms recycle immediately; when the
// last arm of a logical request retires, the request either finishes
// (winner already accounted) or enters the retry/terminal-failure path.
//
//simlint:noalloc arm teardown on the request hot path
func (e *engine) resolveArm(req *request) {
	if e.shRole == shCore {
		// On the core every arm is independent (pri == nil, won never
		// latched), so a resolving arm is always a genuine failure of one
		// crossing: report it to the owning domain, which runs the
		// win/retry/hedge bookkeeping.
		e.coreEmitFail(req)
		return
	}
	p := req.pri
	if p != nil {
		req.pri = nil
		e.freeReqs = append(e.freeReqs, req)
	} else {
		p = req
	}
	p.arms--
	if p.arms > 0 {
		return
	}
	p.hedgeEv.Cancel() // no pending hedge may outlive the logical request
	if p.won {
		e.freeReqs = append(e.freeReqs, p)
		return
	}
	e.failLogical(p)
}

// failLogical handles a logical request whose every arm failed: retry
// with decorrelated-jitter backoff while attempts remain, else fail it
// terminally.
//
//simlint:noalloc retry/terminal-failure path (request hot path)
func (e *engine) failLogical(p *request) {
	p.hedgeEv.Cancel()
	if p.attempts < e.resRetryMax {
		p.attempts++
		p.retried = true
		p.arms = 1
		e.out.Retries++
		d := resilience.NextBackoff(&p.rstate, e.resRetryBase, e.resRetryCap, p.prevDelay)
		p.prevDelay = d
		e.sim.Schedule(d, p.retryFn)
		return
	}
	e.failRequest(p)
}

// redispatch re-issues a logical request after its backoff: a fresh
// attempt on a live replica/gateway chosen at fire time. With nothing
// alive the attempt is spent immediately (bounded by Retry.Max).
//
//simlint:noalloc retry redispatch (event path)
func (e *engine) redispatch(p *request) {
	if e.noReplica() || e.noGateway() {
		e.failLogical(p)
		return
	}
	if e.shRole != shDomain {
		idx := e.pickReplica()
		p.rep = e.reps[idx]
		p.repIdx = int32(idx)
	}
	p.tasks = [9]float64{}
	e.dispatchArm(p)
}

// dispatchArm routes one arm — a fresh submission, a retry or a hedge —
// through the network or the analytical half-RTT; under a policy it is
// deadline/hedge-armed first.
//
//simlint:noalloc arm dispatch (request hot path)
func (e *engine) dispatchArm(req *request) {
	if e.resOn {
		e.armRequest(req)
	}
	if e.net != nil {
		e.walkUp(req, e.pickGateway())
		return
	}
	e.sim.Schedule(e.cal.NetworkRTT/2, req.arrive)
}

// walkUp starts req's uplink walk through gateway g (device -> engine:
// the gateway uplink, then the shared backhaul).
//
//simlint:noalloc uplink start (request hot path)
func (e *engine) walkUp(req *request, g int) {
	if req.netUp == nil {
		req.bindNet() //simlint:allow noallocclosure bindNet is the //go:noinline lazy closure-build cold path
	}
	req.path = &e.net.paths[g]
	req.gw = int32(g)
	req.hop = 0
	req.netUp()
}

// launchHedge fires when a primary arm's hedge timer expires: if the
// logical request is still undecided and capacity exists, a duplicate
// arm launches on (preferably) another replica; first response wins. On a
// domain shard the core picks the replica when the hedge crosses, and the
// hedge message carries the primary's token so it can prefer another one.
//
//simlint:noalloc hedge launch (event path)
func (e *engine) launchHedge(p *request) {
	if p.won || p.arms != 1 || e.noReplica() || e.noGateway() {
		return
	}
	idx := -1
	if e.shRole != shDomain {
		idx = e.pickReplicaNot(int(p.repIdx))
	}
	h := e.newRequest(idx)
	h.pri = p
	p.arms = 2
	e.out.Hedges++
	e.dispatchArm(h)
}

// pickReplicaNot prefers a replica other than avoid (one extra
// round-robin advance when the first pick collides).
//
//simlint:noalloc hedge replica selection (event path)
func (e *engine) pickReplicaNot(avoid int) int {
	idx := e.pickReplica()
	if idx != avoid {
		return idx
	}
	return e.pickReplica()
}

// finishResilient is the completion checkpoint: the first arm of a
// logical request to finish wins — accounting happens exactly once, on
// the primary's clock — and every other arm tears down at its next
// checkpoint.
//
//simlint:noalloc resilience completion path (request hot path)
func (e *engine) finishResilient(req *request) {
	p := req.pri
	hedgeArm := p != nil
	if !hedgeArm {
		p = req
	}
	if p.won {
		e.resolveArm(req)
		return
	}
	p.won = true
	p.hedgeEv.Cancel()
	if hedgeArm {
		e.out.HedgeWins++
	}
	if p.retried {
		e.out.RetrySuccesses++
	}
	e.brkOk(req.repIdx)
	if e.record(p.start, &req.tasks) <= e.resTimeout {
		e.goodDone++
	}
	// Recycle before resubmitting so a closed-loop client reuses its own
	// node immediately (matching the unpolicied finish).
	e.resolveArm(req)
	if !e.openLoop {
		e.submit()
	}
}

// brkSkip reports whether the routing round-robin should pass over
// replica idx: open circuits reject until their window elapses (the
// first arrival after that becomes the half-open probe), and a probing
// circuit admits nothing else until the probe resolves.
//
//simlint:noalloc breaker routing check (request hot path)
func (e *engine) brkSkip(idx int) bool {
	switch e.brkState[idx] {
	case brkOpen:
		if e.sim.Now() >= e.brkUntil[idx] {
			e.brkState[idx] = brkHalfOpen
			return false
		}
		return true
	case brkProbing:
		return true
	}
	return false
}

// brkFail records a deadline failure against a replica: threshold
// consecutive failures open the circuit; a failed half-open probe
// re-opens it.
//
//simlint:noalloc breaker failure accounting (request hot path)
func (e *engine) brkFail(ri int32) {
	if e.resBrkThresh == 0 {
		return
	}
	i := int(ri)
	switch e.brkState[i] {
	case brkClosed:
		e.brkFails[i]++
		if e.brkFails[i] >= e.resBrkThresh {
			e.brkFails[i] = 0
			e.brkState[i] = brkOpen
			e.brkUntil[i] = e.sim.Now() + e.resBrkOpen
			e.out.BreakerOpens++
		}
	case brkHalfOpen, brkProbing:
		e.brkState[i] = brkOpen
		e.brkUntil[i] = e.sim.Now() + e.resBrkOpen
		e.out.BreakerOpens++
	}
}

// brkOk records a completed request against a replica: any success
// closes the circuit and clears the consecutive-failure count.
//
//simlint:noalloc breaker success accounting (request hot path)
func (e *engine) brkOk(ri int32) {
	if e.resBrkThresh == 0 {
		return
	}
	i := int(ri)
	e.brkFails[i] = 0
	e.brkState[i] = brkClosed
}

// nearestSameClass scans outward from gateway g for the nearest live
// gateway in the same network class; -1 when the whole class is down.
//
//simlint:noalloc failover routing (request hot path)
func (e *engine) nearestSameClass(g int) int {
	c := e.gwClass[g]
	lo, hi := int(e.classLo[c]), int(e.classHi[c])
	for d := 1; ; d++ {
		l, r := g-d, g+d
		if l < lo && r >= hi {
			return -1
		}
		if l >= lo && !e.gwDown[l] {
			return l
		}
		if r < hi && !e.gwDown[r] {
			return r
		}
	}
}

// rerouteGateway re-points an in-flight arm at the nearest surviving
// same-class gateway and restarts the current leg from hop 0 — the
// re-routed uplink cost is paid in full.
//
//simlint:noalloc failover re-route of an in-flight arm (request hot path)
func (e *engine) rerouteGateway(req *request) bool {
	s := e.nearestSameClass(int(req.gw))
	if s < 0 {
		return false
	}
	e.out.Rerouted++
	req.gw = int32(s)
	req.path = &e.net.paths[s]
	req.hop = 0
	return true
}
