package plantnet

// Fault injection: RunOptions.Faults compiles to a flat event timeline
// (internal/fault) that is scheduled on the calendar at setup. Because
// setup-scheduled events carry the lowest sequence numbers at their
// instant, a fault event fires before any same-instant pipeline event —
// so when a crash handler runs, no pending same-instant pool grant or
// completion exists and the wholesale Pool.Crash/SharedResource.Crash +
// in-flight requeue is exact. All stochastic fault behavior (churn
// intervals, failover delays) draws from dedicated streams derived from
// the run seed (+307 compile, +313 failover), so a non-faulted run's RNG
// consumption — and therefore every existing golden — is untouched.

import (
	"fmt"

	"e2clab/internal/fault"
	"e2clab/internal/rngutil"
	"e2clab/internal/sim"
)

// loadFaults validates the run's fault schedule against its global
// topology and returns the timeline in buf: FaultTimeline copied verbatim
// (a pre-compiled window of a wall-clock timeline, fault.Windows, or an
// explicit test schedule), else the spec compiled with the run's fault
// stream. Both kernel families load through here, so they reject the same
// inputs and realize the same schedule.
func loadFaults(buf []fault.Event, opts RunOptions) ([]fault.Event, error) {
	spec, nm := opts.Faults, opts.Network
	if err := spec.Validate(); err != nil {
		return buf, err
	}
	ngw := nm.gateways()
	checkLinkTarget := func(g int, what string) error {
		if g == fault.Backhaul {
			if !nm.hasBackhaul() {
				return fmt.Errorf("plantnet: %s targets the backhaul, but the model has no backhaul links", what)
			}
			return nil
		}
		if g >= ngw {
			return fmt.Errorf("plantnet: %s targets gateway %d of %d", what, g, ngw)
		}
		if !nm.ownsUplink(g) {
			return fmt.Errorf("plantnet: %s targets gateway %d, whose class has no dedicated uplink", what, g)
		}
		return nil
	}
	if !spec.IsZero() {
		if spec.GatewayChurn != nil && nm == nil {
			return buf, fmt.Errorf("plantnet: gateway churn requires a simulated network model")
		}
		if (len(spec.LinkFlaps) > 0 || len(spec.LinkSchedule) > 0) && nm == nil {
			return buf, fmt.Errorf("plantnet: link flaps/schedules require a simulated network model")
		}
		for _, cr := range spec.ReplicaCrashes {
			if cr.Replica >= opts.Replicas {
				return buf, fmt.Errorf("plantnet: crash targets replica %d of %d", cr.Replica, opts.Replicas)
			}
		}
		for _, f := range spec.LinkFlaps {
			if err := checkLinkTarget(f.Gateway, "link flap"); err != nil {
				return buf, err
			}
		}
		for _, tr := range spec.LinkSchedule {
			if err := checkLinkTarget(tr.Gateway, "link transition"); err != nil {
				return buf, err
			}
		}
	}
	if opts.FaultTimeline == nil {
		return fault.CompileInto(buf, spec, opts.Seed+307, opts.Duration, ngw), nil
	}
	for i := range opts.FaultTimeline {
		ev := &opts.FaultTimeline[i]
		switch ev.Kind {
		case fault.GatewayLeave, fault.GatewayJoin:
			if nm == nil || ev.Target >= ngw {
				return buf, fmt.Errorf("plantnet: timeline event %d targets gateway %d of %d", i, ev.Target, ngw)
			}
		case fault.ReplicaCrash, fault.ReplicaRecover:
			if ev.Target >= opts.Replicas {
				return buf, fmt.Errorf("plantnet: timeline event %d targets replica %d of %d", i, ev.Target, opts.Replicas)
			}
		case fault.LinkDown, fault.LinkUp, fault.LinkSet:
			if nm == nil {
				return buf, fmt.Errorf("plantnet: timeline event %d needs a simulated network model", i)
			}
			if err := checkLinkTarget(ev.Target, "timeline event"); err != nil {
				return buf, err
			}
		}
	}
	return append(buf[:0], opts.FaultTimeline...), nil
}

// installFaults schedules an engine's share of the timeline; start calls
// it first so fault events fire before any same-instant pipeline event.
// The engine reads evs for the whole run. Liveness tables reset to all-up
// (a domain shard sizes its replica table by the global count it mirrors),
// and where the replicas live the failover-delay stream is re-seeded.
func (e *engine) installFaults(evs []fault.Event, seed int64) {
	e.faultEvents = evs
	ngw := 0
	if e.net != nil {
		ngw = len(e.net.paths)
	}
	e.gwDown = resetSlice(e.gwDown, ngw)
	e.repDown = resetSlice(e.repDown, e.repCount())
	if e.shRole != shDomain {
		if e.faultRng == nil {
			e.faultRng = rngutil.New(seed + 313)
		} else {
			e.faultRng.Seed(seed + 313)
		}
	}
	if e.faultStepFn == nil {
		e.faultStepFn = e.faultStep
	}
	for i := range evs {
		e.sim.At(evs[i].At, e.faultStepFn)
	}
}

// resetSlice returns a length-n zeroed slice reusing s's capacity.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// faultStep dispatches the next timeline event. Events are scheduled in
// timeline order at setup, so same-instant events fire in timeline order
// and a single cursor tracks which one is due — one bound closure total,
// zero allocations per event.
//
//simlint:noalloc fault event dispatch (PR 7 contract)
func (e *engine) faultStep() {
	ev := &e.faultEvents[e.faultCursor]
	e.faultCursor++
	switch ev.Kind {
	case fault.GatewayLeave:
		if !e.gwDown[ev.Target] {
			e.gwDown[ev.Target] = true
			e.gwDownCount++
		}
	case fault.GatewayJoin:
		if e.gwDown[ev.Target] {
			e.gwDown[ev.Target] = false
			e.gwDownCount--
			e.drainParked()
		}
	case fault.ReplicaCrash:
		if e.shRole == shDomain {
			e.mirrorReplica(ev.Target, true)
			return
		}
		e.crashReplica(ev.Target, ev.RequeueDelaySec)
	case fault.ReplicaRecover:
		if e.shRole == shDomain {
			e.mirrorReplica(ev.Target, false)
			return
		}
		e.recoverReplica(ev.Target)
	case fault.LinkDown, fault.LinkUp, fault.LinkSet:
		e.applyLinkEvent(ev)
	}
}

// crashReplica kills replica ri: all in-service work is dropped wholesale
// (Pool.Crash / SharedResource.Crash keep the monitoring integrals), then
// every in-flight request is requeued on a surviving replica after a
// seeded exponential failover delay of mean meanDelay — or counted as
// lost when no replica survives. Under a policy, arms whose logical
// request already completed just tear down, and rescued arms keep their
// deadline, so a slow failover can still time out.
//
//simlint:noalloc fault event path (crash/failover, PR 7 contract)
func (e *engine) crashReplica(ri int, meanDelay float64) {
	if e.repDown[ri] {
		return
	}
	rep := e.reps[ri]
	e.repDown[ri] = true
	e.repDownCount++
	rep.cpu.Crash()
	rep.gpu.Crash()
	rep.http.Crash()
	rep.dl.Crash()
	rep.ex.Crash()
	rep.ss.Crash()
	alive := e.repDownCount < len(e.reps)
	for i, req := range rep.inflight {
		rep.inflight[i] = nil
		req.timer.Cancel() // pending download / simsearch-IO stage timer
		req.ifIdx = -1
		switch {
		case e.resOn && e.lostArm(req):
			e.resolveArm(req)
		case !alive:
			e.out.CrashFailures++
			e.failArm(req)
		default:
			e.out.CrashRequeues++
			req.tasks = [9]float64{}
			e.reassign(req)
			e.sim.Schedule(e.faultRng.ExpFloat64()*meanDelay, req.arrive)
		}
	}
	rep.inflight = rep.inflight[:0]
}

// recoverReplica brings replica ri back empty: pools and resources were
// left clean by Crash, the pinned extract-thread hold is re-added, and
// parked closed-loop clients resume.
//
//simlint:noalloc fault event path (crash/failover, PR 7 contract)
func (e *engine) recoverReplica(ri int) {
	if !e.repDown[ri] {
		return
	}
	e.repDown[ri] = false
	e.repDownCount--
	e.reps[ri].cpu.AddHold(e.extractHold)
	e.drainParked()
}

// applyLinkEvent applies a link transition to the target domain: the
// shared backhaul (both directions) or one gateway's dedicated uplink
// pair.
//
//simlint:noalloc fault event path (link schedules, PR 7 contract)
func (e *engine) applyLinkEvent(ev *fault.Event) {
	if ev.Target == fault.Backhaul {
		for _, l := range e.net.backhaul {
			e.transitionLink(l, ev)
		}
		return
	}
	own := e.net.own[ev.Target]
	if own[0] != nil {
		e.transitionLink(own[0], ev)
	}
	if own[1] != nil {
		e.transitionLink(own[1], ev)
	}
}

//simlint:noalloc fault event path (link schedules, PR 7 contract)
func (e *engine) transitionLink(l *sim.Link, ev *fault.Event) {
	switch ev.Kind {
	case fault.LinkDown:
		l.Reconfigure(-1, 0, 100)
	case fault.LinkUp:
		l.Restore()
	case fault.LinkSet:
		l.Reconfigure(ev.DelaySec, ev.RateBps, ev.LossPct)
	}
}

// admit gates a request's arrival at its replica when faults are active:
// a request bound for a dead replica is reassigned to a survivor (or
// counted lost and, closed-loop, parked); admitted requests enter the
// replica's in-flight set.
//
//simlint:noalloc fault bookkeeping on the request hot path (PR 7 contract)
func (e *engine) admit(req *request) bool {
	if e.repDown[req.repIdx] {
		if e.repDownCount >= len(e.reps) {
			e.out.CrashFailures++
			e.failArm(req)
			return false
		}
		e.reassign(req)
	}
	req.ifIdx = int32(len(req.rep.inflight))
	req.rep.inflight = append(req.rep.inflight, req)
	return true
}

// reassign points req at the next live replica in round-robin order.
// Callers guarantee at least one replica is alive.
//
//simlint:noalloc fault event path (crash/failover, PR 7 contract)
func (e *engine) reassign(req *request) {
	n := len(e.reps)
	idx := e.next % n
	for e.repDown[idx] {
		e.next++
		idx = e.next % n
	}
	e.next++
	req.rep = e.reps[idx]
	req.repIdx = int32(idx)
}

// untrack removes req from its replica's in-flight set (swap-remove).
//
//simlint:noalloc fault bookkeeping on the request hot path (PR 7 contract)
func (e *engine) untrack(req *request) {
	if req.ifIdx < 0 {
		return
	}
	rep := req.rep
	last := len(rep.inflight) - 1
	moved := rep.inflight[last]
	rep.inflight[req.ifIdx] = moved
	moved.ifIdx = req.ifIdx
	rep.inflight[last] = nil
	rep.inflight = rep.inflight[:last]
	req.ifIdx = -1
}

// churned checks an arm's gateway at a network hop. A gateway that
// departed while the arm was in flight re-routes it, under a failover
// policy, through the nearest surviving same-class gateway, where leg
// restarts from hop 0 (the re-routed cost is paid in full); otherwise the
// arm fails — the churn outcome with its own Metrics counter. Arms on the
// up leg never reached the replica, and arms on the down leg already left
// it, so no replica resources are held at this point. True means the arm
// was consumed.
//
//simlint:noalloc gateway-churn checkpoint (request hot path)
func (e *engine) churned(req *request, leg func()) bool {
	if !e.faultsOn || !e.gwDown[req.gw] {
		return false
	}
	if e.resOn && e.resFailover && e.rerouteGateway(req) {
		leg()
		return true
	}
	e.out.GatewayFailures++
	e.failArm(req)
	return true
}

// failArm fails one attempt: under a policy the arm retires (and its
// logical request may retry), otherwise the request fails terminally.
//
//simlint:noalloc failure path (request hot path)
func (e *engine) failArm(req *request) {
	if e.resOn {
		e.resolveArm(req)
		return
	}
	e.failRequest(req)
}

// failRequest is the terminal failure of a logical request. The node
// recycles and a closed-loop client issues a fresh request at once —
// through the managed round-robin, so it parks if nothing is alive. On the
// core shard the failure crosses back to the owning domain, which counts
// it and resubmits its client.
//
//simlint:noalloc terminal-failure path (request hot path)
func (e *engine) failRequest(req *request) {
	if e.shRole == shCore {
		e.coreEmitFail(req)
		return
	}
	e.out.FailedRequests++
	e.freeReqs = append(e.freeReqs, req)
	if !e.openLoop {
		e.submit()
	}
}

// pickReplica advances the replica round-robin, skipping crashed
// replicas (fault schedule) and open circuit breakers (resilience
// policy). When every live replica's breaker is open the current live
// candidate is used anyway — admission control must not manufacture a
// total outage. Callers guarantee at least one replica is alive.
//
//simlint:noalloc fault/policy-aware routing (request hot path)
func (e *engine) pickReplica() int {
	n := len(e.reps)
	idx := e.next % n
	for e.faultsOn && e.repDown[idx] {
		e.next++
		idx = e.next % n
	}
	if e.resOn && e.resBrkThresh > 0 {
		for tries := 0; tries < n && e.brkSkip(idx); tries++ {
			e.next++
			idx = e.next % n
			for e.faultsOn && e.repDown[idx] {
				e.next++
				idx = e.next % n
			}
		}
		if e.brkState[idx] == brkHalfOpen {
			e.brkState[idx] = brkProbing
		}
	}
	e.next++
	return idx
}

// pickGateway advances the gateway round-robin, skipping departed
// gateways. Under failover a down slot re-routes to the nearest
// surviving same-class gateway instead of silently advancing, counting
// a re-route. Callers guarantee at least one gateway is up.
//
//simlint:noalloc fault/policy-aware routing (request hot path)
func (e *engine) pickGateway() int {
	ng := len(e.net.paths)
	g := e.nextGw % ng
	if e.faultsOn && e.gwDown[g] {
		if e.resOn && e.resFailover {
			if s := e.nearestSameClass(g); s >= 0 {
				e.nextGw++
				e.out.Rerouted++
				return s
			}
		}
		for e.gwDown[g] {
			e.nextGw++
			g = e.nextGw % ng
		}
	}
	e.nextGw++
	return g
}

// noReplica reports whether faults left no replica alive (as mirrored, on
// a domain shard).
//
//simlint:noalloc capacity gate (request hot path)
func (e *engine) noReplica() bool {
	return e.faultsOn && e.repDownCount >= e.repCount()
}

// noGateway reports whether churn left no gateway up.
//
//simlint:noalloc capacity gate (request hot path)
func (e *engine) noGateway() bool {
	return e.faultsOn && e.net != nil && e.gwDownCount >= len(e.net.paths)
}

// dropArrival records an arrival that found no live capacity.
//
//simlint:noalloc fault event path (PR 7 contract)
func (e *engine) dropArrival() {
	if e.openLoop {
		e.out.DroppedArrivals++
		e.out.FailedRequests++
		return
	}
	e.parked++
}

// drainParked resubmits every parked closed-loop client once; clients
// that still find no capacity re-park (the count is latched up front, so
// a fruitless drain terminates).
//
//simlint:noalloc fault event path (PR 7 contract)
func (e *engine) drainParked() {
	n := e.parked
	e.parked = 0
	for i := 0; i < n; i++ {
		e.submit()
	}
}
