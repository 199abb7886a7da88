package sim

import "math"

// SharedResource models a capacity shared among concurrent jobs under
// (weighted) processor sharing with a configurable aggregate-rate curve.
//
// Two instantiations matter for the Pl@ntNet engine model:
//
//   - CPU: TotalRate(w) = min(w, cores). Below saturation every job runs at
//     full speed; beyond it, all CPU-bound work slows proportionally — the
//     contention that makes extract pools of 8–9 threads hurt simsearch time
//     in Figure 9.
//   - GPU: TotalRate(w) = peak * min(w, ksat)/ksat. Aggregate inference
//     throughput grows until ~ksat concurrent inferences then saturates, so
//     extra concurrency only inflates per-inference latency — why extract=6
//     is the response-time minimum and "the extract task time was not
//     reduced when increasing the extract thread pool size".
//
// Each resource event walks the running jobs once. While every job has
// weight 1, as every caller in this module submits, the next completion
// follows from a running count of non-unit jobs and a cached minimum of
// remaining work, with one divide; otherwise a second walk divides once
// per job. Both paths produce the same bits.
type SharedResource struct {
	eng *Engine
	// TotalRate maps the active weight sum to delivered aggregate rate
	// (work units per second). Must be positive for positive weight.
	TotalRate func(activeWeight float64) float64
	// MaxRate is the rate used as the denominator for utilization
	// accounting (e.g. number of cores).
	MaxRate float64

	// jobs is a dense, insertion-ordered slice (insertion order is the
	// completion order of simultaneous finishers). advance walks it once per
	// resource event; reschedule walks it again only while some job's weight
	// is not 1 (see nonUnit).
	jobs []*sharedJob
	// nonUnit counts running jobs whose weight is not 1. While it is 0 every
	// job runs at the same rate total/w, so advance charges one precomputed
	// step to each job and reschedule divides once, minRem/(total/w). That
	// is bit-identical to the per-job 1*total/w arithmetic of the weighted
	// path: 1*total == total, and correctly rounded division by a positive
	// constant is monotone, so the min of the quotients is the quotient of
	// the min.
	nonUnit int
	// minRem is the least remaining work over jobs (+Inf when there are
	// none). The walk in advance recomputes it and Add folds in the new
	// job's work; only removing the minimum job (Cancel) costs a rescan.
	minRem float64
	// freeJobs recycles completed/cancelled job nodes, so steady-state job
	// churn allocates nothing. Nodes are generation-counted: a stale Job
	// handle (completed, cancelled, or recycled) is detected in O(1).
	freeJobs []*sharedJob
	// jobWeight is the running Σ job weights, maintained incrementally so
	// ActiveWeight is O(1) instead of an O(jobs) sum per event. It is reset
	// to exactly 0 whenever the resource drains, so float drift cannot
	// accumulate across bursts.
	jobWeight float64
	holds     float64 // weight of persistent loads (see Hold)
	nextEv    Event
	hasNext   bool
	// completeFn is the next-completion callback, bound once so the
	// reschedule path never allocates a closure.
	completeFn func()
	lastT      float64
	workInt    float64 // ∫ delivered rate dt (work-seconds, for utilization)
}

type sharedJob struct {
	remaining float64
	weight    float64
	onDone    func()
	gen       uint32
}

// Job is a value handle to a submitted job, used to cancel it (failure
// injection in tests). The zero Job is inert.
type Job struct {
	s   *SharedResource
	j   *sharedJob
	gen uint32
}

// Cancel aborts the job if it is still running. Cancelling a completed,
// cancelled, or zero Job is a no-op.
//
//simlint:noalloc steady-state job churn (PR 3 contract, sim/alloc_test.go)
func (h Job) Cancel() {
	if h.j == nil || h.j.gen != h.gen {
		return
	}
	s := h.s
	s.advance()
	if h.j.gen != h.gen { // completed during the advance
		return
	}
	s.removeJob(h.j)
	s.releaseJob(h.j)
	s.reschedule()
}

// NewSharedResource builds a shared resource on the engine.
func NewSharedResource(eng *Engine, maxRate float64, totalRate func(float64) float64) *SharedResource {
	s := &SharedResource{
		eng:       eng,
		TotalRate: totalRate,
		MaxRate:   maxRate,
		lastT:     eng.Now(),
		minRem:    math.Inf(1),
	}
	// Bind the next-completion callback here, once per resource, so the
	// reschedule hot path never allocates a closure (it is annotated
	// //simlint:noalloc and must stay free of escape sites).
	s.completeFn = func() {
		s.hasNext = false
		s.advance()
		s.reschedule()
	}
	return s
}

// CPURate is the processor-sharing CPU rate curve: every job runs at full
// speed below saturation, all CPU-bound work slows proportionally beyond
// it. Exposed so pooled callers resetting a CPU (SharedResource.Reset
// rebinds the curve per run) share one source of truth with NewCPU.
func CPURate(cores float64) func(float64) float64 {
	return func(w float64) float64 { return math.Min(w, cores) }
}

// NewCPU returns a processor-sharing CPU with the given core count.
func NewCPU(eng *Engine, cores float64) *SharedResource {
	return NewSharedResource(eng, cores, CPURate(cores))
}

// NewGPU returns a GPU whose aggregate throughput saturates at ksat
// concurrent unit-weight jobs, with peak aggregate rate peak.
func NewGPU(eng *Engine, peak float64, ksat float64) *SharedResource {
	return NewSharedResource(eng, peak, func(w float64) float64 {
		if w <= 0 {
			return 0
		}
		return peak * math.Min(w, ksat) / ksat
	})
}

//simlint:noalloc steady-state job churn pops the freelist; growth is in newSharedJob
func (s *SharedResource) allocJob(work, weight float64, onDone func()) *sharedJob {
	var j *sharedJob
	if n := len(s.freeJobs); n > 0 {
		j = s.freeJobs[n-1]
		s.freeJobs = s.freeJobs[:n-1]
	} else {
		j = newSharedJob() //simlint:allow noallocclosure //go:noinline freelist-growth constructor; the hot path reuses pooled jobs
	}
	j.remaining, j.weight, j.onDone = work, weight, onDone
	return j
}

// newSharedJob is the cold-path node allocator, kept out of line so its
// escape stays outside the //simlint:noalloc span of allocJob (inlining
// would re-attribute the allocation to the call site).
//
//go:noinline
func newSharedJob() *sharedJob { return &sharedJob{} }

// releaseJob retires a node to the freelist; the generation bump invalidates
// every outstanding handle to it.
//
//simlint:noalloc
func (s *SharedResource) releaseJob(j *sharedJob) {
	j.gen++
	j.onDone = nil
	s.freeJobs = append(s.freeJobs, j)
}

// Add submits a job with the given amount of work and weight; onDone fires
// when the work completes. The returned handle can Cancel the job (used for
// failure injection in tests).
//
//simlint:noalloc steady-state job churn
func (s *SharedResource) Add(work, weight float64, onDone func()) Job {
	if work <= 0 {
		// Zero-length jobs complete immediately (via the calendar for
		// deterministic ordering).
		s.eng.Schedule(0, onDone)
		return Job{}
	}
	if weight <= 0 {
		panic("sim: job weight must be positive")
	}
	s.advance()
	j := s.allocJob(work, weight, onDone)
	s.jobs = append(s.jobs, j)
	s.jobWeight += weight
	if weight != 1 {
		s.nonUnit++
	}
	if work < s.minRem {
		s.minRem = work
	}
	s.reschedule()
	return Job{s: s, j: j, gen: j.gen}
}

// removeJob drops j from the dense slice, preserving insertion order (which
// keeps completion ordering deterministic), and updates the running weight,
// the non-unit count and, if j held the minimum remaining work, minRem.
//
//simlint:noalloc
func (s *SharedResource) removeJob(j *sharedJob) {
	for i, other := range s.jobs {
		if other == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
	s.jobWeight -= j.weight
	if j.weight != 1 {
		s.nonUnit--
	}
	if j.remaining <= s.minRem {
		s.minRem = math.Inf(1)
		for _, other := range s.jobs {
			if other.remaining < s.minRem {
				s.minRem = other.remaining
			}
		}
	}
	if len(s.jobs) == 0 {
		s.jobWeight = 0
	}
}

// AddHold adds a persistent load of the given weight: it consumes capacity
// (slowing completing jobs under contention) without ever finishing — the
// model for busy-polling worker threads or background daemons. Each AddHold
// must be balanced by one RemoveHold with the same weight.
//
//simlint:noalloc closure-free hold path (the engine's download stage calls it per request)
func (s *SharedResource) AddHold(weight float64) {
	if weight <= 0 {
		return
	}
	s.advance()
	s.holds += weight
	s.reschedule()
}

// RemoveHold releases weight previously added with AddHold. The total hold
// weight is floored at zero.
//
//simlint:noalloc
func (s *SharedResource) RemoveHold(weight float64) {
	if weight <= 0 {
		return
	}
	s.advance()
	s.holds -= weight
	if s.holds < 0 {
		s.holds = 0
	}
	s.reschedule()
}

// Hold is the closure-based convenience form of AddHold/RemoveHold: the
// returned function removes the load; calling it twice is a no-op. Hot paths
// that would allocate a closure per call (the engine's download stage) use
// AddHold/RemoveHold directly.
func (s *SharedResource) Hold(weight float64) (release func()) {
	if weight <= 0 {
		return func() {}
	}
	s.AddHold(weight)
	released := false
	return func() {
		if released {
			return
		}
		released = true
		s.RemoveHold(weight)
	}
}

// Reset returns the resource to a fresh state after an Engine.Reset,
// recycling in-flight jobs into the freelist so the next run's steady state
// allocates nothing. totalRate replaces the rate curve when non-nil (rate
// curves usually close over run parameters, so pooled callers rebind them
// per run); maxRate is only applied alongside a non-nil totalRate.
//
//simlint:noalloc pooled-reuse path (PR 5 contract)
func (s *SharedResource) Reset(maxRate float64, totalRate func(float64) float64) {
	for _, j := range s.jobs {
		s.releaseJob(j)
	}
	for i := range s.jobs {
		s.jobs[i] = nil
	}
	s.jobs = s.jobs[:0]
	s.jobWeight, s.holds = 0, 0
	s.nonUnit, s.minRem = 0, math.Inf(1)
	s.nextEv, s.hasNext = Event{}, false
	s.lastT = s.eng.Now()
	s.workInt = 0
	if totalRate != nil {
		s.TotalRate, s.MaxRate = totalRate, maxRate
	}
}

// Sync prices elapsed time at the current rates and recomputes the next
// completion event. Callers that change the rate environment out of band
// (e.g. a Link rescaling its bandwidth pipe mid-run) bracket the change
// with Sync: once before, so elapsed work is charged at the old rates, and
// once after, so the pending completion reflects the new ones.
//
//simlint:noalloc fault/reconfiguration event path (PR 7 contract)
func (s *SharedResource) Sync() {
	s.advance()
	s.reschedule()
}

// Crash drops every running job without firing its completion and clears
// all persistent holds — the kernel primitive for failure injection: a
// crashed resource loses its in-service work, while the utilization
// integrals survive so monitors keep reporting across the outage. Elapsed
// time is priced into the work integral WITHOUT firing completions (work
// that was numerically due at the crash instant is lost with the rest),
// so no stale continuation can run on the crashed resource. Dropped jobs
// return to the freelist; outstanding Job handles become inert.
//
//simlint:noalloc fault event path (crash/failover, PR 7 contract)
func (s *SharedResource) Crash() {
	now := s.eng.Now()
	if dt := now - s.lastT; dt > 0 {
		if w := s.ActiveWeight(); w > 0 {
			s.workInt += s.TotalRate(w) * dt
		}
		s.lastT = now
	}
	for _, j := range s.jobs {
		s.releaseJob(j)
	}
	for i := range s.jobs {
		s.jobs[i] = nil
	}
	s.jobs = s.jobs[:0]
	s.jobWeight, s.holds = 0, 0
	s.nonUnit, s.minRem = 0, math.Inf(1)
	if s.hasNext {
		s.nextEv.Cancel()
		s.hasNext = false
	}
}

// ActiveWeight returns the current total weight of running jobs plus holds.
func (s *SharedResource) ActiveWeight() float64 {
	return s.holds + s.jobWeight
}

// ActiveJobs returns the number of running jobs.
func (s *SharedResource) ActiveJobs() int { return len(s.jobs) }

// WorkIntegral returns ∫ delivered-rate dt up to now (work-seconds).
func (s *SharedResource) WorkIntegral() float64 {
	s.advance()
	s.reschedule()
	return s.workInt
}

// Utilization returns the average delivered rate over [t0, now] as a
// fraction of MaxRate, given the work integral observed at t0. This is what
// the monitoring manager samples as "CPU usage %".
func (s *SharedResource) Utilization(workIntAtT0, t0 float64) float64 {
	now := s.eng.Now()
	if now <= t0 || s.MaxRate <= 0 {
		return 0
	}
	return (s.WorkIntegral() - workIntAtT0) / (s.MaxRate * (now - t0))
}

// advance applies elapsed time to every running job at its current rate and
// fires completions that are (numerically) due.
//
//simlint:noalloc steady-state job churn
func (s *SharedResource) advance() {
	now := s.eng.Now()
	dt := now - s.lastT
	if dt <= 0 {
		return
	}
	s.lastT = now
	w := s.ActiveWeight()
	if w <= 0 {
		return
	}
	total := s.TotalRate(w)
	s.workInt += total * dt
	const eps = 1e-12
	// Completions fire in insertion order (the slice order), which — unlike
	// the old map iteration — makes simultaneous completions deterministic.
	// Survivors are compacted in place; their remaining work was already
	// decremented at the old (slower) rate for this slice, which is the
	// correct PS semantics.
	uniform := s.nonUnit == 0
	step := total / w * dt
	minRem := math.Inf(1)
	kept := s.jobs[:0]
	for _, j := range s.jobs {
		if uniform {
			j.remaining -= step
		} else {
			rate := j.weight * total / w
			j.remaining -= rate * dt
		}
		if j.remaining <= eps {
			s.jobWeight -= j.weight
			if j.weight != 1 {
				s.nonUnit--
			}
			s.eng.Schedule(0, j.onDone)
			s.releaseJob(j)
		} else {
			kept = append(kept, j)
			if j.remaining < minRem {
				minRem = j.remaining
			}
		}
	}
	s.minRem = minRem
	for i := len(kept); i < len(s.jobs); i++ {
		s.jobs[i] = nil
	}
	s.jobs = kept
	if len(s.jobs) == 0 {
		s.jobWeight = 0
	}
}

// reschedule recomputes the next completion event, moving the pending
// event in place when possible so the calendar stays free of cancelled
// tombstones.
//
//simlint:noalloc steady-state job churn; completeFn is bound once in NewSharedResource
func (s *SharedResource) reschedule() {
	if len(s.jobs) == 0 {
		// Holds alone never complete; nothing to schedule.
		if s.hasNext {
			s.nextEv.Cancel()
			s.hasNext = false
		}
		return
	}
	w := s.ActiveWeight()
	total := s.TotalRate(w)
	if total <= 0 {
		if s.hasNext {
			s.nextEv.Cancel()
			s.hasNext = false
		}
		return
	}
	var soonest float64
	if s.nonUnit == 0 {
		soonest = s.minRem / (total / w)
	} else {
		soonest = math.Inf(1)
		for _, j := range s.jobs {
			rate := j.weight * total / w
			t := j.remaining / rate
			if t < soonest {
				soonest = t
			}
		}
	}
	// At large clock values now+soonest can collapse to exactly now (the
	// residue left by advance's float subtraction is below one ulp of the
	// clock); a completion firing with dt == 0 makes no progress, so pin
	// the event at least one ulp into the future. Runs whose completions
	// stay above ulp scale — every run that terminated before this guard
	// existed — are bit-identical: the branch only fires where the old
	// code would have rescheduled the same instant forever.
	now := s.eng.Now()
	at := now + soonest
	if at <= now {
		at = math.Nextafter(now, math.Inf(1))
	}
	if s.hasNext && s.eng.Reschedule(s.nextEv, at) {
		return
	}
	s.nextEv = s.eng.At(at, s.completeFn)
	s.hasNext = true
}
