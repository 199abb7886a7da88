package sim

import "math"

// SharedResource models a capacity shared among concurrent unit jobs under
// processor sharing with a configurable aggregate-rate curve, plus
// persistent holds that consume capacity without ever completing.
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
// With w = holds + (number of running jobs), every job runs at the one rate
// TotalRate(w)/w. Each resource event walks the running jobs once; the next
// completion follows from the cached minimum of remaining work with one
// divide.
type SharedResource struct {
	eng *Engine
	// TotalRate maps the active weight (holds plus running jobs) to the
	// delivered aggregate rate (work units per second). Must be positive
	// for positive weight.
	TotalRate func(activeWeight float64) float64
	// MaxRate is the rate used as the denominator for utilization
	// accounting (e.g. number of cores).
	MaxRate float64

	// rem and done are the running jobs' remaining work and completion
	// callbacks: parallel slices in insertion order, which is the
	// completion order of simultaneous finishers. advance compacts both in
	// one walk per resource event.
	rem  []float64
	done []func()
	// minRem is the least of rem (+Inf when no job runs). advance
	// recomputes it and Add folds in the new job's work. Every job runs at
	// the same rate, and correctly rounded division by a positive constant
	// is monotone, so the soonest completion is minRem/(total/w).
	minRem  float64
	holds   float64 // weight of persistent loads (see AddHold)
	nextEv  Event
	hasNext bool
	// completeFn is the next-completion callback, bound once so the
	// reschedule path never allocates a closure.
	completeFn func()
	lastT      float64
	workInt    float64 // ∫ delivered rate dt (work-seconds, for utilization)
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
	return func(w float64) float64 { return min(w, cores) }
}

// NewCPU returns a processor-sharing CPU with the given core count.
func NewCPU(eng *Engine, cores float64) *SharedResource {
	return NewSharedResource(eng, cores, CPURate(cores))
}

// NewGPU returns a GPU whose aggregate throughput saturates at ksat
// concurrent jobs, with peak aggregate rate peak.
func NewGPU(eng *Engine, peak float64, ksat float64) *SharedResource {
	return NewSharedResource(eng, peak, func(w float64) float64 {
		if w <= 0 {
			return 0
		}
		return peak * min(w, ksat) / ksat
	})
}

// Add submits a job with the given amount of work; onDone fires when the
// work completes. Every job weighs 1: weight must be exactly 1, and any
// other value panics.
//
//simlint:noalloc steady-state job churn
func (s *SharedResource) Add(work, weight float64, onDone func()) {
	if weight != 1 {
		panic("sim: SharedResource job weight must be 1")
	}
	if work <= 0 {
		// Zero-length jobs complete immediately (via the calendar for
		// deterministic ordering).
		s.eng.Schedule(0, onDone)
		return
	}
	s.advance()
	s.rem = append(s.rem, work)
	s.done = append(s.done, onDone)
	if work < s.minRem {
		s.minRem = work
	}
	s.reschedule()
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

// dropJobs forgets every running job and hold without firing a completion.
//
//simlint:noalloc
func (s *SharedResource) dropJobs() {
	clear(s.done)
	s.rem, s.done = s.rem[:0], s.done[:0]
	s.holds, s.minRem = 0, math.Inf(1)
}

// Reset returns the resource to a fresh state after an Engine.Reset,
// keeping the job slices' capacity so the next run's steady state allocates
// nothing. totalRate replaces the rate curve when non-nil (rate curves
// usually close over run parameters, so pooled callers rebind them per
// run); maxRate is only applied alongside a non-nil totalRate.
//
//simlint:noalloc pooled-reuse path (PR 5 contract)
func (s *SharedResource) Reset(maxRate float64, totalRate func(float64) float64) {
	s.dropJobs()
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
// so no stale continuation can run on the crashed resource.
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
	s.dropJobs()
	if s.hasNext {
		s.nextEv.Cancel()
		s.hasNext = false
	}
}

// ActiveWeight returns the current total weight: holds plus one per
// running job.
func (s *SharedResource) ActiveWeight() float64 {
	return s.holds + float64(len(s.rem))
}

// ActiveJobs returns the number of running jobs.
func (s *SharedResource) ActiveJobs() int { return len(s.rem) }

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

// advance charges elapsed time to every running job at the shared rate and
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
	// Completions fire in insertion order (the slice order), so
	// simultaneous completions are deterministic. Survivors are compacted
	// in place; their remaining work was charged at the old (slower) rate
	// for this slice, which is the correct PS semantics.
	step := total / w * dt
	minRem := math.Inf(1)
	n := 0
	for i, r := range s.rem {
		r -= step
		if r <= eps {
			s.eng.Schedule(0, s.done[i])
			continue
		}
		s.rem[n] = r
		if n != i {
			// A callback store is a pointer write behind the GC write
			// barrier; only the survivors after a completion move.
			s.done[n] = s.done[i]
		}
		n++
		if r < minRem {
			minRem = r
		}
	}
	if n < len(s.done) {
		clear(s.done[n:])
		s.rem, s.done = s.rem[:n], s.done[:n]
	}
	s.minRem = minRem
}

// reschedule recomputes the next completion event, moving the pending
// event in place when possible so the calendar stays free of cancelled
// tombstones.
//
//simlint:noalloc steady-state job churn; completeFn is bound once in NewSharedResource
func (s *SharedResource) reschedule() {
	if len(s.rem) == 0 {
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
	soonest := s.minRem / (total / w)
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
