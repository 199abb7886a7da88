package sim

import (
	"math"
	"math/rand"
	"testing"
)

// refPS is the reference processor-sharing resource that SharedResource's
// uniform-weight fast path and cached minimum are checked against: every
// resource event walks every job and divides once per job, whatever the
// weights, and the next completion is the minimum of the per-job quotients.
type refPS struct {
	eng              *Engine
	totalRate        func(float64) float64
	jobs             []*refJob
	jobWeight, holds float64
	next             Event
	hasNext          bool
	complete         func()
	lastT, workInt   float64
}

type refJob struct {
	remaining, weight float64
	onDone            func()
	live              bool
}

func newRefPS(eng *Engine, totalRate func(float64) float64) *refPS {
	s := &refPS{eng: eng, totalRate: totalRate, lastT: eng.Now()}
	s.complete = func() {
		s.hasNext = false
		s.advance()
		s.reschedule()
	}
	return s
}

func (s *refPS) add(work, weight float64, onDone func()) *refJob {
	if work <= 0 {
		s.eng.Schedule(0, onDone)
		return nil
	}
	s.advance()
	j := &refJob{remaining: work, weight: weight, onDone: onDone, live: true}
	s.jobs = append(s.jobs, j)
	s.jobWeight += weight
	s.reschedule()
	return j
}

func (s *refPS) cancel(j *refJob) {
	if j == nil || !j.live {
		return
	}
	s.advance()
	if !j.live {
		return
	}
	for i, other := range s.jobs {
		if other == j {
			s.jobs = append(s.jobs[:i], s.jobs[i+1:]...)
			break
		}
	}
	j.live = false
	s.jobWeight -= j.weight
	if len(s.jobs) == 0 {
		s.jobWeight = 0
	}
	s.reschedule()
}

// hold adds dw to the persistent load (negative dw removes it), floored at 0.
func (s *refPS) hold(dw float64) {
	s.advance()
	s.holds += dw
	if s.holds < 0 {
		s.holds = 0
	}
	s.reschedule()
}

func (s *refPS) dropJobs() {
	for _, j := range s.jobs {
		j.live = false
	}
	s.jobs = s.jobs[:0]
	s.jobWeight, s.holds = 0, 0
}

func (s *refPS) crash() {
	if dt := s.eng.Now() - s.lastT; dt > 0 {
		if w := s.holds + s.jobWeight; w > 0 {
			s.workInt += s.totalRate(w) * dt
		}
		s.lastT = s.eng.Now()
	}
	s.dropJobs()
	if s.hasNext {
		s.next.Cancel()
		s.hasNext = false
	}
}

// reset follows an Engine.Reset, which has already dropped the pending event.
func (s *refPS) reset() {
	s.dropJobs()
	s.hasNext = false
	s.lastT, s.workInt = s.eng.Now(), 0
}

func (s *refPS) workIntegral() float64 {
	s.advance()
	s.reschedule()
	return s.workInt
}

func (s *refPS) advance() {
	dt := s.eng.Now() - s.lastT
	if dt <= 0 {
		return
	}
	s.lastT = s.eng.Now()
	w := s.holds + s.jobWeight
	if w <= 0 {
		return
	}
	total := s.totalRate(w)
	s.workInt += total * dt
	kept := s.jobs[:0]
	for _, j := range s.jobs {
		rate := j.weight * total / w
		j.remaining -= rate * dt
		if j.remaining <= 1e-12 {
			s.jobWeight -= j.weight
			j.live = false
			s.eng.Schedule(0, j.onDone)
		} else {
			kept = append(kept, j)
		}
	}
	s.jobs = kept
	if len(s.jobs) == 0 {
		s.jobWeight = 0
	}
}

func (s *refPS) reschedule() {
	w := s.holds + s.jobWeight
	total := s.totalRate(w)
	if len(s.jobs) == 0 || total <= 0 {
		if s.hasNext {
			s.next.Cancel()
			s.hasNext = false
		}
		return
	}
	soonest := math.Inf(1)
	for _, j := range s.jobs {
		rate := j.weight * total / w
		if t := j.remaining / rate; t < soonest {
			soonest = t
		}
	}
	now := s.eng.Now()
	at := now + soonest
	if at <= now {
		at = math.Nextafter(now, math.Inf(1))
	}
	if s.hasNext && s.eng.Reschedule(s.next, at) {
		return
	}
	s.next = s.eng.At(at, s.complete)
	s.hasNext = true
}

// TestSharedResourceMatchesReference drives SharedResource and refPS through
// the same seeded op scripts — unit and non-unit weights, so the resource
// flips between its uniform and weighted paths both ways; holds; cancels of
// the minimum job, of a weighted job and of stale handles; Sync, Crash,
// Reset and WorkIntegral — on CPU and GPU rate curves, from a clock at 0
// and at 1e7. Every completion instant and every work integral must agree
// bit for bit.
func TestSharedResourceMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		runSharedEquiv(t, seed, 500)
	}
}

type psDone struct {
	id int
	t  float64
}

func runSharedEquiv(t *testing.T, seed int64, nOps int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	eN, eR := NewEngine(), NewEngine()
	var sN *SharedResource
	if seed%2 == 0 {
		sN = NewCPU(eN, 2)
	} else {
		sN = NewGPU(eN, 3, 4)
	}
	sR := newRefPS(eR, sN.TotalRate)
	if seed%3 == 0 {
		// At a large clock, completions can fall below one ulp of it.
		eN.Run(1e7)
		eR.Run(1e7)
		sN.Sync()
		sR.workIntegral()
	}

	var logN, logR []psDone
	type pair struct {
		nj Job
		rj *refJob // nil for a zero-work job, which never runs
	}
	var jobs []pair
	var holds []float64
	weights := []float64{0.5, 2, 3}

	fail := func(op string, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d after %s: "+format, append([]any{seed, op}, args...)...)
	}
	check := func(op string) {
		t.Helper()
		if len(logN) != len(logR) {
			fail(op, "%d completions, reference %d", len(logN), len(logR))
		}
		for i := range logN {
			if logN[i].id != logR[i].id || math.Float64bits(logN[i].t) != math.Float64bits(logR[i].t) {
				fail(op, "completion %d = %+v, reference %+v", i, logN[i], logR[i])
			}
		}
		if math.Float64bits(eN.Now()) != math.Float64bits(eR.Now()) || eN.Pending() != eR.Pending() {
			fail(op, "clock %v pending %d, reference %v pending %d", eN.Now(), eN.Pending(), eR.Now(), eR.Pending())
		}
		if sN.ActiveJobs() != len(sR.jobs) ||
			math.Float64bits(sN.ActiveWeight()) != math.Float64bits(sR.holds+sR.jobWeight) {
			fail(op, "%d jobs weight %v, reference %d jobs weight %v",
				sN.ActiveJobs(), sN.ActiveWeight(), len(sR.jobs), sR.holds+sR.jobWeight)
		}
		// A stale count only costs speed (the weighted path is exact too),
		// so the bookkeeping is checked directly.
		nonUnit, minRem := 0, math.Inf(1)
		for _, j := range sN.jobs {
			if j.weight != 1 {
				nonUnit++
			}
			minRem = math.Min(minRem, j.remaining)
		}
		if sN.nonUnit != nonUnit || sN.minRem != minRem {
			fail(op, "nonUnit %d minRem %v, want %d and %v", sN.nonUnit, sN.minRem, nonUnit, minRem)
		}
	}

	for op := 0; op < nOps; op++ {
		switch k := r.Intn(100); {
		case k < 35:
			work := r.Float64() * 3
			switch r.Intn(10) {
			case 0:
				work = 0 // completes through the calendar at once
			case 1, 2:
				work = 1 // ties: simultaneous completions
			}
			weight := 1.0
			if r.Intn(4) == 0 {
				weight = weights[r.Intn(len(weights))]
			}
			id := len(jobs)
			nj := sN.Add(work, weight, func() { logN = append(logN, psDone{id, eN.Now()}) })
			rj := sR.add(work, weight, func() { logR = append(logR, psDone{id, eR.Now()}) })
			jobs = append(jobs, pair{nj, rj})
			check("add")
		case k < 42:
			// Cancel the job with the least remaining work.
			min := -1
			for i, p := range jobs {
				if p.rj != nil && p.rj.live && (min < 0 || p.rj.remaining < jobs[min].rj.remaining) {
					min = i
				}
			}
			if min >= 0 {
				jobs[min].nj.Cancel()
				sR.cancel(jobs[min].rj)
				check("cancel min")
			}
		case k < 47:
			// Cancel a live non-unit job, else any handle (possibly stale).
			pick := -1
			for i, p := range jobs {
				if p.rj != nil && p.rj.live && p.rj.weight != 1 {
					pick = i
					break
				}
			}
			if pick < 0 && len(jobs) > 0 {
				pick = r.Intn(len(jobs))
			}
			if pick >= 0 {
				jobs[pick].nj.Cancel()
				sR.cancel(jobs[pick].rj)
				check("cancel")
			}
		case k < 53:
			w := weights[r.Intn(len(weights))]
			holds = append(holds, w)
			sN.AddHold(w)
			sR.hold(w)
			check("add hold")
		case k < 58:
			if n := len(holds); n > 0 {
				i := r.Intn(n)
				w := holds[i]
				holds = append(holds[:i], holds[i+1:]...)
				sN.RemoveHold(w)
				sR.hold(-w)
				check("remove hold")
			}
		case k < 62:
			sN.Sync()
			sR.advance()
			sR.reschedule()
			check("sync")
		case k < 67:
			wN, wR := sN.WorkIntegral(), sR.workIntegral()
			if math.Float64bits(wN) != math.Float64bits(wR) {
				fail("work integral", "%v, reference %v", wN, wR)
			}
			check("work integral")
		case k < 69:
			sN.Crash()
			sR.crash()
			holds = holds[:0]
			check("crash")
		case k < 70:
			eN.Reset()
			eR.Reset()
			sN.Reset(sN.MaxRate, nil)
			sR.reset()
			holds = holds[:0]
			check("reset")
		case k < 80:
			sn, sr := eN.Step(), eR.Step()
			if sn != sr {
				fail("step", "Step returned %v, reference %v", sn, sr)
			}
			check("step")
		default:
			until := eN.Now() + r.Float64()*2
			eN.Run(until)
			eR.Run(until)
			check("run")
		}
	}
	until := eN.Now() + 1e6
	eN.Run(until)
	eR.Run(until)
	check("final drain")
	if wN, wR := sN.WorkIntegral(), sR.workIntegral(); math.Float64bits(wN) != math.Float64bits(wR) {
		fail("final drain", "work integral %v, reference %v", wN, wR)
	}
}
