package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refPS is the reference processor-sharing resource that SharedResource's
// shared step and cached minimum are checked against: every resource event
// walks every job and divides once per job, the next completion is the
// minimum of the per-job quotients, and the job weight is a running sum.
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
	remaining float64
	onDone    func()
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

func (s *refPS) add(work float64, onDone func()) {
	if work <= 0 {
		s.eng.Schedule(0, onDone)
		return
	}
	s.advance()
	s.jobs = append(s.jobs, &refJob{remaining: work, onDone: onDone})
	s.jobWeight++
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
		rate := total / w
		j.remaining -= rate * dt
		if j.remaining <= 1e-12 {
			s.jobWeight--
			s.eng.Schedule(0, j.onDone)
		} else {
			kept = append(kept, j)
		}
	}
	s.jobs = kept
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
		rate := total / w
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
// the same seeded op scripts — unit jobs, including zero-work jobs and tied
// completions; holds of non-unit weight; Sync, Crash, Reset and
// WorkIntegral — on CPU and GPU rate curves, from a clock at 0 and at 1e7.
// Every completion instant, every remaining work and every work integral
// must agree bit for bit.
func TestSharedResourceMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		runSharedEquiv(t, fmt.Sprintf("seed %d", seed), rand.New(rand.NewSource(seed)), 500)
	}
}

// FuzzSharedResource drives the differential script of
// TestSharedResourceMatchesReference from the fuzzer's bytes, one choice
// per byte. The seed corpus is in testdata/fuzz/FuzzSharedResource.
func FuzzSharedResource(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		runSharedEquiv(t, "fuzz input", &byteScript{b: b}, min(len(b), 512))
	})
}

// opScript supplies a differential script's choices: a seeded *rand.Rand
// for the property tests, fuzz bytes for the fuzz targets.
type opScript interface {
	Intn(n int) int
	Float64() float64
}

// byteScript reads one choice per byte, then zeros once the bytes run out.
type byteScript struct{ b []byte }

func (s *byteScript) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *byteScript) Intn(n int) int   { return int(s.next()) % n }
func (s *byteScript) Float64() float64 { return float64(s.next()) / 256 }

type psDone struct {
	id int
	t  float64
}

func runSharedEquiv(t *testing.T, script string, r opScript, nOps int) {
	t.Helper()
	eN, eR := NewEngine(), NewEngine()
	var sN *SharedResource
	if r.Intn(2) == 0 {
		sN = NewCPU(eN, 2)
	} else {
		sN = NewGPU(eN, 3, 4)
	}
	sR := newRefPS(eR, sN.TotalRate)
	if r.Intn(3) == 0 {
		// At a large clock, completions can fall below one ulp of it.
		eN.Run(1e7)
		eR.Run(1e7)
		sN.Sync()
		sR.workIntegral()
	}

	var logN, logR []psDone
	var holds []float64
	weights := []float64{0.5, 2, 3}
	jobs := 0

	fail := func(op string, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s after %s: "+format, append([]any{script, op}, args...)...)
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
		if len(sN.done) != len(sN.rem) {
			fail(op, "%d callbacks for %d jobs", len(sN.done), len(sN.rem))
		}
		minRem := math.Inf(1)
		for i, rem := range sN.rem {
			if math.Float64bits(rem) != math.Float64bits(sR.jobs[i].remaining) {
				fail(op, "job %d remaining %v, reference %v", i, rem, sR.jobs[i].remaining)
			}
			minRem = math.Min(minRem, rem)
		}
		// The soonest completion divides the cached minimum, so a stale
		// minRem would show only as a late or early event; check it directly.
		if math.Float64bits(sN.minRem) != math.Float64bits(minRem) {
			fail(op, "minRem %v, want %v", sN.minRem, minRem)
		}
	}

	for op := 0; op < nOps; op++ {
		switch k := r.Intn(100); {
		case k < 40:
			work := r.Float64() * 3
			switch r.Intn(10) {
			case 0:
				work = 0 // completes through the calendar at once
			case 1, 2:
				work = 1 // ties: simultaneous completions
			}
			id := jobs
			jobs++
			sN.Add(work, 1, func() { logN = append(logN, psDone{id, eN.Now()}) })
			sR.add(work, func() { logR = append(logR, psDone{id, eR.Now()}) })
			check("add")
		case k < 49:
			w := weights[r.Intn(len(weights))]
			holds = append(holds, w)
			sN.AddHold(w)
			sR.hold(w)
			check("add hold")
		case k < 56:
			if n := len(holds); n > 0 {
				i := r.Intn(n)
				w := holds[i]
				holds = append(holds[:i], holds[i+1:]...)
				sN.RemoveHold(w)
				sR.hold(-w)
				check("remove hold")
			}
		case k < 61:
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
		case k < 82:
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
