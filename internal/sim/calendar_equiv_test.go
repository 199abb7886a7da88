package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file keeps the pre-ladder event calendar — the single binary heap the
// kernel shipped with through PR 2 — as a test-only reference
// implementation, and drives randomized Schedule/Cancel/Reschedule/Run/Step
// sequences through both calendars side by side. The firing sequence (event
// identity and bit-exact clock value) must be identical: the ladder is a
// performance structure, never a semantic one.

// --- reference implementation (the old container/heap engine) --------------

type refEngine struct {
	now    float64
	seq    int64
	events refHeap
}

type refEvent struct {
	time      float64
	seq       int64
	fn        func()
	index     int
	cancelled bool
}

func (ev *refEvent) Cancel() { ev.cancelled = true }

func (e *refEngine) Schedule(delay float64, fn func()) *refEvent {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

func (e *refEngine) At(t float64, fn func()) *refEvent {
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	e.seq++
	ev := &refEvent{time: t, seq: e.seq, fn: fn}
	heap.Push(&e.events, ev)
	return ev
}

func (e *refEngine) Reschedule(ev *refEvent, t float64) bool {
	if ev == nil || ev.cancelled || ev.index < 0 {
		return false
	}
	if t < e.now || math.IsNaN(t) {
		t = e.now
	}
	e.seq++
	ev.time = t
	ev.seq = e.seq
	heap.Fix(&e.events, ev.index)
	return true
}

func (e *refEngine) Step() bool {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*refEvent)
		if ev.cancelled {
			continue
		}
		e.now = ev.time
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) Run(until float64) {
	for e.events.Len() > 0 {
		next := e.events[0]
		if next.cancelled {
			heap.Pop(&e.events)
			continue
		}
		if next.time > until {
			break
		}
		heap.Pop(&e.events)
		e.now = next.time
		next.fn()
	}
	if e.now < until {
		e.now = until
	}
}

func (e *refEngine) Pending() int {
	n := 0
	for _, ev := range e.events {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// --- side-by-side property test --------------------------------------------

type fireRec struct {
	id int
	t  float64
}

// eventFire logs a firing and optionally spawns a child event with a delay
// fixed at schedule time, exercising nested scheduling identically in both
// calendars. Child ids derive deterministically from the parent's.
func newFireFn(log *[]fireRec, now func() float64, sched func(delay float64, fn func()), id int, childDelay float64) func() {
	return func() {
		*log = append(*log, fireRec{id, now()})
		if childDelay >= 0 {
			childID := -(id + 1000)
			sched(childDelay, newFireFn(log, now, sched, childID, -1))
		}
	}
}

func TestCalendarMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runCalendarEquiv(t, fmt.Sprintf("seed %d", seed), rand.New(rand.NewSource(seed)), 400)
	}
}

// FuzzCalendar drives the ladder against refEngine from fuzz bytes, one
// choice per byte. The seed corpus (testdata/fuzz/FuzzCalendar) holds a
// dense single bucket of over a hundred co-resident events and a script
// that crosses maxBucketable into the flat-heap degrade path.
func FuzzCalendar(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		runCalendarEquiv(t, "fuzz input", &byteScript{b: b}, min(len(b), 512))
	})
}

func runCalendarEquiv(t *testing.T, script string, r opScript, nOps int) {
	t.Helper()
	eNew := NewEngine()
	eOld := &refEngine{}
	var logNew, logOld []fireRec
	schedNew := func(d float64, fn func()) { eNew.Schedule(d, fn) }
	schedOld := func(d float64, fn func()) { eOld.Schedule(d, fn) }

	type pair struct {
		nev Event
		oev *refEvent
	}
	var handles []pair // includes fired/cancelled handles: staleness must agree
	nextID := 0

	randDelay := func() float64 {
		switch r.Intn(10) {
		case 0:
			return 0 // the Schedule(0, ...) hot path
		case 1, 2:
			return r.Float64() * 0.05 // same-bucket churn
		case 3, 4, 5:
			return r.Float64() * 2 // near ring
		case 6, 7:
			return r.Float64() * 30 // beyond the 8 s ring horizon
		case 8:
			return r.Float64() * 300 // deep overflow
		default:
			return -r.Float64() // negative: clamps to now
		}
	}

	schedulePair := func(t float64, absolute bool) {
		id := nextID
		nextID++
		childDelay := -1.0
		if r.Intn(10) < 3 {
			childDelay = r.Float64()
		}
		fnN := newFireFn(&logNew, eNew.Now, schedNew, id, childDelay)
		fnO := newFireFn(&logOld, func() float64 { return eOld.now }, schedOld, id, childDelay)
		if absolute {
			handles = append(handles, pair{eNew.At(t, fnN), eOld.At(t, fnO)})
		} else {
			handles = append(handles, pair{eNew.Schedule(t, fnN), eOld.Schedule(t, fnO)})
		}
	}

	check := func(op string) {
		if len(logNew) != len(logOld) {
			t.Fatalf("%s after %s: fired %d vs reference %d", script, op, len(logNew), len(logOld))
		}
		for i := range logNew {
			if logNew[i].id != logOld[i].id || math.Float64bits(logNew[i].t) != math.Float64bits(logOld[i].t) {
				t.Fatalf("%s after %s: fire %d = %+v, reference %+v", script, op, i, logNew[i], logOld[i])
			}
		}
		if math.Float64bits(eNew.Now()) != math.Float64bits(eOld.now) {
			t.Fatalf("%s after %s: now %v vs reference %v", script, op, eNew.Now(), eOld.now)
		}
		if eNew.Pending() != eOld.Pending() {
			t.Fatalf("%s after %s: pending %d vs reference %d", script, op, eNew.Pending(), eOld.Pending())
		}
	}

	for op := 0; op < nOps; op++ {
		switch k := r.Intn(100); {
		case k < 45:
			schedulePair(randDelay(), false)
		case k < 54:
			schedulePair(eNew.Now()+r.Float64()*5-2, true) // absolute, possibly past
		case k < 55:
			// Beyond maxBucketable buckets: once it is the calendar's
			// earliest event, the ladder degrades to one flat heap. The
			// final Step drain below fires every such event.
			schedulePair(maxBucketable*bucketW*(2+2*r.Float64()), true)
		case k < 65:
			if len(handles) > 0 {
				p := handles[r.Intn(len(handles))]
				p.nev.Cancel()
				p.oev.Cancel()
			}
		case k < 75:
			if len(handles) > 0 {
				p := handles[r.Intn(len(handles))]
				target := eNew.Now() + r.Float64()*11 - 1
				gotN := eNew.Reschedule(p.nev, target)
				gotO := eOld.Reschedule(p.oev, target)
				if gotN != gotO {
					t.Fatalf("%s: Reschedule returned %v, reference %v", script, gotN, gotO)
				}
			}
		case k < 80:
			sn, so := eNew.Step(), eOld.Step()
			if sn != so {
				t.Fatalf("%s: Step returned %v, reference %v", script, sn, so)
			}
			check("step")
		default:
			until := eNew.Now() + r.Float64()*4 - 1 // a quarter lie in the past
			eNew.Run(until)
			eOld.Run(until)
			check("run")
		}
		checkCalendarTiers(t, script, eNew)
	}
	eNew.Run(1e9)
	eOld.Run(1e9)
	check("final run")
	// Drain both calendars completely, past maxBucketable if need be.
	for eNew.Step() {
		if !eOld.Step() {
			t.Fatalf("%s: reference calendar ran dry first", script)
		}
		checkCalendarTiers(t, script, eNew)
	}
	if eOld.Step() {
		t.Fatalf("%s: ladder ran dry first", script)
	}
	check("final drain")
	checkCalendarTiers(t, script, eNew)
}

// checkCalendarTiers checks the ladder's structure: front and over are
// binary min-heaps, every entry lies in its tier's time range (a ring entry
// in its bucket's slot), every node's loc/slot/pos back-pointer names the
// place that holds it, and the tiers hold exactly the live events.
func checkCalendarTiers(t *testing.T, script string, e *Engine) {
	t.Helper()
	checkHeap := func(name string, h []entry, l loc, inRange func(float64) bool) {
		t.Helper()
		for i, ent := range h {
			if i > 0 && entryLess(ent, h[(i-1)/2]) {
				t.Fatalf("%s: %s[%d] %+v precedes its parent %+v", script, name, i, ent, h[(i-1)/2])
			}
			if !inRange(ent.time) {
				t.Fatalf("%s: %s[%d] at t=%v is outside the tier", script, name, i, ent.time)
			}
			if nd := e.nodes[ent.idx]; nd.loc != l || int(nd.pos) != i {
				t.Fatalf("%s: %s[%d] node says loc %d pos %d", script, name, i, nd.loc, nd.pos)
			}
		}
	}
	checkHeap("front", e.front, locFront, func(at float64) bool { return at < e.frontEnd })
	checkHeap("over", e.over, locOver, func(at float64) bool { return at >= e.ringEnd })
	ringN := 0
	for s, sl := range e.ring {
		for i, ent := range sl {
			if ent.time < e.frontEnd || ent.time >= e.ringEnd || int(int64(ent.time*invBucketW)&ringMask) != s {
				t.Fatalf("%s: ring[%d][%d] at t=%v is outside its bucket", script, s, i, ent.time)
			}
			if nd := e.nodes[ent.idx]; nd.loc != locRing || int(nd.slot) != s || int(nd.pos) != i {
				t.Fatalf("%s: ring[%d][%d] node says loc %d slot %d pos %d", script, s, i, nd.loc, nd.slot, nd.pos)
			}
		}
		ringN += len(sl)
	}
	if ringN != e.ringN {
		t.Fatalf("%s: ring holds %d entries, count says %d", script, ringN, e.ringN)
	}
	if n := len(e.front) + ringN + len(e.over); n != e.live {
		t.Fatalf("%s: tiers hold %d entries, %d events are live", script, n, e.live)
	}
}
