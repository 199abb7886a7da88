package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(2, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(3, func() { order = append(order, 3) })
	e.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Errorf("clock = %v, want 10", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of order at %d: %v", i, v)
		}
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5, func() { fired = true })
	e.Run(4)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if e.Now() != 4 {
		t.Errorf("clock = %v, want 4", e.Now())
	}
	e.Run(6)
	if !fired {
		t.Error("event not fired after extending horizon")
	}
}

// TestRunNeverMovesClockBack: a Run to a target before Now fires nothing
// and leaves the clock where it was, whether an event is still queued
// beyond it (in the front heap or in overflow) or the calendar is empty.
func TestRunNeverMovesClockBack(t *testing.T) {
	for _, far := range []float64{10, 1000} {
		e := NewEngine()
		var fired []float64
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
		e.Schedule(far, func() { fired = append(fired, e.Now()) })
		e.Run(6)
		e.Run(2)
		if e.Now() != 6 {
			t.Errorf("far=%v: clock = %v after Run(6), Run(2); want 6", far, e.Now())
		}
		if len(fired) != 1 || e.Pending() != 1 {
			t.Errorf("far=%v: fired at %v, %d pending; want [5] and 1", far, fired, e.Pending())
		}
		e.Run(far + 1)
		e.Run(3)
		if e.Now() != far+1 || len(fired) != 2 || fired[1] != far {
			t.Errorf("far=%v: clock %v, fired at %v; want clock %v, fired at [5 %v]", far, e.Now(), fired, far+1, far)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	ev.Cancel()
	e.Run(2)
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d", e.Pending())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {
		e.Schedule(-5, func() {
			if e.Now() != 1 {
				t.Errorf("negative delay fired at %v", e.Now())
			}
		})
	})
	e.Run(2)
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() { times = append(times, e.Now()) })
	})
	e.Run(5)
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Errorf("times = %v", times)
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(1, func() { n++ })
	e.Schedule(2, func() { n++ })
	if !e.Step() || n != 1 || e.Now() != 1 {
		t.Fatalf("first step: n=%d now=%v", n, e.Now())
	}
	if !e.Step() || n != 2 {
		t.Fatalf("second step: n=%d", n)
	}
	if e.Step() {
		t.Error("Step on empty calendar returned true")
	}
}

func TestPoolFIFOAndCounts(t *testing.T) {
	e := NewEngine()
	p := NewPool(e, "http", 2)
	var granted []int
	for i := 0; i < 5; i++ {
		i := i
		p.Request(func() {
			granted = append(granted, i)
			e.Schedule(1, p.Release)
		})
	}
	e.Run(100)
	if len(granted) != 5 {
		t.Fatalf("granted %d, want 5", len(granted))
	}
	for i, v := range granted {
		if v != i {
			t.Fatalf("grant order %v not FIFO", granted)
		}
	}
	if p.Busy() != 0 || p.Queued() != 0 {
		t.Errorf("pool not drained: busy=%d queued=%d", p.Busy(), p.Queued())
	}
	if p.Grants() != 5 {
		t.Errorf("Grants = %d", p.Grants())
	}
	if p.MaxQueued() != 3 {
		t.Errorf("MaxQueued = %d, want 3", p.MaxQueued())
	}
}

func TestPoolBusyIntegral(t *testing.T) {
	e := NewEngine()
	p := NewPool(e, "x", 2)
	// Two holders for 3s each, starting immediately: busy integral = 6.
	for i := 0; i < 2; i++ {
		p.Request(func() { e.Schedule(3, p.Release) })
	}
	e.Run(10)
	if got := p.BusyIntegral(); math.Abs(got-6) > 1e-9 {
		t.Errorf("BusyIntegral = %v, want 6", got)
	}
	// Average utilization over [0,10] with 2 slots = 6/20.
	if got := p.Utilization(0, 0); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("Utilization = %v, want 0.3", got)
	}
}

func TestPoolQueueIntegral(t *testing.T) {
	e := NewEngine()
	p := NewPool(e, "x", 1)
	p.Request(func() { e.Schedule(2, p.Release) })
	p.Request(func() { e.Schedule(2, p.Release) }) // waits 2s in queue
	e.Run(10)
	if got := p.QueueIntegral(); math.Abs(got-2) > 1e-9 {
		t.Errorf("QueueIntegral = %v, want 2", got)
	}
}

func TestPoolReleasePanicsWhenIdle(t *testing.T) {
	e := NewEngine()
	p := NewPool(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release on idle pool did not panic")
		}
	}()
	p.Release()
}

func TestSharedResourceSingleJob(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 4)
	var doneAt float64
	cpu.Add(2, 1, func() { doneAt = e.Now() }) // 2 units of work at rate 1
	e.Run(100)
	if math.Abs(doneAt-2) > 1e-9 {
		t.Errorf("single job done at %v, want 2", doneAt)
	}
}

func TestSharedResourceProcessorSharing(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 1) // 1 core
	var at []float64
	// Two equal jobs of 1s of work share the core: both finish at t=2.
	cpu.Add(1, 1, func() { at = append(at, e.Now()) })
	cpu.Add(1, 1, func() { at = append(at, e.Now()) })
	e.Run(100)
	if len(at) != 2 || math.Abs(at[0]-2) > 1e-9 || math.Abs(at[1]-2) > 1e-9 {
		t.Errorf("completion times = %v, want [2 2]", at)
	}
}

func TestSharedResourceUnequalArrival(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 1)
	var a, b float64
	cpu.Add(1, 1, func() { a = e.Now() })
	e.Schedule(0.5, func() { cpu.Add(1, 1, func() { b = e.Now() }) })
	e.Run(100)
	// Job A: runs alone [0,0.5] (0.5 done), shares [0.5,1.5] (0.5 done) -> 1.5.
	// Job B: shares [0.5,1.5] (0.5 done), runs alone [1.5,2.0] -> 2.0.
	if math.Abs(a-1.5) > 1e-9 || math.Abs(b-2.0) > 1e-9 {
		t.Errorf("a=%v b=%v, want 1.5, 2.0", a, b)
	}
}

// TestSharedResourceAddRejectsNonUnitWeight: every job weighs 1, so any
// other weight is a caller bug, zero-work jobs included.
func TestSharedResourceAddRejectsNonUnitWeight(t *testing.T) {
	for _, w := range []float64{0, 0.5, 2, math.NaN()} {
		for _, work := range []float64{0, 1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Add(%v, %v) did not panic", work, w)
					}
				}()
				NewCPU(NewEngine(), 1).Add(work, w, func() {})
			}()
		}
	}
}

func TestSharedResourceBelowSaturationNoSlowdown(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 8)
	var done []float64
	for i := 0; i < 4; i++ {
		cpu.Add(1, 1, func() { done = append(done, e.Now()) })
	}
	e.Run(100)
	for _, d := range done {
		if math.Abs(d-1) > 1e-9 {
			t.Errorf("job under light load finished at %v, want 1", d)
		}
	}
}

func TestGPUSaturation(t *testing.T) {
	e := NewEngine()
	// GPU: peak aggregate rate 6 work/s, saturating at 6 concurrent jobs.
	gpu := NewGPU(e, 6, 6)
	// 12 jobs of 1 unit each: aggregate rate 6 -> each job rate 0.5,
	// all finish at t=2. Throughput is capped, latency doubles.
	n := 0
	for i := 0; i < 12; i++ {
		gpu.Add(1, 1, func() { n++ })
	}
	e.Run(1.99)
	if n != 0 {
		t.Fatalf("%d jobs finished before t=2", n)
	}
	e.Run(2.01)
	if n != 12 {
		t.Fatalf("%d jobs finished, want 12", n)
	}
}

func TestGPUBelowSaturationLatencyConstant(t *testing.T) {
	e := NewEngine()
	gpu := NewGPU(e, 6, 6)
	// 3 concurrent jobs: total rate 6*3/6 = 3, each gets rate 1.
	var done []float64
	for i := 0; i < 3; i++ {
		gpu.Add(1, 1, func() { done = append(done, e.Now()) })
	}
	e.Run(100)
	for _, d := range done {
		if math.Abs(d-1) > 1e-9 {
			t.Errorf("below saturation latency %v, want 1", d)
		}
	}
}

// TestAtNaNInfClamped pins the regression where a NaN (or -Inf) target time
// bypassed At's `t < now` clamp and corrupted calendar ordering; +Inf stays
// a valid "beyond any horizon" time.
func TestAtNaNInfClamped(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(1, func() {
		e.At(math.NaN(), func() { order = append(order, "nan") })
		e.At(math.Inf(-1), func() { order = append(order, "neginf") })
		e.Schedule(0, func() { order = append(order, "zero") })
	})
	infFired := false
	e.At(math.Inf(1), func() { infFired = true })
	e.Run(10)
	// NaN and -Inf clamp to now (t=1) and fire in scheduling order, before
	// later events but after nothing earlier.
	want := []string{"nan", "neginf", "zero"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 10 {
		t.Errorf("clock = %v, want 10", e.Now())
	}
	if infFired {
		t.Error("+Inf event fired within a finite horizon")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (the +Inf event)", e.Pending())
	}
	// NaN delay in Schedule and NaN target in Reschedule stay clamped too.
	ev := e.Schedule(math.NaN(), func() { order = append(order, "nan-delay") })
	if !e.Reschedule(ev, math.NaN()) {
		t.Error("Reschedule to NaN should clamp and succeed")
	}
	e.Run(11)
	if order[len(order)-1] != "nan-delay" {
		t.Errorf("NaN-delay event did not fire: %v", order)
	}
}

func TestSharedResourceZeroWork(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 1)
	done := false
	cpu.Add(0, 1, func() { done = true })
	e.Run(0.001)
	if !done {
		t.Error("zero-work job did not complete immediately")
	}
}

func TestSharedResourceUtilization(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 4)
	// One job of 2 units at weight 1: delivers rate 1 for 2s.
	cpu.Add(2, 1, func() {})
	e.Run(4)
	// Utilization over [0,4]: delivered 2 work-units / (4 cores * 4 s).
	if got := cpu.Utilization(0, 0); math.Abs(got-2.0/16) > 1e-9 {
		t.Errorf("Utilization = %v, want 0.125", got)
	}
}

func TestSharedResourceSaturatedUtilizationIs100(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 2)
	for i := 0; i < 8; i++ {
		cpu.Add(1, 1, func() {})
	}
	e.Run(4) // 8 units of work at capped rate 2 -> busy exactly [0,4]
	if got := cpu.Utilization(0, 0); math.Abs(got-1) > 1e-9 {
		t.Errorf("saturated utilization = %v, want 1", got)
	}
}

func TestDistributions(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	dists := []Dist{
		Deterministic{V: 2},
		Exponential{MeanV: 0.5},
		Uniform{Low: 1, High: 3},
		NewLogNormal(1.5, 0.4),
		TruncNormal{MeanV: 2, StdDev: 0.5},
	}
	for _, d := range dists {
		var sum float64
		n := 20000
		for i := 0; i < n; i++ {
			v := d.Sample(r)
			if v < 0 {
				t.Fatalf("%T sampled negative %v", d, v)
			}
			sum += v
		}
		got := sum / float64(n)
		if math.Abs(got-d.Mean())/d.Mean() > 0.05 {
			t.Errorf("%T empirical mean %v, want %v", d, got, d.Mean())
		}
	}
}

// TestLogNormalZeroCV pins the constant case: a CV of zero or less
// returns the mean and draws nothing, so the stream continues as a twin
// source's that was never sampled.
func TestLogNormalZeroCV(t *testing.T) {
	for _, cv := range []float64{0, -0.5} {
		r, twin := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
		d := NewLogNormal(2, cv)
		if d.Sample(r) != 2 {
			t.Errorf("CV=%v should be deterministic", cv)
		}
		if got, want := r.Int63(), twin.Int63(); got != want {
			t.Errorf("CV=%v drew from the stream: next Int63 %d, twin %d", cv, got, want)
		}
	}
}

// TestReschedule covers the in-place calendar move used by SharedResource:
// same tie semantics as cancel+schedule, no tombstone left behind.
func TestReschedule(t *testing.T) {
	e := NewEngine()
	var order []string
	a := e.Schedule(1, func() { order = append(order, "a") })
	e.Schedule(2, func() { order = append(order, "b") })
	if !e.Reschedule(a, 3) {
		t.Fatal("reschedule of a pending event should succeed")
	}
	e.Run(10)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
	// A fired event cannot be rescheduled.
	if e.Reschedule(a, 5) {
		t.Fatal("reschedule of a fired event should fail")
	}
	// A cancelled event cannot be rescheduled.
	c := e.Schedule(1, func() { order = append(order, "c") })
	c.Cancel()
	if e.Reschedule(c, 2) {
		t.Fatal("reschedule of a cancelled event should fail")
	}
	// Rescheduling to the past clamps to now (fires immediately on Run).
	d := e.Schedule(100, func() { order = append(order, "d") })
	if !e.Reschedule(d, -5) {
		t.Fatal("clamped reschedule should succeed")
	}
	e.Run(20)
	if order[len(order)-1] != "d" {
		t.Fatalf("clamped event did not fire: %v", order)
	}
	if e.Pending() != 0 {
		t.Fatalf("calendar should be empty, %d pending", e.Pending())
	}
}

// TestRescheduleTieOrder pins that a rescheduled event behaves like a
// freshly scheduled one on time ties: it fires after events already queued
// at that instant.
func TestRescheduleTieOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	x := e.Schedule(5, func() { order = append(order, "x") })
	e.Schedule(7, func() { order = append(order, "y") })
	e.Reschedule(x, 7) // now ties with y, but was (re)scheduled later
	e.Run(10)
	if len(order) != 2 || order[0] != "y" || order[1] != "x" {
		t.Fatalf("order = %v, want [y x]", order)
	}
}
