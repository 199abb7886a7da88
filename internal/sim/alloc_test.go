package sim

import (
	"math"
	"math/rand"
	"testing"
)

// Steady-state allocation contracts of the simulation kernel: once the
// arena, freelists, and tier capacities are warm, the hot loops — event
// scheduling/firing, shared-resource job churn, pool grant/release — must
// not allocate at all. These tests are the allocation-regression gate run by
// scripts/verify.sh.

var nopFn = func() {}

func requireZeroAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
		t.Errorf("%s: %v allocs/op, want 0", what, allocs)
	}
}

func TestZeroAllocScheduleStep(t *testing.T) {
	e := NewEngine()
	// Warm every tier: front, ring, overflow (> 8 s horizon), freelist.
	for i := 0; i < 512; i++ {
		e.Schedule(float64(i%80)*0.25, nopFn)
	}
	e.Run(1e6)
	requireZeroAllocs(t, "Schedule/Step churn", func() {
		for i := 0; i < 8; i++ {
			e.Schedule(float64(i)*0.3, nopFn) // front + ring
		}
		e.Schedule(20, nopFn) // overflow, migrates ring-ward
		for e.Step() {
		}
	})
}

func TestZeroAllocCancelReschedule(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Schedule(float64(i), nopFn)
	}
	e.Run(1e6)
	requireZeroAllocs(t, "Cancel/Reschedule churn", func() {
		a := e.Schedule(1, nopFn)
		b := e.Schedule(12, nopFn)
		e.Reschedule(b, e.Now()+0.5)
		a.Cancel()
		// Lane entries: cancel one from the middle, move one away from
		// now, and move b back into the lane through a past time.
		l1 := e.Schedule(0, nopFn)
		l2 := e.Schedule(0, nopFn)
		e.Schedule(0, nopFn)
		l2.Cancel()
		e.Reschedule(l1, e.Now()+2)
		e.Reschedule(b, e.Now()-1)
		for e.Step() {
		}
		// Front-to-front re-key: put the clock on a bucket boundary, load
		// that bucket into the front heap, then move an event within it.
		e.Run(math.Ceil(e.Now()) + 1)
		e.Schedule(0.001, nopFn)
		e.Step()
		f := e.Schedule(0.002, nopFn)
		e.Reschedule(f, e.Now()+0.004)
		if e.nodes[f.idx].loc != locFront {
			t.Fatal("re-keyed event left the front heap")
		}
		for e.Step() {
		}
	})
}

func TestZeroAllocSameInstantChain(t *testing.T) {
	// Zero-delay chains filed from callbacks, interleaved in the lane with
	// each other and with older events at the same instant.
	e := NewEngine()
	n := 0
	var chain func()
	chain = func() {
		if n++; n%4 != 0 {
			e.Schedule(0, chain)
		}
	}
	for i := 0; i < 16; i++ {
		e.Schedule(0, chain)
	}
	e.Run(1e6)
	requireZeroAllocs(t, "Schedule(0) chains", func() {
		for i := 0; i < 4; i++ {
			e.Schedule(0.5, chain)
		}
		e.Schedule(0, chain)
		for e.Step() {
		}
	})
}

func TestZeroAllocSharedJobChurn(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 4)
	done := func() {}
	for i := 0; i < 64; i++ {
		cpu.Add(1, 1, done)
	}
	e.Run(1e6)
	requireZeroAllocs(t, "sharedJob churn", func() {
		for i := 0; i < 8; i++ {
			cpu.Add(0.5, 1, done)
		}
		e.Run(e.Now() + 100)
	})
}

func TestZeroAllocLinkTransfer(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	lossy := NewLink(e, 0.003, 1e7, 20, rng) // bounded pipe + retransmission path
	pure := NewLink(e, 0.001, 0, 0, rng)     // unlimited-rate, delay-only path
	done := func() {}
	// Warm the transfer freelists, the pipe's job freelist, and the calendar.
	for i := 0; i < 64; i++ {
		lossy.Transfer(1e5, done)
		pure.Transfer(1e5, done)
	}
	e.Run(1e6)
	requireZeroAllocs(t, "link transfer churn", func() {
		for i := 0; i < 8; i++ {
			lossy.Transfer(1e5, done)
			pure.Transfer(1e5, done)
		}
		e.Run(e.Now() + 100)
	})
}

func TestZeroAllocEngineReset(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 4)
	done := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(float64(i)*0.3, nopFn)
		cpu.Add(1, 1, done)
	}
	e.Run(1e6)
	requireZeroAllocs(t, "Engine/SharedResource reset churn", func() {
		e.Reset()
		cpu.Reset(cpu.MaxRate, nil)
		for i := 0; i < 8; i++ {
			e.Schedule(float64(i)*0.3, nopFn)
			cpu.Add(0.5, 1, done)
		}
		e.Run(1e6)
	})
}

func TestZeroAllocPoolChurn(t *testing.T) {
	e := NewEngine()
	p := NewPool(e, "x", 2)
	release := p.Release // bind the method value once
	var hold func()
	hold = func() { e.Schedule(0.01, release) }
	for i := 0; i < 16; i++ {
		p.Request(hold)
	}
	e.Run(1e6)
	requireZeroAllocs(t, "pool grant/release churn", func() {
		for i := 0; i < 8; i++ {
			p.Request(hold)
		}
		e.Run(e.Now() + 100)
	})
}

func TestZeroAllocLinkFlapChurn(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(2))
	l := NewLink(e, 0.002, 1e7, 0, rng)
	done := func() {}
	// Warm the transfer freelist and the stall FIFO capacity.
	for i := 0; i < 64; i++ {
		l.Transfer(1e5, done)
	}
	e.Run(1e6)
	requireZeroAllocs(t, "link flap churn", func() {
		l.Reconfigure(-1, 0, 100) // down: new transfers park
		for i := 0; i < 8; i++ {
			l.Transfer(1e5, done)
		}
		l.Reconfigure(-1, 5e6, 0) // up at half rate: stalled queue drains
		l.Restore()
		e.Run(e.Now() + 100)
	})
}

func TestZeroAllocPacketTransfer(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, 0.003, 1e7, 10, rand.New(rand.NewSource(3)))
	l.EnablePacket(1500)
	done := func() {}
	for i := 0; i < 64; i++ {
		l.Transfer(1e5, done)
	}
	e.Run(1e6)
	requireZeroAllocs(t, "packet transfer churn", func() {
		for i := 0; i < 8; i++ {
			l.Transfer(1e5, done)
		}
		e.Run(e.Now() + 100)
	})
}

func TestZeroAllocCrashChurn(t *testing.T) {
	e := NewEngine()
	cpu := NewCPU(e, 4)
	p := NewPool(e, "x", 2)
	done := func() {}
	for i := 0; i < 16; i++ {
		cpu.Add(1, 1, done)
		p.Request(nopFn)
		p.Crash()
	}
	e.Run(1e6)
	requireZeroAllocs(t, "crash/recovery churn", func() {
		for i := 0; i < 4; i++ {
			cpu.Add(5, 1, done)
			p.Request(nopFn) // slot held until the crash wipes it
		}
		cpu.AddHold(1.5)
		e.Run(e.Now() + 0.1)
		cpu.Crash()
		p.Crash()
		e.Run(e.Now() + 100)
	})
}

func TestZeroAllocRetryHedgeTimerChurn(t *testing.T) {
	// The resilience layer's steady-state calendar pattern: arm a hedge
	// timer per request, cancel most at completion, reschedule the rest as
	// backoff retries. Pure schedule/cancel churn on warm tiers.
	e := NewEngine()
	for i := 0; i < 256; i++ {
		e.Schedule(float64(i%40)*0.25, nopFn)
	}
	e.Run(1e6)
	var hedges [8]Event
	requireZeroAllocs(t, "retry/hedge timer churn", func() {
		for i := range hedges {
			hedges[i] = e.Schedule(1.5, nopFn) // hedge armed at dispatch
		}
		for i := 0; i < 6; i++ {
			hedges[i].Cancel() // primary finished first: cancel the hedge
		}
		for i := 6; i < 8; i++ {
			e.Schedule(0.25*float64(i), nopFn) // backoff retry
		}
		for e.Step() {
		}
	})
}
