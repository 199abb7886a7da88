package main

import (
	"e2clab/internal/rngutil"
	"e2clab/internal/sim"
	"e2clab/internal/sim/shard"
	"e2clab/internal/stats"
)

// ladder measures the kernel and statistics layers through their public
// API, at the operating points the workloads put them in. n scales the
// iteration counts; every figure is the median of reps timed loops.
func ladder(m *metrics, seed int64, n, reps int) {
	// The calendar as optimize uses it (a small heap, ~256 pending) and as
	// edge-scale does (~20k pending): a calendar change that helps one and
	// hurts the other shows as a split.
	m.add("sim.event_ns_256", "ns", perOp(reps, 20*n, func() func(int) { return eventLoop(seed, 256) }))
	m.add("sim.event_ns_20k", "ns", perOp(reps, 10*n, func() func(int) { return eventLoop(seed, 20000) }))
	m.add("sim.ps_job_ns", "ns", perOp(reps, 4*n, psLoop))
	m.add("sim.pool_cycle_ns", "ns", perOp(reps, 4*n, poolLoop))
	m.add("sim.link_transfer_ns", "ns", perOp(reps, n, func() func(int) { return linkLoop(seed, false) }))
	m.add("sim.link_packet_transfer_ns", "ns", perOp(reps, n/4, func() func(int) { return linkLoop(seed, true) }))

	res := stats.NewReservoir(8192, rngutil.New(seed))
	m.add("stats.reservoir_add_ns", "ns", perOp(reps, 20*n, func() func(int) {
		res.Reset()
		return func(k int) {
			for i := 0; i < k; i++ {
				res.Add(float64(i))
			}
		}
	}))
	var qs []float64
	m.add("stats.quantiles_us", "us", 1e3*timeMedian(reps*10, func() { qs = res.Quantiles(qs[:0], 0.5, 0.95, 0.99) }))

	// One barrier window of the shard coordinator as edge-scale runs it: 17
	// no-op nodes (16 gateway classes and the core) on the worker pool,
	// 2 ms windows (half the default calibration's network round trip).
	nodes := make([]shard.Node, 17)
	for i := range nodes {
		nodes[i] = idleNode{}
	}
	const window = 0.002
	coord := shard.NewCoordinator(nodes, window)
	windows := n / 50
	m.add("shard.window_us", "us", 1e3*timeMedian(reps, func() { coord.Run(window*float64(windows), workers) })/float64(windows))
}

// perOp times reps loops of k operations, each built by setup (untimed),
// and returns the median host ns per operation.
func perOp(reps, k int, setup func() func(k int)) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		loop := setup()
		t0 := now()
		loop(k)
		ts[i] = float64(now().Sub(t0)) / float64(k)
	}
	return median(ts)
}

// eventLoop keeps pending events on the calendar; every Step fires one,
// which schedules its replacement at an exponential delay.
func eventLoop(seed int64, pending int) func(k int) {
	e := sim.NewEngine()
	r := rngutil.New(seed)
	var fire func()
	fire = func() { e.Schedule(r.ExpFloat64(), fire) }
	for i := 0; i < pending; i++ {
		e.Schedule(r.ExpFloat64(), fire)
	}
	return func(k int) {
		for i := 0; i < k; i++ {
			e.Step()
		}
	}
}

// psLoop keeps 16 jobs on an 8-core processor-sharing CPU; each completion
// starts the next job.
func psLoop() func(k int) {
	e := sim.NewEngine()
	cpu := sim.NewCPU(e, 8)
	done := 0
	var onDone func()
	onDone = func() {
		done++
		cpu.Add(1, 1, onDone)
	}
	for i := 0; i < 16; i++ {
		cpu.Add(1, 1, onDone)
	}
	return func(k int) {
		for done < k && e.Step() {
		}
	}
}

// poolLoop cycles 8 requesters through a 4-thread pool, each holding its
// thread for 1 ms of simulated time.
func poolLoop() func(k int) {
	e := sim.NewEngine()
	p := sim.NewPool(e, "ladder", 4)
	done := 0
	var granted, release func()
	release = func() {
		p.Release()
		done++
		p.Request(granted)
	}
	granted = func() { e.Schedule(0.001, release) }
	for i := 0; i < 8; i++ {
		p.Request(granted)
	}
	return func(k int) {
		for done < k && e.Step() {
		}
	}
}

// linkLoop keeps 8 transfers of 80 kB in flight on an 8 Mbps uplink with
// 10 ms delay; packet mode adds 1500-byte packets and 0.5% loss.
func linkLoop(seed int64, packet bool) func(k int) {
	e := sim.NewEngine()
	loss := 0.0
	if packet {
		loss = 0.5
	}
	l := sim.NewLink(e, 0.010, 8e6, loss, rngutil.New(seed))
	if packet {
		l.EnablePacket(1500)
	}
	var onDone func()
	onDone = func() { l.Transfer(80e3, onDone) }
	for i := 0; i < 8; i++ {
		l.Transfer(80e3, onDone)
	}
	return func(k int) {
		for l.Delivered() < int64(k) && e.Step() {
		}
	}
}

// idleNode is a shard that does nothing, so a window costs only the
// coordinator's barrier.
type idleNode struct{}

func (idleNode) Advance(float64, []shard.Msg, *shard.Outbox) {}
