package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEventThroughput measures raw calendar throughput: schedule and
// fire chained events.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	b.ResetTimer()
	for e.Step() {
	}
	if n < b.N {
		b.Fatalf("fired %d of %d", n, b.N)
	}
}

// BenchmarkDenseBucket keeps 64 events resident within a fraction of one
// 1/32 s bucket: each firing schedules its successor up to bucketW/8
// ahead, so nearly every pop comes from a front heap of about 64 entries,
// the case BenchmarkEventThroughput (one resident event) never builds.
func BenchmarkDenseBucket(b *testing.B) {
	const resident = 64
	var delays [1024]float64
	r := rand.New(rand.NewSource(1))
	for i := range delays {
		delays[i] = r.Float64() * bucketW / 8
	}
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		e.Schedule(delays[n%len(delays)], tick)
	}
	for i := 0; i < resident; i++ {
		e.Schedule(delays[i], tick)
	}
	b.ResetTimer()
	for n < b.N && e.Step() {
	}
}

// BenchmarkSameInstant is dominated by same-instant events: eight equal
// jobs share a processor-sharing CPU, so they complete together, and each
// completion (filed with Schedule(0) by the resource) chains a zero-delay
// event that submits the job's successor. Every resource event also moves
// the completion event within the front bucket. One op is one completion.
func BenchmarkSameInstant(b *testing.B) {
	e := NewEngine()
	cpu := NewCPU(e, 4)
	done := 0
	var submit, complete func()
	submit = func() { cpu.Add(0.01, 1, complete) }
	complete = func() {
		done++
		e.Schedule(0, submit)
	}
	for i := 0; i < 8; i++ {
		submit()
	}
	b.ResetTimer()
	for done < b.N && e.Step() {
	}
}

// BenchmarkLogNormalSample measures one service-time draw through the Dist
// interface, as the Pl@ntNet engine makes it, at the process stage's
// calibration.
func BenchmarkLogNormalSample(b *testing.B) {
	var d Dist = NewLogNormal(0.035, 0.25)
	r := rand.New(rand.NewSource(1))
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += d.Sample(r)
	}
	if !(sum >= 0) {
		b.Fatalf("draws sum to %v", sum)
	}
}

// BenchmarkProcessorSharing measures the PS resource with a steady
// population of jobs arriving and completing, at several population sizes
// so the O(jobs) cost of each resource event shows.
func BenchmarkProcessorSharing(b *testing.B) {
	for _, jobs := range []int{4, 64, 512} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) { benchProcessorSharing(b, jobs) })
	}
}

func benchProcessorSharing(b *testing.B, jobs int) {
	e := NewEngine()
	cpu := NewCPU(e, 8)
	done := 0
	var spawn func()
	spawn = func() {
		cpu.Add(1, 1, func() {
			done++
			if done < b.N {
				spawn()
			}
		})
	}
	for i := 0; i < jobs; i++ {
		spawn()
	}
	b.ResetTimer()
	for done < b.N && e.Step() {
	}
}

func BenchmarkPoolGrantRelease(b *testing.B) {
	e := NewEngine()
	p := NewPool(e, "x", 4)
	done := 0
	var spawn func()
	spawn = func() {
		p.Request(func() {
			e.Schedule(0.001, func() {
				p.Release()
				done++
				if done < b.N {
					spawn()
				}
			})
		})
	}
	for i := 0; i < 8; i++ {
		spawn()
	}
	b.ResetTimer()
	for done < b.N && e.Step() {
	}
}
