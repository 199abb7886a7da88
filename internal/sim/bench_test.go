package sim

import (
	"fmt"
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
