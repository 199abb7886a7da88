package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"unsafe"
)

// The host shares its cores with other tenants, so the speed at which it
// runs the same code drifts by up to a third over minutes (README.md, "Host
// speed"). A run that falls in a slow period reads slow on every time
// metric, and no statistic over its passes can tell that from a regression.
// So every timed pass is bracketed by two runs of fixed reference loops,
// and the pass's host times are divided by the host's slowdown over it. The
// loops are the benchmark's own code, so no change to the program can move
// them. They run from the core's own caches: loops that lean on memory
// read 30-50 % slow when neighbours fill the caches, while the workloads
// slow by a few percent, so they would add noise instead of removing it.

const (
	sortWords = 1 << 16 // 512 KiB, inside the core's 2 MiB cache
	refReps   = 3       // each loop runs this many times back to back
	// barrierRounds slices of barrierSlice arithmetic steps, about 3 µs
	// each, with a barrier after every slice.
	barrierRounds = 2000
	barrierSlice  = 1000
)

// refLoops are the reference loops (README.md names them alu, sort and
// barrier), each with its time for refReps runs (ms) at the reference
// speed: typical readings on the 2-vCPU Xeon virtual machine README.md's
// numbers come from.
var refLoops = []struct {
	refMS float64
	run   func(mem []uint64) uint64
}{
	{33.6, func([]uint64) uint64 { return aluLoop(0x9E3779B97F4A7C15, 1<<22) }},
	{21.9, sortLoop},
	{42.3, func([]uint64) uint64 { return barrierLoop() }},
}

// refSink keeps the loops' results live.
var refSink uint64

// hostSlowdown runs the reference loops and returns how much slower the
// host runs them now than at the reference speed: the geometric mean over
// the loops of measured over reference time. It collects garbage first, so
// that no collector work competes with the loops. Their memory is mapped
// outside the Go heap and unmapped before returning, so it neither moves the
// collector's pacing nor stays resident during a pass.
func hostSlowdown() (float64, error) {
	runtime.GC()
	b, err := syscall.Mmap(-1, 0, sortWords*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return 0, fmt.Errorf("map reference loop memory: %w", err)
	}
	defer syscall.Munmap(b)
	mem := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), sortWords)
	for i := 0; i < len(mem); i += 512 { // fault every page in, untimed
		mem[i] = uint64(i)
	}
	var logSum float64
	for _, l := range refLoops {
		t0 := now()
		for r := 0; r < refReps; r++ {
			refSink += l.run(mem)
		}
		logSum += math.Log(ms(now().Sub(t0)) / l.refMS)
	}
	return math.Exp(logSum / float64(len(refLoops))), nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// aluLoop makes n steps of dependent integer arithmetic from x.
func aluLoop(x uint64, n int) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		x = xorshift(x)
		acc += x * 0xff51afd7ed558ccd >> 29
	}
	return acc
}

func sortLoop(buf []uint64) uint64 {
	x := uint64(2463534242)
	for i := range buf {
		x = xorshift(x)
		buf[i] = x
	}
	slices.Sort(buf)
	return buf[len(buf)/2]
}

// barrierLoop runs short slices of arithmetic on the two cores, which meet
// at a barrier after every slice, as the suite, repeat-pool and shard
// workers meet: a core the host takes away even briefly stalls both.
func barrierLoop() uint64 {
	var wg sync.WaitGroup
	var out [2]uint64
	ping, pong := make(chan struct{}), make(chan struct{})
	for w := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(w + 1)
			for i := 0; i < barrierRounds; i++ {
				x += aluLoop(x, barrierSlice)
				if w == 0 {
					ping <- struct{}{}
					<-pong
				} else {
					<-ping
					pong <- struct{}{}
				}
			}
			out[w] = x
		}()
	}
	wg.Wait()
	var sum uint64
	for _, v := range out {
		sum += v
	}
	return sum
}
