package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"e2clab/internal/stats"
)

// workers is the parallelism every layer is given: the suite pool, the
// repeat pool, the shard workers and GOMAXPROCS. Pinning it makes the
// numbers measure the program rather than the host's core count.
const workers = 2

// now reads the host clock. Every host-time measurement of the benchmark
// goes through it; simulated outputs never depend on the value.
func now() time.Time {
	return time.Now() //simlint:allow wallclock the benchmark measures host time; no simulated output depends on it
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the process's resident-set high-water mark to its
// current resident set, so that peakRSSMB then reads the peak since the
// reset.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the program's peak resident set size in MiB: VmHWM of
// /proc/self/status. Getrusage's Maxrss is not used because it cannot be
// reset and survives exec, so it would report a larger parent's peak (a
// fork inherits its parent's resident pages).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// timeMedian runs fn reps times and returns the median host time of one
// call in milliseconds.
func timeMedian(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := now()
		fn()
		ts[i] = ms(now().Sub(t0))
	}
	return median(ts)
}
