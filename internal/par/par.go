// Package par is the one goroutine fan-out of the deterministic packages:
// repeated runs, scenario suites, parallel trials and the surrogate's
// chunked fits all run their indices through For. For only schedules; what
// keeps a caller's output independent of the schedule (index-addressed
// writes, seeds derived up front, ordered aggregation) is the caller's own
// design, which simlint makes each call site attest with //simlint:ordered.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the number of workers For(n, workers, ...) runs on:
// workers, or GOMAXPROCS when workers <= 0, capped at n and at least 1. A
// caller sizes its per-worker state with it and passes the result to For.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// For calls body(w, i) exactly once for every i in [0, n) and returns when
// every call has returned. Indices are claimed in increasing order from one
// atomic counter by Workers(n, workers) workers; w in [0, Workers(n,
// workers)) names the worker making the call, so a caller can keep
// per-worker state in a slice indexed by w. Worker 0 runs on the caller's
// goroutine, the others on their own. With one worker, or n <= 1, every
// call runs inline as w = 0, in index order.
//
//simlint:ordered For only hands out indices; each call site attests its own ordering with //simlint:ordered, which simlint demands there as at a go statement
func For(n, workers int, body func(w, i int)) {
	workers = Workers(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var next atomic.Int64
	run := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			body(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
