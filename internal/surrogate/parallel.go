package surrogate

import "e2clab/internal/par"

// numWorkers, when nonzero, sizes the worker pool shared by parallel fits
// and batch predictions; tests set it (via setWorkers) to force the
// sequential path when checking that parallel and sequential execution
// produce identical results. Zero sizes the pool by GOMAXPROCS at each
// call, so a caller that lowers GOMAXPROCS (testing.AllocsPerRun pins it to
// 1) gets the inline path.
var numWorkers int

// setWorkers overrides the pool size and returns a restore function. It is
// a test hook; production code never calls it.
func setWorkers(n int) (restore func()) {
	old := numWorkers
	if n < 1 {
		n = 1
	}
	numWorkers = n
	return func() { numWorkers = old }
}

// parallelFor splits [0, n) into contiguous shards and runs fn(lo, hi)
// through par.For, one worker per shard and at most numWorkers shards,
// blocking until all shards finish. fn must be safe to run concurrently on
// disjoint index ranges and must not depend on shard boundaries for its
// results (every user in this package computes element i of an output
// slice purely from element i of the inputs, so sharding cannot change
// results). Ranges smaller than minPerWorker per worker run inline on the
// caller's goroutine to keep tiny batches free of scheduling overhead.
//
//simlint:ordered each shard writes only its own [lo,hi) slots of the output; no draw order, accumulation order, or shared state depends on scheduling (parallel_test.go pins parallel == sequential)
func parallelFor(n, minPerWorker int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minPerWorker < 1 {
		minPerWorker = 1
	}
	workers := par.Workers(n/minPerWorker, numWorkers)
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	par.For(chunks, chunks, func(_, c int) {
		lo := c * chunk
		fn(lo, min(lo+chunk, n))
	})
}
