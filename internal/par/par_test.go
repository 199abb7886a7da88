package par

import (
	"fmt"
	"runtime"
	"testing"
)

// TestForRunsEveryIndexOnce: every index in [0, n) runs exactly once, on a
// worker w < min(workers, n) (GOMAXPROCS standing in for workers <= 0), and
// Workers reports that bound. The counters take no lock: calls is indexed
// by i and perWorker by w, so under -race this also checks that no index
// runs twice at once and that no two goroutines share a w.
func TestForRunsEveryIndexOnce(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, 1, 100} {
		for _, workers := range []int{-1, 0, 1, 8, 101} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				bound := workers
				if bound <= 0 {
					bound = procs
				}
				bound = max(1, min(bound, n))
				if got := Workers(n, workers); got != bound {
					t.Errorf("Workers = %d, want %d", got, bound)
				}
				calls := make([]int, n)
				perWorker := make([]int, bound)
				For(n, workers, func(w, i int) {
					if w < 0 || w >= bound {
						t.Errorf("index %d ran on worker %d, want w < %d", i, w, bound)
						return
					}
					calls[i]++
					perWorker[w]++
				})
				for i, c := range calls {
					if c != 1 {
						t.Errorf("index %d ran %d times", i, c)
					}
				}
				total := 0
				for _, c := range perWorker {
					total += c
				}
				if total != n {
					t.Errorf("workers ran %d calls, want %d", total, n)
				}
			})
		}
	}
}

// TestForSingleWorkerIsInline: with one worker the calls run in index order
// on the caller's goroutine, as worker 0.
func TestForSingleWorkerIsInline(t *testing.T) {
	var order []int
	For(5, 1, func(w, i int) {
		if w != 0 {
			t.Errorf("index %d ran on worker %d", i, w)
		}
		order = append(order, i)
	})
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Errorf("order %v, want [0 1 2 3 4]", order)
	}
}
