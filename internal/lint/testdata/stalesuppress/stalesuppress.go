// Package stalesuppress exercises dead-directive detection: every
// surviving //simlint: directive must still suppress or prove something,
// so the suppression inventory can only shrink honestly.
package stalesuppress

import (
	"time"

	"e2clab/internal/par"
)

// LiveAllow suppresses a real wallclock finding: the negative case.
func LiveAllow() int64 {
	return time.Now().UnixNano() //simlint:allow wallclock fixture: live suppression of a real finding
}

// DeadAllow suppresses nothing: the line it guards stopped using the wall
// clock and the directive outlived its finding.
func DeadAllow(x int64) int64 {
	//simlint:allow wallclock fixture: the draw below was rewritten long ago
	// want -1 "stalesuppress: //simlint:allow wallclock suppresses nothing on this line or the line below"
	return x + 1
}

// NotRun holds an allow for a check that never ran here: kernelsync is
// scoped to kernel packages, so the directive is not reported as stale.
func NotRun(ch chan int) {
	ch <- 1 //simlint:allow kernelsync fixture: live only under the kernel configuration
}

// Spawning is a live ordered attestation: the negative case.
//
//simlint:ordered fixture: single goroutine joined before return
func Spawning(done chan int) int {
	go func() { done <- 1 }()
	return <-done
}

// FansOut spawns through par.For, which counts as a go statement: its
// ordered attestation is live.
//
//simlint:ordered fixture: each index writes only its own out slot
func FansOut(out []float64) {
	par.For(len(out), 0, func(_, i int) { out[i] = float64(i) })
}

// Calm spawns nothing; its ordered attestation proves nothing.
//
// want 2 "stalesuppress: //simlint:ordered on Calm, which spawns no goroutine"
//
//simlint:ordered fixture: claims ordered aggregation with no goroutines
func Calm(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// Twice restates an existing proof: the duplicate is dead weight.
//
// want 3 "stalesuppress: duplicate //simlint:noalloc on Twice"
//
//simlint:noalloc pure arithmetic
//simlint:noalloc restated — the duplicate proves nothing new
func Twice(x int) int { return x * x }

// Elsewhere has no body for escape analysis to prove.
//
// want 2 "stalesuppress: //simlint:noalloc on bodyless declaration Elsewhere"
//
//simlint:noalloc no body to prove
func Elsewhere(x int) int
