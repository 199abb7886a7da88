// Package goroutine exercises the goroutine-spawn check (deterministic
// packages only): bare go statements are flagged unless the enclosing
// helper is blessed with //simlint:ordered.
package goroutine

import (
	fanout "e2clab/internal/par"
)

// Fan spawns workers without any determinism attestation.
func Fan(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		go fn(i) // want "goroutine: goroutine spawned outside"
	}
}

// Ordered fans out with index-ordered writes: each worker owns out[i] and
// the join is a count, so the parallel result is bit-identical to the
// sequential one.
//
//simlint:ordered each worker writes only its own out slot; the join counts completions
func Ordered(n int, fn func(int) int) []int {
	out := make([]int, n)
	done := make(chan struct{}, n)
	for i := range out {
		go func(i int) {
			out[i] = fn(i)
			done <- struct{}{}
		}(i)
	}
	for range out {
		<-done
	}
	return out
}

// ParFor fans out through par.For, under a renamed import, without the
// attestation a go statement would need.
func ParFor(out []int, fn func(int) int) {
	fanout.For(len(out), 0, func(_, i int) { out[i] = fn(i) }) // want "goroutine: par.For called outside a //simlint:ordered helper"
}

// For is a local function that shares par.For's name but spawns nothing.
func For(n int, body func(i int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

// LocalFor calls the local For: no finding, since the callee is resolved
// by type, not by name.
func LocalFor(out []int) {
	For(len(out), func(i int) { out[i] = i })
}

// Suppressed shows the line-level escape hatch for a one-off spawn.
func Suppressed(stop chan struct{}) {
	//simlint:allow goroutine fixture demonstrates line-level suppression
	go func() { <-stop }()
}
