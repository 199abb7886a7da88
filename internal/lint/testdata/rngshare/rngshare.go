// Package rngshare exercises the shared-RNG-stream check: one mutable
// draw cursor reached from more than one goroutine is schedule-dependent
// nondeterminism, even when -race sees no overlapping access.
package rngshare

import (
	"math/rand"

	"e2clab/internal/par"
	"e2clab/internal/rngutil"
)

// TwoGoroutines share one stream: the draw order depends on scheduling.
//
//simlint:ordered fixture: results joined through a sized channel
func TwoGoroutines(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	done := make(chan int64, 2)
	go func() { done <- rng.Int63() }()
	go func() { done <- rng.Int63() }() // want "rngshare: RNG stream rng is also captured by the goroutine spawned at line"
	<-done
	<-done
}

// LoopSpawn captures one stream in a loop-spawned closure: every spawn
// shares the cursor.
//
//simlint:ordered fixture: index-ordered writes into out
func LoopSpawn(seed int64, out []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range out {
		i := i
		go func() { out[i] = rng.Float64() }() // want "rngshare: goroutine spawned in a loop captures RNG stream rng declared outside the loop"
	}
}

// ParForShared captures one stream in a par.For body: every worker draws
// on the same cursor.
//
//simlint:ordered fixture: index-ordered writes into out
func ParForShared(seed int64, out []float64) {
	rng := rand.New(rand.NewSource(seed))
	par.For(len(out), 0, func(_, i int) { out[i] = rng.Float64() }) // want "rngshare: par.For body captures RNG stream rng declared outside the call"
}

// ParForDerived derives each index's stream up front: the sanctioned
// pattern, no finding.
//
//simlint:ordered fixture: index-ordered writes into out
func ParForDerived(seed int64, out []float64) {
	s := rngutil.NewSeeder(seed)
	seeds := make([]int64, len(out))
	for i := range seeds {
		seeds[i] = s.Next()
	}
	par.For(len(out), 0, func(_, i int) {
		rng := rand.New(rand.NewSource(seeds[i]))
		out[i] = rng.Float64()
	})
}

// SpawnerDraws hands the stream to a goroutine and keeps drawing on it.
//
//simlint:ordered fixture: worker joined before return
func SpawnerDraws(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	ch := make(chan float64)
	go func() { ch <- rng.Float64() }()
	x := rng.Float64() // want "rngshare: RNG stream rng is drawn on here and also captured by the goroutine spawned at line"
	return x + <-ch
}

// carrier smuggles a stream into a goroutine through a struct field.
type carrier struct {
	rng *rand.Rand
}

// Carried is the one-alias-hop case: the spawner draws on rng while a
// goroutine reaches the same cursor through w.rng.
//
//simlint:ordered fixture: worker joined before return
func Carried(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	w := carrier{rng: rng}
	ch := make(chan float64)
	go func() { ch <- w.rng.Float64() }()
	x := rng.Float64() // want "rngshare: RNG stream rng is drawn on here and also captured by the goroutine spawned at line"
	return x + <-ch
}

// SeederShared shares a module Seeder across goroutines: deriving child
// seeds concurrently is as order-dependent as drawing from one Rand.
//
//simlint:ordered fixture: results joined through a sized channel
func SeederShared(seed int64) {
	s := rngutil.NewSeeder(seed)
	done := make(chan int64, 2)
	go func() { done <- s.Next() }()
	go func() { done <- s.Next() }() // want "rngshare: RNG stream s is also captured by the goroutine spawned at line"
	<-done
	<-done
}

// DerivedStreams is the sanctioned pattern: each goroutine gets its own
// child stream, derived up front by the spawner.
//
//simlint:ordered fixture: index-ordered writes into out
func DerivedStreams(seed int64, out []float64) {
	s := rngutil.NewSeeder(seed)
	for i := range out {
		i := i
		rng := rand.New(rand.NewSource(s.Next()))
		go func() { out[i] = rng.Float64() }()
	}
}

// SingleHandoff passes the stream to exactly one goroutine and never
// touches it again: ownership transfer, not sharing.
//
//simlint:ordered fixture: worker joined before return
func SingleHandoff(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	done := make(chan struct{})
	go worker(rng, done)
	<-done
}

func worker(rng *rand.Rand, done chan struct{}) {
	_ = rng.Int63()
	close(done)
}
