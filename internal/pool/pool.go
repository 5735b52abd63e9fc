// Package pool provides the two fan-out primitives every concurrent
// loop in the repository goes through, and the process-wide
// compute-token pool the leaf one gates on.
//
// Several layers of the pipeline parallelize independently: the backend
// stripes trials across workers, core runs ensemble members concurrently,
// the mapper scores isomorphic placements in parallel and the experiment
// campaign runs (workload x round) cells side by side. If each layer sized
// its own worker pool at GOMAXPROCS the composition would oversubscribe
// the CPUs multiplicatively. Instead the work is split in two kinds:
//
//   - Each is the leaf primitive. Its workers perform raw compute and
//     never spawn or wait for further token-gated work, and each holds
//     one compute token for its lifetime, so total CPU-bound concurrency
//     stays bounded no matter how the layers nest.
//   - Fan is the orchestration primitive. Its goroutines (experiment
//     cells, ensemble members, selector candidates) call into layers
//     whose leaves use Each, so Fan bounds them with a plain local
//     semaphore and takes no token.
//
// Deadlock rule: a goroutine must never hold a token while acquiring
// another or while waiting on work that needs one — which is why the
// orchestration layers leave the tokens to their leaves.
//
// Both primitives recover a panic in any item and re-raise the
// lowest-index one in the caller once every item has finished, as a
// serial loop would have surfaced it first; no panic escapes on a
// goroutine the caller cannot see.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// tokens is sized once at init; see Size.
var tokens = make(chan struct{}, initialSize())

func initialSize() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c > n {
		n = c
	}
	if n < 2 {
		n = 2
	}
	return n
}

// Size returns the token-pool capacity, fixed at process init.
func Size() int { return cap(tokens) }

// Acquire blocks until a compute token is available.
func Acquire() { tokens <- struct{}{} }

// Release returns a token acquired with Acquire, AcquireCtx or
// TryAcquire.
func Release() { <-tokens }

// AcquireCtx blocks until a compute token is available or ctx is done,
// in which case it returns ctx.Err() without holding a token. An
// available token wins over an already-expired ctx, so callers under
// light load never pay a spurious cancellation. The serving layer uses
// it so a request abandoned while queued for CPU stops occupying the
// admission pipeline.
func AcquireCtx(ctx context.Context) error {
	select {
	case tokens <- struct{}{}:
		return nil
	default:
	}
	select {
	case tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a token if one is immediately available and reports
// whether it did.
func TryAcquire() bool {
	select {
	case tokens <- struct{}{}:
		return true
	default:
		return false
	}
}

// Workers returns the number of goroutines worth spawning for n
// independent work items: min(GOMAXPROCS, n), at least 1. Callers decide
// at call time, so tests that raise GOMAXPROCS exercise the parallel
// paths even on small machines.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Each runs f(i) for every i in [0, n), fanning out across Workers(n)
// token-holding goroutines (worker w owns items w, w+W, w+2W, ...). It is
// intended for leaf compute loops: f must not acquire tokens itself, and
// results must be written to per-index slots so the outcome is identical
// to a serial loop. Each returns after all items complete; if any f
// panicked, the lowest-index panic is re-raised in the caller.
func Each(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(n)
	if w < 2 {
		Acquire()
		defer Release()
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	panics := make([]any, n)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			Acquire()
			defer Release()
			for i := g; i < n; i += w {
				guard(panics, i, f)
			}
		}(g)
	}
	wg.Wait()
	reraise(panics)
}

// Fan runs f(i) for every i in [0, n) on its own goroutine, at most
// Workers(n) at a time, and returns when all are done. It is intended
// for orchestration: f may call into layers that fan out through Each,
// so Fan bounds its goroutines with a local semaphore and holds no
// compute token (holding one while waiting on token-gated leaves would
// deadlock the pool).
//
// Items must be independent and write only per-index results; every RNG
// stream an item uses must be derived from its own index or labels.
// Under that contract the outcome is bit-identical to a serial loop for
// any GOMAXPROCS. If items panic, the lowest-index panic is re-raised in
// the caller.
func Fan(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(n)
	if w < 2 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	sem := make(chan struct{}, w)
	panics := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			guard(panics, i, f)
		}(i)
	}
	wg.Wait()
	reraise(panics)
}

// guard runs f(i), recording a panic in panics[i] instead of letting it
// unwind the worker goroutine.
func guard(panics []any, i int, f func(i int)) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = r
		}
	}()
	f(i)
}

// reraise re-panics with the lowest-index recorded panic, if any.
func reraise(panics []any) {
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}
