package mapper

import (
	"context"
	"fmt"

	"edm/internal/circuit"
	"edm/internal/memo"
)

// TopKCtx is TopK with request cancellation, the serving-path entry
// point. On a compiler with an ensemble cache the candidate-pool build
// runs detached through the cache's singleflight — a cancelled client
// detaches with ctx.Err() while the pool completes and stays warm for
// the concurrent and future requests that keyed the same (circuit
// fingerprint) — so exactly one compile runs per fingerprint no matter
// how many clients race or abandon it. Results are bit-identical to
// TopK whenever ctx does not expire. A nil or never-cancellable ctx
// makes TopKCtx exactly TopK.
func (c *Compiler) TopKCtx(ctx context.Context, logical *circuit.Circuit, k int) ([]*Executable, error) {
	if ctx == nil || ctx.Done() == nil || c.ens == nil {
		return c.TopK(logical, k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("mapper: k must be positive")
	}
	if k == 1 {
		be, err := c.ens.best.GetCtx(ctx, circuitKey(logical), func() *bestEntry {
			exes, err := c.buildSingleBest(logical)
			return &bestEntry{exes: exes, err: err}
		})
		if err != nil {
			return nil, err
		}
		return be.exes, be.err
	}
	pe, err := c.ens.pools.GetCtx(ctx, circuitKey(logical), func() *poolEntry {
		return c.buildPool(logical)
	})
	if err != nil {
		return nil, err
	}
	return pe.topK(k)
}

// TopKCtx is Tracking.TopK with request cancellation: pool builds and
// incremental upgrades run detached through the generation-tagged cache
// while cancelled callers detach, preserving the one-build-per-(circuit
// fingerprint, calibration generation) invariant the serving layer
// advertises. A nil or never-cancellable ctx makes it exactly TopK.
func (t *Tracking) TopKCtx(ctx context.Context, logical *circuit.Circuit, k int) ([]*Executable, error) {
	if ctx == nil || ctx.Done() == nil {
		return t.TopK(logical, k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("mapper: k must be positive")
	}
	c, gen := t.cur, t.gen
	pe, err := t.pools.GetGenCtx(ctx, circuitKey(logical), gen,
		func() *poolEntry {
			pe := c.buildPool(logical)
			pe.gen = gen
			return pe
		},
		func(prev *poolEntry) *poolEntry {
			pe := c.recompilePool(logical, prev, t.diffFor(prev.gen), t.mode, &t.ctr)
			pe.gen = gen
			return pe
		},
	)
	if err != nil {
		return nil, err
	}
	if pe.err != nil {
		return nil, pe.err
	}
	return pe.topK(k)
}

// PoolStats snapshots this Tracking's generation-tagged pool cache
// counters. One miss per (circuit fingerprint, generation) is the
// serving layer's one-compile invariant; the serving metrics endpoint
// exposes these numbers.
func (t *Tracking) PoolStats() memo.Stats { return t.pools.Stats() }

// PoolFootprint reports the placements held by this Tracking's pools and
// the bytes of their slabs, arenas and index slices, summed on read over
// the live pools like TopKPoolFootprint.
func (t *Tracking) PoolFootprint() (candidates int, bytes int64) { return poolFootprint(t.pools) }
