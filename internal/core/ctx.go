package core

import (
	"context"
	"fmt"

	"edm/internal/circuit"
	"edm/internal/dist"
	"edm/internal/mapper"
	"edm/internal/rng"
)

// RunCtx is Run with request cancellation threaded through the compile
// (mapper.TopKCtx) and execution (backend.RunCtx) hot paths. Results are
// bit-identical to Run whenever ctx does not expire; a cancelled request
// returns ctx.Err() wrapped with the failing member. A nil or
// never-cancellable ctx makes RunCtx exactly Run.
func (r *Runner) RunCtx(ctx context.Context, logical *circuit.Circuit, cfg Config, rr *rng.RNG) (*Result, error) {
	if ctx == nil || ctx.Done() == nil {
		return r.Run(logical, cfg, rr)
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("core: ensemble size %d must be positive", cfg.K)
	}
	if cfg.Trials < cfg.K {
		return nil, fmt.Errorf("core: %d trials cannot cover %d members", cfg.Trials, cfg.K)
	}
	execs, err := r.Compiler.TopKCtx(ctx, logical, cfg.K)
	if err != nil {
		return nil, err
	}
	return r.RunExecutablesCtx(ctx, execs, cfg, rr)
}

// RunExecutablesCtx is RunExecutables with per-member cancellation: each
// member's machine run goes through backend.RunCtx, so an expiring
// request detaches from (or aborts, depending on the machine's run
// cache) the remaining simulation instead of blocking until the full
// trial budget completes. Member RNG streams, budget splitting and the
// merge are identical to RunExecutables, preserving bit-identity for
// requests that finish.
func (r *Runner) RunExecutablesCtx(ctx context.Context, execs []*mapper.Executable, cfg Config, rr *rng.RNG) (*Result, error) {
	if ctx == nil || ctx.Done() == nil {
		return r.RunExecutables(execs, cfg, rr)
	}
	res, err := r.runMembers(ctx, execs, cfg, rr)
	if err != nil {
		return nil, err
	}
	if err := mergeChecked(res, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// mergeChecked is merge through the error-returning dist entry points,
// for the serving path where member sets trace back to user payloads.
func mergeChecked(res *Result, cfg Config) (err error) {
	kept := make([]int, 0, len(res.Members))
	if cfg.UniformityFilter > 0 {
		for i := range res.Members {
			if res.Members[i].Output.IsNearUniform(cfg.UniformityFilter) {
				res.Members[i].Discarded = true
			} else {
				kept = append(kept, i)
			}
		}
	}
	if len(kept) == 0 {
		kept = kept[:0]
		for i := range res.Members {
			res.Members[i].Discarded = false
			kept = append(kept, i)
		}
	}
	dists := make([]*dist.Dist, len(kept))
	for j, i := range kept {
		dists[j] = res.Members[i].Output
	}
	weights := MergeWeights(dists, cfg.Weighting)
	var total float64
	for _, w := range weights {
		total += w
	}
	for j, i := range kept {
		res.Members[i].Weight = weights[j] / total
	}
	res.Merged, err = dist.WeightedMergeChecked(dists, weights)
	return err
}
