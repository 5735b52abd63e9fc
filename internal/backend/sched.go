package backend

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"edm/internal/bitstr"
	"edm/internal/dist"
	"edm/internal/pool"
	"edm/internal/rng"
)

// Two-phase scheduler for the batched replay engine.
//
// Phase A (walk): workers claim chunks of the trial range from an
// atomic cursor and burn each trial's stream against the tape tree.
// Fully dominant trials finish right there — readout draws against the
// path's bits, observed into the worker's private histogram. Divergent
// trials are cheap to classify (no state work) and are recorded as
// (trial, path, draw index, checkpoint) tuples.
//
// Growth: between the phases the coordinator grows the tree from the
// divergent trials (growExits), builds the exit child of every busy
// minority branch, and re-walks the trials that left there from the new
// child, with the same walk pass on their streams skipped past the
// exit draw. Re-walked trials either finish on the child or diverge
// further down, where the next round may grow again; rounds stop when
// no trial has an exit left to follow.
//
// The coordinator then buckets divergent trials by their restart
// checkpoint — checkpoints are interned per plan, so pointer identity
// keys (tree path, tightest checkpoint, tape segment) at once — sorts
// each bucket's trials, and fragments big buckets into units no larger
// than the unit lane budget (maxLanesFor).
//
// Phase B (replay): units are dealt round-robin to per-worker deques.
// A worker pops from its own deque; an empty worker steals the front
// half of the first non-empty victim's deque in one batch. Units that
// overflow their lane budget push continuation units onto the owner's
// deque. An outstanding-unit counter drives termination.
//
// Determinism: every trial draws from its own derived stream positioned
// exactly where the legacy loop would position it, and the final
// histogram is a merge of integer counts, which is commutative — so
// Counts are byte-identical to the legacy loop at any GOMAXPROCS, any
// steal interleaving and any tree shape.
//
// Both phases fan out through pool.Each, so workers hold a compute
// token within each phase and none across the inter-phase barrier, and
// concurrent Runs cannot deadlock on tokens. A panic in any worker
// reaches the caller of Run.

// divTrial records one divergent trial found by a walk: the path it
// ended on and the path draw index of its divergent draw.
type divTrial struct {
	t    int
	pos  int
	node *treeNode
}

// entry returns the tape entry the trial diverged at.
func (d *divTrial) entry() *tapeEntry { return &d.node.tape[d.pos-d.node.start] }

// walkJob is one trial to walk from the start of path node, its stream
// skipped to node.start.
type walkJob struct {
	t    int
	node *treeNode
}

// unitDeque is one worker's queue of replay units. A mutex (not a
// lock-free deque) is enough: pops and steals are per-unit, and a unit
// amortizes hundreds of gate applications.
type unitDeque struct {
	mu    sync.Mutex
	units []replayUnit
}

func (d *unitDeque) push(us ...replayUnit) {
	d.mu.Lock()
	d.units = append(d.units, us...)
	d.mu.Unlock()
}

func (d *unitDeque) pop() (replayUnit, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.units)
	if n == 0 {
		return replayUnit{}, false
	}
	u := d.units[n-1]
	d.units[n-1] = replayUnit{}
	d.units = d.units[:n-1]
	return u, true
}

// stealHalf appends the front ceil(n/2) units of the deque to buf and
// removes them. The front is the victim's oldest work — the opposite
// end from its own pops, so contention on hot units is minimal.
func (d *unitDeque) stealHalf(buf []replayUnit) []replayUnit {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.units)
	if n == 0 {
		return buf
	}
	k := (n + 1) / 2
	buf = append(buf, d.units[:k]...)
	rem := copy(d.units, d.units[k:])
	for i := rem; i < n; i++ {
		d.units[i] = replayUnit{}
	}
	d.units = d.units[:rem]
	return buf
}

// Test hooks into the batched engine; production runs leave them nil.
// testHookPrefix observes every trial as it reads out: the path it
// finished on (-1 for a trial replayed from a checkpoint), its outcome,
// and its stream after the last readout draw, which the draw-order
// contract test compares against the legacy loop's stream.
// testHookDiverged observes each trial the walk hands to replay: the
// path it left and the path draw index of its divergent draw.
var (
	testHookPrefix   func(trial, nodeID int, out bitstr.BitString, final *rng.RNG)
	testHookDiverged func(trial, nodeID, divPos int)
)

// walkPhase walks trials against the tape tree on up to `workers`
// workers: trials 0..n-1 from the root when jobs is nil, else the n
// jobs from their own paths. Workers claim chunks from a shared cursor.
// It returns the per-worker histograms of the trials that finished
// dominant and every divergent trial.
func (m *Machine) walkPhase(prog *program, plan *prefixPlan, n int, jobs []walkJob, r *rng.RNG, workers int, cancel *atomic.Bool) ([]*dist.Counts, []divTrial) {
	if n < parallelThreshold {
		workers = 1
	}
	partial := make([]*dist.Counts, workers)
	divLists := make([][]divTrial, workers)
	var cursor atomic.Int64
	const chunk = 256
	pool.Each(workers, func(w int) {
		counts := dist.NewCounts(prog.numClbits)
		trueBits := make([]int, prog.numClbits)
		var divs []divTrial
		for {
			if cancel != nil && cancel.Load() {
				break
			}
			start := int(cursor.Add(chunk)) - chunk
			if start >= n {
				break
			}
			end := min(start+chunk, n)
			for k := start; k < end; k++ {
				t, from := k, plan.root
				if jobs != nil {
					t, from = jobs[k].t, jobs[k].node
				}
				rt := r.DeriveN("trial", t)
				rt.Skip(from.start)
				node, divPos := walkTape(from, rt)
				if divPos < 0 {
					copy(trueBits, node.domBits)
					out := m.applyReadout(prog, trueBits, rt)
					counts.Observe(out)
					if testHookPrefix != nil {
						testHookPrefix(t, node.id, out, rt)
					}
				} else {
					divs = append(divs, divTrial{t: t, pos: divPos, node: node})
				}
			}
		}
		partial[w] = counts
		divLists[w] = divs
	})
	total := 0
	for _, d := range divLists {
		total += len(d)
	}
	divs := make([]divTrial, 0, total)
	for _, d := range divLists {
		divs = append(divs, d...)
	}
	return partial, divs
}

// runBatched runs `trials` trials of prog through the batched replay
// engine. Counts are byte-identical to the legacy loop.
func (m *Machine) runBatched(prog *program, plan *prefixPlan, trials int, r *rng.RNG, cancel *atomic.Bool) *dist.Counts {
	workers := trialWorkers(trials)

	// Phase A: tape-tree walks, dominant trials completed inline.
	partial, divs := m.walkPhase(prog, plan, trials, nil, r, workers, cancel)

	// Growth: grow exits where enough trials left the tree, and re-walk
	// those trials from the new children. Only the trials a round
	// re-walked can reach exits no earlier round has counted.
	var jobs []walkJob
	for fresh := 0; cancel == nil || !cancel.Load(); {
		growExits(prog, plan, divs[fresh:])
		jobs = jobs[:0]
		keep := divs[:0]
		for _, d := range divs {
			if exit := d.node.exits[d.pos-d.node.start].Load(); exit != nil {
				jobs = append(jobs, walkJob{t: d.t, node: exit})
			} else {
				keep = append(keep, d)
			}
		}
		if len(jobs) == 0 {
			break
		}
		more, moreDivs := m.walkPhase(prog, plan, len(jobs), jobs, r, workers, cancel)
		partial = append(partial, more...)
		fresh = len(keep)
		divs = append(keep, moreDivs...)
	}
	engineStats.fullDominant.Add(int64(trials - len(divs)))
	engineStats.divergent.Add(int64(len(divs)))

	// Bucket by checkpoint and fragment into units of at most the lane
	// budget, so no unit can run out of lanes however its groups split.
	maxLanes := maxLanesFor(prog.nLocal)
	buckets := make(map[*checkpoint][]int)
	for _, d := range divs {
		ck := d.node.checkpointBefore(int(d.entry().step))
		buckets[ck] = append(buckets[ck], d.t)
		if testHookDiverged != nil {
			testHookDiverged(d.t, d.node.id, d.pos)
		}
	}
	var units []replayUnit
	for ck, ids := range buckets {
		sort.Ints(ids)
		for len(ids) > maxLanes {
			units = append(units, replayUnit{ck: ck, ids: ids[:maxLanes:maxLanes]})
			ids = ids[maxLanes:]
		}
		units = append(units, replayUnit{ck: ck, ids: ids})
	}
	if len(buckets) > 0 {
		engineStats.batchBuckets.Add(int64(len(buckets)))
	}
	// Map order is random; deal units in a fixed order so the schedule
	// (though not the result — counts merge commutatively) is stable.
	sort.Slice(units, func(i, j int) bool { return units[i].ids[0] < units[j].ids[0] })

	if len(units) == 0 {
		return mergeCounts(prog.numClbits, partial)
	}

	// Phase B: batched suffix replay with work stealing.
	dq := make([]unitDeque, workers)
	for i, u := range units {
		dq[i%workers].units = append(dq[i%workers].units, u)
	}
	var outstanding atomic.Int64
	outstanding.Store(int64(len(units)))
	// A panicking worker never retires its unit, so it flags the others
	// to stop waiting for outstanding to drain; pool.Each re-raises it.
	var failed atomic.Bool
	pool.Each(workers, func(w int) {
		defer func() {
			if p := recover(); p != nil {
				failed.Store(true)
				panic(p)
			}
		}()
		counts := partial[w] // merge replay outcomes into the walk histogram
		var tally batchTally
		var stolen []replayUnit
		var defers []replayUnit
		for {
			if cancel != nil && cancel.Load() {
				break
			}
			u, ok := dq[w].pop()
			if !ok {
				stolen = stolen[:0]
				for v := 0; v < workers && len(stolen) == 0; v++ {
					if v != w {
						stolen = dq[v].stealHalf(stolen)
					}
				}
				if len(stolen) == 0 {
					if outstanding.Load() == 0 || failed.Load() {
						break
					}
					runtime.Gosched()
					continue
				}
				tally.steals += int64(len(stolen))
				dq[w].push(stolen...)
				continue
			}
			defers = defers[:0]
			m.processUnit(prog, u, r, counts, &defers, &tally, maxLanes, cancel)
			if len(defers) > 0 {
				// Increment before the matching decrement so outstanding
				// never dips to zero while continuations exist.
				outstanding.Add(int64(len(defers)))
				dq[w].push(defers...)
			}
			outstanding.Add(-1)
		}
		tally.flush()
	})
	return mergeCounts(prog.numClbits, partial)
}
