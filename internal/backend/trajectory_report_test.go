package backend

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"edm/internal/dist"
	"edm/internal/rng"
	"edm/internal/statevec"
)

// TestTrajectoryBenchReport regenerates BENCH_trajectory.json (via
// scripts/bench_trajectory.sh): the batched replay engine and the
// sequential tape-tree engine versus the frozen legacy trajectory loop,
// on the representative executables of BENCH_kernels.json. Keeping the
// measurement in Go lets the report assert Counts byte-equality between
// the engines in the same process that times them, and lets it observe
// the tree walk through the test hook for the per-leaf hit rates. It
// skips unless EDM_BENCH_TRAJECTORY_OUT names the output file.
func TestTrajectoryBenchReport(t *testing.T) {
	out := os.Getenv("EDM_BENCH_TRAJECTORY_OUT")
	if out == "" {
		t.Skip("set EDM_BENCH_TRAJECTORY_OUT to write the trajectory benchmark report")
	}

	type row struct {
		Case           string    `json:"case"`
		Trials         int       `json:"trials"`
		LegacyTrialsS  float64   `json:"legacy_trials_per_s"`
		PrefixTrialsS  float64   `json:"prefix_trials_per_s"`
		BatchedTrialsS float64   `json:"batched_trials_per_s"`
		Speedup        float64   `json:"speedup"`
		SpeedupSeq     float64   `json:"speedup_sequential"`
		TapeEntries    int       `json:"tape_entries"`
		TreeLeaves     int       `json:"tree_leaves"`
		TreeDepth      int       `json:"tree_depth"`
		LeafHitRates   []float64 `json:"leaf_hit_rates"`
		DivergentRate  float64   `json:"divergent_rate"`
		Checkpoints    int       `json:"checkpoints"`
		CkptBytes      int64     `json:"checkpoint_bytes"`
		Buckets        int64     `json:"batch_buckets"`
		Units          int64     `json:"batch_units"`
		MeanBatch      float64   `json:"mean_batch_size"`
		LaneClones     int64     `json:"batch_lane_clones"`
		Deferred       int64     `json:"batch_deferred_trials"`
		Steals         int64     `json:"unit_steals"`
		Identical      bool      `json:"counts_identical"`
	}
	report := struct {
		Date       string `json:"date"`
		Go         string `json:"go"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Note       string `json:"note"`
		Headline   string `json:"headline"`
		Rows       []row  `json:"rows"`
	}{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "per-trial trajectory execution: batched divergent-suffix replay (DESIGN.md " +
			"section 15) and the sequential tape-tree engine (section 10), on a tape tree grown by a batched run on the same streams, vs the frozen " +
			"legacy full-replay loop (Machine.SetTrajectoryEngine(EngineLegacy)); the three " +
			"engines are timed in interleaved rounds so shared-machine load lands on all of " +
			"them; speedup is batched vs legacy, speedup_sequential the old per-trial " +
			"tape-tree path vs legacy; counts_identical asserts the batched Counts equal " +
			"the legacy Counts bit for bit; mean_batch_size is divergent trials per replay " +
			"unit, batch_lane_clones the lane copies taken at stochastic group splits; " +
			"checkpoint_bytes is the engine's resident memory overhead per compiled program",
	}

	cases := []struct {
		nq, trials int
	}{
		{6, 20000},
		{10, 4000},
		{14, 800},
	}
	for _, tc := range cases {
		m := noisyMachine(7)
		prog, err := m.getProgram(benchCircuit(tc.nq))
		if err != nil {
			t.Fatal(err)
		}
		plan := m.planFor(prog)
		if plan == nil {
			t.Fatal("no prefix plan")
		}
		scratch := statevec.NewState(prog.nLocal)
		trueBits := make([]int, prog.numClbits)
		root := rng.New(11)
		var tally engineTally
		// The sequential engine never grows the tree: grow it with one
		// batched run on the timed streams first, so every engine walks
		// the tree the batched rounds use.
		m.runBatched(prog, plan, tc.trials, root, nil)

		// Warm both per-trial paths, pin per-trial byte-identity, and
		// tally the tree walk: which path each trial ends on, or
		// divergence.
		leafHits := make(map[int]int)
		divergent := 0
		testHookPrefix = func(_, node, div int, _ *rng.RNG) {
			if div < 0 {
				leafHits[node]++
			} else {
				divergent++
			}
		}
		identical := true
		const accounting = 2000
		for trial := 0; trial < accounting; trial++ {
			a := m.runTrajectory(prog, scratch, trueBits, root.DeriveN("trial", trial))
			b := m.runTrialShared(prog, plan, scratch, trueBits, root, trial, &tally)
			if a != b {
				identical = false
			}
		}
		testHookPrefix = nil

		// Time the three engines in interleaved rounds so a load spike on
		// a shared machine lands on all of them instead of skewing one:
		// each round runs the full trial set through legacy, sequential
		// tape-tree, then batched, and the throughputs are computed from
		// the summed round times.
		const rounds = 3
		var legacyT, prefixT, batchedT time.Duration
		legacyCounts := dist.NewCounts(prog.numClbits)
		var batchedCounts *dist.Counts
		before := EngineStatsSnapshot()
		for round := 0; round < rounds; round++ {
			start := time.Now()
			for trial := 0; trial < tc.trials; trial++ {
				out := m.runTrajectory(prog, scratch, trueBits, root.DeriveN("trial", trial))
				if round == 0 {
					legacyCounts.Observe(out)
				}
			}
			legacyT += time.Since(start)

			start = time.Now()
			for trial := 0; trial < tc.trials; trial++ {
				m.runTrialShared(prog, plan, scratch, trueBits, root, trial, &tally)
			}
			prefixT += time.Since(start)

			// Batched engine, end to end through the scheduler (walk
			// phase + bucketed replay + work stealing), same streams.
			start = time.Now()
			batchedCounts = m.runBatched(prog, plan, tc.trials, root, nil)
			batchedT += time.Since(start)
		}
		legacyS := float64(rounds*tc.trials) / legacyT.Seconds()
		prefixS := float64(rounds*tc.trials) / prefixT.Seconds()
		batchedS := float64(rounds*tc.trials) / batchedT.Seconds()
		after := EngineStatsSnapshot()

		if !identical {
			t.Errorf("q%d: engines disagree on per-trial outcome bits", tc.nq)
		}
		if !countsEqual(legacyCounts, batchedCounts) {
			identical = false
			t.Errorf("q%d: batched Counts differ from legacy Counts", tc.nq)
		}
		// The tree as the timed runs left it.
		paths := plan.pathList()
		entries, ckpts := 0, 0
		for _, n := range paths {
			entries += len(n.tape)
			ckpts += len(n.ckpts)
		}
		rates := make([]float64, 0, len(paths))
		for _, n := range paths {
			rates = append(rates, float64(leafHits[n.id])/accounting)
		}
		// The counter deltas cover all timing rounds; report per-run
		// occupancy (every round does identical work).
		units := (after.BatchUnits - before.BatchUnits) / rounds
		batchTrials := (after.BatchTrials - before.BatchTrials) / rounds
		meanBatch := 0.0
		if units > 0 {
			meanBatch = float64(batchTrials) / float64(units)
		}
		report.Rows = append(report.Rows, row{
			Case:           fmt.Sprintf("RunTrajectory/q%d", tc.nq),
			Trials:         tc.trials,
			LegacyTrialsS:  legacyS,
			PrefixTrialsS:  prefixS,
			BatchedTrialsS: batchedS,
			Speedup:        batchedS / legacyS,
			SpeedupSeq:     prefixS / legacyS,
			TapeEntries:    entries,
			TreeLeaves:     len(paths),
			TreeDepth:      plan.maxDepth,
			LeafHitRates:   rates,
			DivergentRate:  float64(divergent) / accounting,
			Checkpoints:    ckpts,
			CkptBytes:      plan.stateBytes,
			Buckets:        (after.BatchBuckets - before.BatchBuckets) / rounds,
			Units:          units,
			MeanBatch:      meanBatch,
			LaneClones:     (after.BatchLaneClones - before.BatchLaneClones) / rounds,
			Deferred:       (after.BatchDeferredTrials - before.BatchDeferredTrials) / rounds,
			Steals:         (after.UnitSteals - before.UnitSteals) / rounds,
			Identical:      identical,
		})
	}

	head := report.Rows[len(report.Rows)-1]
	report.Headline = fmt.Sprintf("RunTrajectory/q14: %.2fx trials/s vs frozen legacy loop (batched %.0f vs %.0f; sequential tape-tree %.0f)",
		head.Speedup, head.BatchedTrialsS, head.LegacyTrialsS, head.PrefixTrialsS)
	if head.Speedup < 1.5 {
		t.Errorf("headline speedup %.2fx below the 1.5x acceptance bar", head.Speedup)
	}
	// The interleaved rounds average shared-machine load across engines;
	// the 5% tolerance absorbs what interleaving cannot.
	if head.BatchedTrialsS < 0.95*head.PrefixTrialsS {
		t.Errorf("batched engine (%.0f trials/s) slower than the sequential tape-tree path (%.0f trials/s) on q14",
			head.BatchedTrialsS, head.PrefixTrialsS)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", report.Headline)
}
