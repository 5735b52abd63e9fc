package backend

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"edm/internal/bitstr"
	"edm/internal/dist"
	"edm/internal/rng"
	"edm/internal/statevec"
)

// TestTrajectoryBenchReport regenerates BENCH_trajectory.json (via
// scripts/bench_trajectory.sh): the batched tape-tree engine versus the
// frozen legacy trajectory loop, on the representative executables of
// BENCH_kernels.json. Keeping the measurement in Go lets the report
// assert Counts byte-equality between the engines in the same process
// that times them, and lets it observe where trials read out through
// the test hook for the per-path hit rates. It skips unless
// EDM_BENCH_TRAJECTORY_OUT names the output file.
func TestTrajectoryBenchReport(t *testing.T) {
	out := os.Getenv("EDM_BENCH_TRAJECTORY_OUT")
	if out == "" {
		t.Skip("set EDM_BENCH_TRAJECTORY_OUT to write the trajectory benchmark report")
	}

	type row struct {
		Case           string    `json:"case"`
		Trials         int       `json:"trials"`
		LegacyTrialsS  float64   `json:"legacy_trials_per_s"`
		BatchedTrialsS float64   `json:"batched_trials_per_s"`
		Speedup        float64   `json:"speedup"`
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
		Note: "trajectory execution: the batched tape-tree engine (DESIGN.md sections 10 " +
			"and 15), on a tape tree grown by a batched run on the same streams, vs the frozen " +
			"legacy full-replay loop (the byte-identity oracle, serial); the two engines are " +
			"timed in interleaved rounds so shared-machine load lands on both; speedup is " +
			"batched vs legacy; counts_identical asserts the batched Counts equal " +
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
		plan := prog.plan()
		if plan == nil {
			t.Fatal("no prefix plan")
		}
		scratch := statevec.NewState(prog.nLocal)
		trueBits := make([]int, prog.numClbits)
		root := rng.New(11)
		// Grow the tree with one batched run on the timed streams first,
		// so every timed round walks the same grown tree.
		m.runBatched(prog, plan, tc.trials, root, nil)

		// Warm the batched path, pin per-trial byte-identity against the
		// legacy loop, and tally where trials read out: which path each
		// dominant trial ends on, or replay.
		const accounting = 2000
		leafHits := make([]int, maxTreePaths)
		outs := make([]bitstr.BitString, accounting)
		divergent := 0
		var mu sync.Mutex
		testHookPrefix = func(trial, node int, out bitstr.BitString, _ *rng.RNG) {
			outs[trial] = out
			mu.Lock()
			defer mu.Unlock()
			if node >= 0 {
				leafHits[node]++
			} else {
				divergent++
			}
		}
		m.runBatched(prog, plan, accounting, root, nil)
		testHookPrefix = nil
		identical := true
		for trial := 0; trial < accounting; trial++ {
			if outs[trial] != m.runTrajectory(prog, scratch, trueBits, root.DeriveN("trial", trial)) {
				identical = false
			}
		}

		// Time the two engines in interleaved rounds so a load spike on a
		// shared machine lands on both instead of skewing one: each round
		// runs the full trial set through legacy, then batched (walk
		// phase + bucketed replay + work stealing, same streams), and the
		// throughputs are computed from the summed round times.
		const rounds = 3
		var legacyT, batchedT time.Duration
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
			batchedCounts = m.runBatched(prog, plan, tc.trials, root, nil)
			batchedT += time.Since(start)
		}
		legacyS := float64(rounds*tc.trials) / legacyT.Seconds()
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
			BatchedTrialsS: batchedS,
			Speedup:        batchedS / legacyS,
			TapeEntries:    entries,
			TreeLeaves:     len(paths),
			TreeDepth:      plan.maxDepth,
			LeafHitRates:   rates,
			DivergentRate:  float64(divergent) / accounting,
			Checkpoints:    ckpts,
			CkptBytes:      plan.stateBytes.Load(),
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
	report.Headline = fmt.Sprintf("RunTrajectory/q14: %.2fx trials/s vs frozen legacy loop (batched %.0f vs %.0f)",
		head.Speedup, head.BatchedTrialsS, head.LegacyTrialsS)
	if head.Speedup < 1.5 {
		t.Errorf("headline speedup %.2fx below the 1.5x acceptance bar", head.Speedup)
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
