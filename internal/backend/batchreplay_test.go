package backend

import (
	"sync"
	"testing"

	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/rng"
)

// TestBatchedReplayByteIdentityWorkloads is the acceptance gate of the
// batched replay engine against its sequential ancestor: for every
// workload, the Counts produced by the batched scheduler (walk phase +
// bucketed suffix replay + work stealing) must be byte-identical to the
// sequential prefix-sharing stripes, on both the serial path
// (trials < parallelThreshold) and the parallel path. Together with
// TestPrefixEngineByteIdentityWorkloads (legacy vs default engine, and
// the default engine is the batched path) this pins
// legacy == sequential prefix == batched for every workload. ci.sh
// re-runs it under -race at GOMAXPROCS=1 and at full width.
func TestBatchedReplayByteIdentityWorkloads(t *testing.T) {
	defer func(prev bool) { batchedReplay = prev }(batchedReplay)
	exes := physicalWorkloads(t)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	for name, exe := range exes {
		for _, trials := range []int{100, 1000} { // serial and parallel
			batchedReplay = false
			seq := New(cal)
			want, err := seq.Run(exe.Circuit, trials, rng.New(42))
			if err != nil {
				t.Fatalf("%s sequential run: %v", name, err)
			}
			batchedReplay = true
			bat := New(cal)
			got, err := bat.Run(exe.Circuit, trials, rng.New(42))
			if err != nil {
				t.Fatalf("%s batched run: %v", name, err)
			}
			if !countsEqual(want, got) {
				t.Errorf("%s trials=%d: batched counts differ from sequential replay", name, trials)
			}
		}
	}
}

// TestBatchedReplayStats pins the occupancy accounting: every divergent
// trial is replayed through exactly one retiring unit (deferred trials
// are re-counted only when their continuation completes), units and
// buckets are formed whenever divergences exist, and lane usage is at
// least one per unit.
func TestBatchedReplayStats(t *testing.T) {
	defer func(prev bool) { batchedReplay = prev }(batchedReplay)
	batchedReplay = true
	ResetEngineStats()
	m := noisyMachine(7)
	exe := benchCircuit(10)
	const trials = 4000
	if _, err := m.Run(exe, trials, rng.New(99)); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := EngineStatsSnapshot()
	if s.FullDominantTrials+s.DivergentTrials != trials {
		t.Fatalf("walk accounting: %d dominant + %d divergent != %d trials",
			s.FullDominantTrials, s.DivergentTrials, trials)
	}
	if s.DivergentTrials == 0 {
		t.Fatalf("workload produced no divergent trials; stats test needs a noisier case")
	}
	if s.BatchTrials != s.DivergentTrials {
		t.Errorf("BatchTrials = %d, want %d (every divergent trial retires through one unit)",
			s.BatchTrials, s.DivergentTrials)
	}
	if s.BatchBuckets == 0 || s.BatchUnits < s.BatchBuckets {
		t.Errorf("bucket/unit accounting: buckets=%d units=%d", s.BatchBuckets, s.BatchUnits)
	}
	if s.BatchLanes < s.BatchUnits {
		t.Errorf("lane accounting: lanes=%d < units=%d", s.BatchLanes, s.BatchUnits)
	}
	if s.BatchUnits > 0 && s.BatchTrials/s.BatchUnits < 1 {
		t.Errorf("mean batch size below 1: trials=%d units=%d", s.BatchTrials, s.BatchUnits)
	}
}

// TestPlanGrowthByteIdentity pins growth against the legacy loop: one
// machine runs one cached program concurrently at mixed trial counts
// and distinct seeds, so runs grow the shared tape tree while others
// walk it, and every histogram must equal a fresh legacy machine's.
// The same (program, seed) must also give identical Counts on a cold
// plan and on a plan other runs have already grown. ci.sh re-runs it
// under -race at GOMAXPROCS=1 and at full width.
func TestPlanGrowthByteIdentity(t *testing.T) {
	exes := physicalWorkloads(t)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	legacy := New(cal)
	legacy.SetTrajectoryEngine(EngineLegacy)
	for _, tc := range []struct {
		name string
		c    *circuit.Circuit
	}{
		{"ghz-8", benchCircuit(8)},
		{"adder", exes["adder"].Circuit},
	} {
		runs := []struct {
			trials int
			seed   uint64
		}{{64, 1}, {1024, 2}, {16384, 3}, {64, 4}, {1024, 5}}
		want := make([]*dist.Counts, len(runs))
		for i, run := range runs {
			c, err := legacy.Run(tc.c, run.trials, rng.New(run.seed))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = c
		}

		// Compile and build the spine once, so every concurrent run shares
		// one cached program (racing first compiles would each keep their
		// own).
		shared := New(cal)
		if _, err := shared.Run(tc.c, 0, rng.New(0)); err != nil {
			t.Fatal(err)
		}
		got := make([]*dist.Counts, len(runs))
		errs := make([]error, len(runs))
		var wg sync.WaitGroup
		for i, run := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = shared.Run(tc.c, run.trials, rng.New(run.seed))
			}()
		}
		wg.Wait()
		for i, run := range runs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !countsEqual(want[i], got[i]) {
				t.Errorf("%s trials=%d seed=%d: concurrent grown-tree Counts differ from legacy", tc.name, run.trials, run.seed)
			}
		}
		prog, err := shared.getProgram(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(shared.planFor(prog).pathList()); n < 2 {
			t.Fatalf("%s: concurrent runs grew no exit (%d paths); the test needs traffic", tc.name, n)
		}

		// Cold plan vs a plan grown by the runs above, per (program, seed).
		for i, run := range runs {
			cold, err := New(cal).Run(tc.c, run.trials, rng.New(run.seed))
			if err != nil {
				t.Fatal(err)
			}
			grown, err := shared.Run(tc.c, run.trials, rng.New(run.seed))
			if err != nil {
				t.Fatal(err)
			}
			if !countsEqual(cold, grown) || !countsEqual(want[i], grown) {
				t.Errorf("%s trials=%d seed=%d: cold-plan and grown-plan Counts differ", tc.name, run.trials, run.seed)
			}
		}
	}
}

// TestPlanBytesGauge pins the machine's PlanBytes gauge: it equals the
// cached plans' checkpoint bytes as they build and grow, and falls to
// zero once their program is evicted from the program cache.
func TestPlanBytesGauge(t *testing.T) {
	m := noisyMachine(7)
	exe := benchCircuit(8)
	if _, err := m.Run(exe, 0, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	prog, err := m.getProgram(exe)
	if err != nil {
		t.Fatal(err)
	}
	plan := m.planFor(prog)
	spine := m.CacheStats().PlanBytes
	if spine <= 0 || spine != plan.stateBytes {
		t.Fatalf("PlanBytes after the spine build = %d, want the plan's %d", spine, plan.stateBytes)
	}
	if _, err := m.Run(exe, 2048, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	if grown := m.CacheStats().PlanBytes; grown <= spine || grown != plan.stateBytes {
		t.Fatalf("PlanBytes after growth = %d, want the plan's %d (> spine %d)", grown, plan.stateBytes, spine)
	}
	// Push the program out of the cache with distinct compiled circuits.
	for i := 0; i <= progCacheLimit; i++ {
		c := circuit.New(14, 1)
		c.RZ(0, float64(i+1)*1e-3)
		c.Measure(0, 0)
		if _, err := m.getProgram(c); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.CacheStats(); got.Evictions == 0 || got.PlanBytes != 0 {
		t.Fatalf("after eviction: %d evictions, PlanBytes %d, want > 0 and 0", got.Evictions, got.PlanBytes)
	}
	// A run still holding the evicted program may grow it; the gauge
	// must not count that.
	m.chargePlan(prog, 1<<20)
	if got := m.CacheStats().PlanBytes; got != 0 {
		t.Fatalf("evicted program charged the gauge: %d", got)
	}
}

func TestMaxLanesFor(t *testing.T) {
	for n := 0; n <= 30; n++ {
		lanes := maxLanesFor(n)
		if lanes < 4 || lanes > 128 {
			t.Fatalf("maxLanesFor(%d) = %d outside [4, 128]", n, lanes)
		}
	}
	if got := maxLanesFor(14); got != 128 {
		t.Errorf("maxLanesFor(14) = %d, want 128", got)
	}
	if got := maxLanesFor(24); got != 4 {
		t.Errorf("maxLanesFor(24) = %d, want 4 (memory-bound clamp)", got)
	}
}
