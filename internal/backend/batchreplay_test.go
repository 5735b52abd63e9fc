package backend

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/rng"
)

// TestBatchedReplayStats pins the occupancy accounting: every divergent
// trial is replayed through exactly one retiring unit (deferred trials
// are re-counted only when their continuation completes), units and
// buckets are formed whenever divergences exist, and lane usage is at
// least one per unit.
func TestBatchedReplayStats(t *testing.T) {
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
			c, err := legacy.runLegacy(tc.c, run.trials, rng.New(run.seed))
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
		if n := len(prog.plan().pathList()); n < 2 {
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
// cached plans' checkpoint bytes as they build and grow, falls to zero
// once their program is evicted from the program cache, and stays there
// while a run still holding the evicted program grows its plan.
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
	plan := prog.plan()
	spine := m.CacheStats().PlanBytes
	if spine <= 0 || spine != plan.stateBytes.Load() {
		t.Fatalf("PlanBytes after the spine build = %d, want the plan's %d", spine, plan.stateBytes.Load())
	}
	if _, err := m.Run(exe, 2048, rng.New(2)); err != nil {
		t.Fatal(err)
	}
	if grown := m.CacheStats().PlanBytes; grown <= spine || grown != plan.stateBytes.Load() {
		t.Fatalf("PlanBytes after growth = %d, want the plan's %d (> spine %d)", grown, plan.stateBytes.Load(), spine)
	}
	// Push the program out of the cache with distinct compiled circuits.
	for i := 0; i < programCacheCap; i++ {
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
	// A run still holding the evicted program may grow its plan; the
	// gauge must not count that.
	before := plan.stateBytes.Load()
	m.runBatched(prog, plan, 16384, rng.New(3), nil)
	if plan.stateBytes.Load() <= before {
		t.Fatalf("the evicted plan did not grow (%d bytes); the test needs growth", before)
	}
	if got := m.CacheStats().PlanBytes; got != 0 {
		t.Fatalf("evicted program's growth reached the gauge: %d", got)
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

// TestRunPanicReachesCaller: a panic on one trial of a parallel Run —
// a trial that finishes on its walk, or one replayed in phase B —
// reaches the caller of Run instead of crashing the process from a
// worker goroutine, and the other workers stop rather than wait for the
// panicked worker's units.
func TestRunPanicReachesCaller(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	defer func() { testHookPrefix = nil }()
	exe := benchCircuit(10)
	const trials = 2000

	walked, replayed := -1, -1
	var mu sync.Mutex
	testHookPrefix = func(trial, node int, _ bitstr.BitString, _ *rng.RNG) {
		mu.Lock()
		defer mu.Unlock()
		if node >= 0 && (walked < 0 || trial < walked) {
			walked = trial
		}
		if node < 0 && (replayed < 0 || trial < replayed) {
			replayed = trial
		}
	}
	if _, err := noisyMachine(7).Run(exe, trials, rng.New(5)); err != nil {
		t.Fatal(err)
	}
	if walked < 0 || replayed < 0 {
		t.Fatalf("run lacks a walked (%d) or a replayed (%d) trial", walked, replayed)
	}

	for _, bad := range []int{walked, replayed} {
		want := fmt.Sprintf("trial %d", bad)
		testHookPrefix = func(trial, _ int, _ bitstr.BitString, _ *rng.RNG) {
			if trial == bad {
				panic(want)
			}
		}
		got := func() (p any) {
			defer func() { p = recover() }()
			_, _ = noisyMachine(7).Run(exe, trials, rng.New(5))
			return nil
		}()
		if got != want {
			t.Fatalf("Run recovered %v, want %q", got, want)
		}
	}
}
