package experiment

import (
	"fmt"
	"math"
	"time"

	"edm/internal/backend"
	"edm/internal/circuit"
	"edm/internal/core"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/mapper"
	"edm/internal/memo"
	"edm/internal/pool"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// The drifting campaign models the deployment the paper's Section 5.3
// motivates but the round-based protocol sidesteps: one machine tracked
// through successive calibration windows, where each window moves only a
// few qubits and links appreciably (the rest jitter within measurement
// noise). Instead of recompiling every workload from scratch each window
// — today's cost — the campaign threads the sequence of calibrations
// through mapper.Tracking, which diffs consecutive windows and upgrades
// cached candidate pools incrementally (DESIGN.md §11). A cross-check
// mode periodically runs the full recompilation alongside and asserts
// the incremental pool identical (checked mode) or reports the
// routed-ESP delta (fast mode).

// DriftMode selects the recompilation strategy of a drifting campaign.
type DriftMode int

const (
	// DriftIncremental tracks the device with RecompileChecked: dry-run
	// re-route checks keep results bit-identical to full recompilation.
	DriftIncremental DriftMode = iota
	// DriftIncrementalFast tracks with RecompileFast: footprint-trusted,
	// approximate, fastest.
	DriftIncrementalFast
	// DriftFull recompiles every workload from scratch each cycle —
	// today's cost structure, the baseline the speedup is measured
	// against.
	DriftFull
)

func (m DriftMode) String() string {
	switch m {
	case DriftIncremental:
		return "incremental"
	case DriftIncrementalFast:
		return "incremental-fast"
	case DriftFull:
		return "full"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DriftSetup fixes the scale and randomness of a drifting campaign.
type DriftSetup struct {
	Seed   uint64
	Cycles int // calibration windows, including the cold cycle 0
	Trials int
	K      int

	// Tol is the relative-change tolerance fed to the calibration diff;
	// 0 degenerates to full invalidation on any bit of change.
	Tol float64
	// HitQubits/HitEdges is how many qubits and links drift appreciably
	// (by Scale) per window; everything else jitters by Jitter.
	HitQubits int
	HitEdges  int
	Scale     float64
	Jitter    float64

	// Drift scales the within-window runtime wander, as in Setup.
	Drift float64

	Topo    *device.Topology
	Profile device.Profile
	// Workloads names the circuits tracked across the campaign.
	Workloads []string

	Mode DriftMode
	// CrossCheckEvery > 0 runs the incremental-vs-full cross-check on
	// every CrossCheckEvery-th cycle (cycle 0 excluded: nothing has been
	// upgraded yet). Ignored in DriftFull mode.
	CrossCheckEvery int
}

// DefaultDriftSetup returns the paper-scale drifting campaign on the
// Figure 13 workload set.
func DefaultDriftSetup() DriftSetup {
	return DriftSetup{
		Seed:            2019,
		Cycles:          10,
		Trials:          4096,
		K:               4,
		Tol:             1e-3,
		HitQubits:       2,
		HitEdges:        2,
		Scale:           0.04,
		Jitter:          2e-4,
		Drift:           0.2,
		Topo:            device.Melbourne(),
		Profile:         device.MelbourneProfile(),
		Workloads:       []string{"qaoa-6", "bv-6", "greycode-6"},
		Mode:            DriftIncremental,
		CrossCheckEvery: 5,
	}
}

// QuickDriftSetup returns a reduced-scale drifting campaign for smoke
// tests and CI.
func QuickDriftSetup() DriftSetup {
	s := DefaultDriftSetup()
	s.Cycles = 5
	s.Trials = 1024
	s.CrossCheckEvery = 2
	return s
}

// DriftCell is one workload's outcome in one calibration window.
type DriftCell struct {
	Workload    string
	BaselinePST float64
	BaselineIST float64
	EDMPST      float64
	EDMIST      float64
	// CountsKey fingerprints the baseline and ensemble output
	// distributions bit-for-bit; identical keys across modes prove the
	// campaigns executed identical circuits.
	CountsKey uint64
}

// DriftRound is one calibration window of the campaign.
type DriftRound struct {
	Cycle int
	// Diff summarizes the calibration change from the previous window
	// (zero value on cycle 0).
	Diff device.DiffStats
	// Recompile is this window's incremental-recompilation counter delta
	// (zero value in DriftFull mode).
	Recompile mapper.RecompileStats
	// Survival is the fraction of cached candidates that kept their
	// structure this window.
	Survival float64
	// CompileMs is the wall time of the window's compile phase (every
	// workload, k = 1 and k = K).
	CompileMs float64
	Cells     []DriftCell
	// CrossChecked reports that this window ran the incremental-vs-full
	// comparison; PoolsIdentical and MaxESPDelta hold its verdict.
	CrossChecked   bool
	PoolsIdentical bool
	MaxESPDelta    float64
}

// DriftResult is the outcome of a drifting campaign.
type DriftResult struct {
	Mode   DriftMode
	Tol    float64
	Rounds []DriftRound
	// CompileMsTotal sums every window's compile phase; CompileMsSteady
	// excludes the cold cycle 0, isolating the per-window recompilation
	// cost the incremental path optimizes.
	CompileMsTotal  float64
	CompileMsSteady float64
	// Stats is the campaign's aggregate recompilation counters.
	Stats mapper.RecompileStats
}

// distKey folds a distribution into a running fingerprint, outcome by
// outcome in deterministic order.
func distKey(h uint64, d *dist.Dist) uint64 {
	h = memo.Mix(h, uint64(d.N()))
	for _, o := range d.Sorted() {
		h = memo.Mix(h, o.Value.Uint64())
		h = memo.Mix(h, math.Float64bits(o.P))
	}
	return h
}

// RunDrifting executes a drifting campaign. Every RNG stream is derived
// from the seed, the cycle index and the workload name only — never from
// the mode — so the run phase of two campaigns that compiled identical
// circuits produces bit-identical cells, which is what makes the
// incremental-vs-full identity checkable end to end.
func RunDrifting(s DriftSetup) DriftResult {
	ws := make([]workloads.Workload, len(s.Workloads))
	for i, name := range s.Workloads {
		w, ok := workloads.ByName(name)
		if !ok {
			panic(fmt.Sprintf("experiment: unknown workload %q", name))
		}
		ws[i] = w
	}

	root := rng.New(s.Seed).Derive("drift-campaign")
	cal := device.Generate(s.Topo, s.Profile, root.Derive("calibration"))

	var tr *mapper.Tracking
	var comp *mapper.Compiler
	switch s.Mode {
	case DriftIncremental:
		tr = mapper.NewTracking(cal, mapper.RecompileChecked)
	case DriftIncrementalFast:
		tr = mapper.NewTracking(cal, mapper.RecompileFast)
	default:
		comp = mapper.CachedCompiler(cal)
	}
	topK := func(c *circuit.Circuit, k int) ([]*mapper.Executable, error) {
		if tr != nil {
			return tr.TopK(c, k)
		}
		return comp.TopK(c, k)
	}

	out := DriftResult{Mode: s.Mode, Tol: s.Tol, Rounds: make([]DriftRound, 0, s.Cycles)}
	var prevStats mapper.RecompileStats
	for cycle := 0; cycle < s.Cycles; cycle++ {
		round := DriftRound{Cycle: cycle}
		if cycle > 0 {
			next := cal.DriftLocal(s.HitQubits, s.HitEdges, s.Scale, s.Jitter, root.DeriveN("cycle", cycle))
			if tr != nil {
				round.Diff = tr.Advance(next, s.Tol).Stats
			} else {
				round.Diff = cal.DiffStats(next, s.Tol)
				comp = mapper.CachedCompiler(next)
			}
			cal = next
		}
		mach := backend.New(cal.Drift(s.Drift, root.DeriveN("runtime", cycle)))

		// Compile phase, timed: this is the per-window cost the
		// incremental path attacks. The baseline mapping is ensemble
		// member 0 — selectDiverse always seats the pool head there
		// (pinned by TestTopKPrefixStability), so both modes obtain it
		// from the same pool-ranked path and the comparison measures pool
		// construction, not the separate k = 1 branch-and-bound.
		// Workloads compile one after another: the pool pipeline is
		// internally parallel already, and racing three compiles against
		// each other only adds contention noise to the timing this
		// experiment exists to measure.
		comps := make([][]*mapper.Executable, len(ws))
		start := time.Now()
		for i := range ws {
			ens, err := topK(ws[i].Circuit, s.K)
			if err != nil {
				panic(err)
			}
			comps[i] = ens
		}
		round.CompileMs = float64(time.Since(start)) / float64(time.Millisecond)
		out.CompileMsTotal += round.CompileMs
		if cycle > 0 {
			out.CompileMsSteady += round.CompileMs
		}

		if tr != nil {
			cur := tr.Stats()
			round.Recompile = cur.Sub(prevStats)
			prevStats = cur
		}
		round.Survival = round.Recompile.Survival()

		if tr != nil && s.CrossCheckEvery > 0 && cycle > 0 && cycle%s.CrossCheckEvery == 0 {
			round.CrossChecked = true
			round.PoolsIdentical = true
			for _, w := range ws {
				identical, delta, err := tr.CrossCheck(w.Circuit)
				if err != nil {
					panic(err)
				}
				round.PoolsIdentical = round.PoolsIdentical && identical
				round.MaxESPDelta = math.Max(round.MaxESPDelta, delta)
			}
		}

		// Run phase: streams derive from (seed, cycle, workload) only.
		cc := comp
		if tr != nil {
			cc = tr.Compiler()
		}
		runner := core.NewRunner(cc, mach)
		round.Cells = make([]DriftCell, len(ws))
		pool.Fan(len(ws), func(i int) {
			w := ws[i]
			cr := root.DeriveN("cycle-run", cycle).Derive(w.Name)
			bd, err := mach.RunDist(comps[i][0].Circuit, s.Trials, cr.Derive("baseline"))
			if err != nil {
				panic(err)
			}
			res, err := runner.RunExecutables(comps[i],
				core.Config{K: s.K, Trials: s.Trials, Weighting: core.WeightUniform},
				cr.Derive("edm"))
			if err != nil {
				panic(err)
			}
			key := distKey(memo.Seed(), bd)
			key = distKey(key, res.Merged)
			round.Cells[i] = DriftCell{
				Workload:    w.Name,
				BaselinePST: bd.PST(w.Correct),
				BaselineIST: bd.IST(w.Correct),
				EDMPST:      res.Merged.PST(w.Correct),
				EDMIST:      res.Merged.IST(w.Correct),
				CountsKey:   key,
			}
		})
		out.Rounds = append(out.Rounds, round)
	}
	if tr != nil {
		out.Stats = tr.Stats()
	}
	return out
}
