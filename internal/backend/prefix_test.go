package backend

import (
	"math"
	"reflect"
	"testing"

	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/mapper"
	"edm/internal/rng"
	"edm/internal/statevec"
	"edm/internal/workloads"
)

// physicalWorkloads compiles every paper workload onto the Melbourne
// device, returning the physical executables the byte-identity tests
// run on both engines.
func physicalWorkloads(t testing.TB) map[string]*mapper.Executable {
	t.Helper()
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	comp := mapper.NewCompiler(cal)
	out := make(map[string]*mapper.Executable)
	for _, w := range workloads.All() {
		exe, err := comp.Compile(w.Circuit)
		if err != nil {
			t.Fatalf("compile %s: %v", w.Name, err)
		}
		out[w.Name] = exe
	}
	return out
}

func countsEqual(a, b *dist.Counts) bool {
	return a.N() == b.N() && a.Total() == b.Total() &&
		reflect.DeepEqual(a.Sorted(), b.Sorted())
}

// TestPrefixEngineByteIdentityWorkloads is the acceptance gate of the
// trajectory engine: for every workload in internal/workloads, the
// Counts Run produces (the batched tape-tree engine) must be
// byte-identical to the legacy trajectory loop's, on both the serial
// path (trials < parallelThreshold) and the parallel path. ci.sh re-runs
// it under -race at GOMAXPROCS=1 and at full width.
func TestPrefixEngineByteIdentityWorkloads(t *testing.T) {
	exes := physicalWorkloads(t)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	for name, exe := range exes {
		for _, trials := range []int{100, 1000} { // serial and parallel
			legacy := New(cal)
			prefix := New(cal)
			want, err := legacy.runLegacy(exe.Circuit, trials, rng.New(42))
			if err != nil {
				t.Fatalf("%s legacy run: %v", name, err)
			}
			got, err := prefix.Run(exe.Circuit, trials, rng.New(42))
			if err != nil {
				t.Fatalf("%s prefix run: %v", name, err)
			}
			if !countsEqual(want, got) {
				t.Errorf("%s (%d trials): prefix-sharing Counts differ from legacy", name, trials)
			}
		}
	}
}

// TestPrefixEngineByteIdentityCached pins the interaction with the PR 4
// run cache: the prefix engine sits below it (same key), so a cached
// prefix machine must serve histograms byte-identical to an uncached
// legacy machine.
func TestPrefixEngineByteIdentityCached(t *testing.T) {
	exes := physicalWorkloads(t)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	exe := exes["bv-6"].Circuit
	legacy := New(cal)
	cached := New(cal)
	cached.EnableRunCache()
	want, err := legacy.runLegacy(exe, 600, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	first, err := cached.Run(exe, 600, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	again, err := cached.Run(exe, 600, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if !countsEqual(want, first) {
		t.Error("cached prefix Counts differ from uncached legacy")
	}
	if first != again {
		t.Error("run cache missed on an identical (circuit, trials, stream) key")
	}
	if s := cached.RunCacheStats(); s.Hits != 1 {
		t.Errorf("run cache hits = %d, want 1", s.Hits)
	}
}

// countingStream is the counting RNG wrapper of the draw-order contract
// test: it exposes how many Uint64 draws a computation consumed from a
// derived trial stream, via state deltas (every draw advances the
// SplitMix64 state by the fixed increment, so the count is exact even
// through Intn's rejection loop).
type countingStream struct {
	r    *rng.RNG
	base uint64
}

func newCountingStream(root *rng.RNG, t int) *countingStream {
	r := root.DeriveN("trial", t)
	return &countingStream{r: r, base: r.State()}
}

func (c *countingStream) draws() uint64 { return rng.DrawCount(c.base, c.r.State()) }

// pathList returns a snapshot of the plan's paths in creation order.
func (p *prefixPlan) pathList() []*treeNode {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*treeNode(nil), p.paths...)
}

// pathDraws returns the number of stochastic draws a trial consumes
// walking from the root to the end of path n: every ancestor's tape up
// to and including the exit entry the path leaves it at, then n's own
// tape.
func pathDraws(n *treeNode) uint64 {
	d := uint64(len(n.tape))
	for c := n; c.parent != nil; c = c.parent {
		d += uint64(c.exitIdx + 1)
	}
	return d
}

// TestPrefixDrawOrderContract proves the batched engine consumes each
// trial's stream in exactly the same order and count as runTrajectory:
// for every trial of every workload, the legacy loop and the batched
// engine must land the trial stream on the same final state (equal
// total draw counts from the same derivation base) and produce the same
// outcome bits. The hooks observe each trial where it reads out, on a
// walk or at the end of a replay. Each plan is first grown by a batched
// run on the same streams, so the observed walks cross exits. The test
// also checks the engine's internal accounting — a dominant trial drew
// exactly its path's draws plus readout, and a trial that diverged at
// path draw index i did so on its path's own tape, at an entry without
// an exit — and that the suite exercises fully dominant trials on the
// spine, dominant trials on an exit path, and divergent trials.
func TestPrefixDrawOrderContract(t *testing.T) {
	exes := physicalWorkloads(t)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	m := New(cal)

	type readout struct {
		n     int // times read out
		node  int
		out   bitstr.BitString
		final uint64
	}
	type divergence struct {
		n, node, pos int
	}
	var reads []readout
	var divs []divergence
	// Each trial is observed by exactly one worker, so per-trial slots
	// need no lock.
	readHook := func(trial, node int, out bitstr.BitString, final *rng.RNG) {
		r := &reads[trial]
		r.n++
		r.node, r.out, r.final = node, out, final.State()
	}
	divHook := func(trial, node, pos int) {
		d := &divs[trial]
		d.n++
		d.node, d.pos = node, pos
	}
	defer func() { testHookPrefix, testHookDiverged = nil, nil }()

	// The paper workloads plus a GHZ chain, whose first measurement is an
	// exact 50/50 branch point — the canonical busy exit.
	circuits := map[string]*circuit.Circuit{"ghz-chain": benchCircuit(6)}
	for name, exe := range exes {
		circuits[name] = exe.Circuit
	}

	sawDominant, sawForkedDominant, sawDivergent := false, false, false
	const trials = 300
	for name, exe := range circuits {
		prog, err := m.getProgram(exe)
		if err != nil {
			t.Fatal(err)
		}
		plan := prog.plan()
		if plan == nil {
			t.Fatalf("%s: no prefix plan", name)
		}
		root := rng.New(99)
		testHookPrefix, testHookDiverged = nil, nil
		m.runBatched(prog, plan, trials, root, nil) // grow the tree
		reads = make([]readout, trials)
		divs = make([]divergence, trials)
		testHookPrefix, testHookDiverged = readHook, divHook
		m.runBatched(prog, plan, trials, root, nil)
		paths := plan.pathList()

		sLegacy := statevec.NewState(prog.nLocal)
		bitsLegacy := make([]int, prog.numClbits)
		for trial := 0; trial < trials; trial++ {
			legacyStream := newCountingStream(root, trial)
			want := m.runTrajectory(prog, sLegacy, bitsLegacy, legacyStream.r)

			rd, dv := reads[trial], divs[trial]
			if rd.n != 1 {
				t.Fatalf("%s trial %d: read out %d times, want once", name, trial, rd.n)
			}
			if want != rd.out {
				t.Fatalf("%s trial %d: outcome differs (legacy %v, batched %v)", name, trial, want, rd.out)
			}
			batchedDraws := rng.DrawCount(legacyStream.base, rd.final)
			if legacyStream.draws() != batchedDraws {
				t.Fatalf("%s trial %d: draw count differs (legacy %d, batched %d)",
					name, trial, legacyStream.draws(), batchedDraws)
			}
			if legacyStream.r.State() != rd.final {
				t.Fatalf("%s trial %d: final stream state differs", name, trial)
			}
			if rd.node >= 0 {
				if dv.n != 0 {
					t.Fatalf("%s trial %d: finished on path %d but was also handed to replay", name, trial, rd.node)
				}
				if rd.node >= len(paths) {
					t.Fatalf("%s trial %d: hook path id %d out of range", name, trial, rd.node)
				}
				node := paths[rd.node]
				sawDominant = true
				if node.depth > 0 {
					sawForkedDominant = true
				}
				// A fully dominant trial consumes one draw per tape entry on
				// its path (exit entries included), plus one readout draw per
				// measured bit — nothing else.
				wantDraws := pathDraws(node)
				for _, q := range prog.measPhys {
					if q >= 0 {
						wantDraws++
					}
				}
				if batchedDraws != wantDraws {
					t.Fatalf("%s trial %d: dominant trial drew %d, want %d", name, trial, batchedDraws, wantDraws)
				}
				continue
			}
			if dv.n != 1 {
				t.Fatalf("%s trial %d: replayed, but handed to replay %d times", name, trial, dv.n)
			}
			sawDivergent = true
			if dv.node < 0 || dv.node >= len(paths) {
				t.Fatalf("%s trial %d: divergence path id %d out of range", name, trial, dv.node)
			}
			node := paths[dv.node]
			own := pathDraws(node) - uint64(len(node.tape))
			if uint64(dv.pos) < own || uint64(dv.pos) >= pathDraws(node) {
				t.Fatalf("%s trial %d: divergence index %d outside path %d's own draws [%d, %d)",
					name, trial, dv.pos, dv.node, own, pathDraws(node))
			}
			if ex := node.exits[uint64(dv.pos)-own].Load(); ex != nil {
				t.Fatalf("%s trial %d: diverged at an entry whose exit exists", name, trial)
			}
		}
	}
	if !sawDominant || !sawForkedDominant || !sawDivergent {
		t.Fatalf("contract test lacks coverage: dominant=%v forked=%v divergent=%v",
			sawDominant, sawForkedDominant, sawDivergent)
	}
}

// pathNodes returns the root-to-n node sequence of a path.
func pathNodes(n *treeNode) []*treeNode {
	var rev []*treeNode
	for c := n; c != nil; c = c.parent {
		rev = append(rev, c)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// TestPrefixPlanShape sanity-checks the tape tree before and after
// growth. A fresh plan is a bare spine. After a batched run the GHZ
// chain's 50/50 first measurement must carry a grown exit, and the tree
// must hold: path ids index plan.paths, every exit links child and
// parent at a two-outcome entry, checkpoints along each path are
// strictly ordered with draw indices that count exactly the path draws
// of earlier steps, checkpointBefore returns the tightest on-path
// checkpoint, and it never returns a parent checkpoint past an exit.
func TestPrefixPlanShape(t *testing.T) {
	m := noisyMachine(7)
	prog, err := m.getProgram(benchCircuit(10))
	if err != nil {
		t.Fatal(err)
	}
	plan := prog.plan()
	if plan == nil {
		t.Fatal("no plan")
	}
	if got := prog.plan(); got != plan {
		t.Fatal("plan() rebuilt the plan")
	}
	if len(plan.paths) != 1 || plan.maxDepth != 0 || plan.root != plan.paths[0] {
		t.Fatalf("fresh plan is not a spine: %d paths, depth %d", len(plan.paths), plan.maxDepth)
	}
	for i := range plan.root.exits {
		if plan.root.exits[i].Load() != nil {
			t.Fatalf("fresh spine has a grown exit at entry %d", i)
		}
	}
	if ck0 := &plan.root.ckpts[0]; len(plan.root.ckpts) == 0 ||
		ck0.stepIdx != 0 || ck0.tapeIdx != 0 || ck0.state != nil {
		t.Fatal("root lacks the initial zero checkpoint")
	}

	m.runBatched(prog, plan, 2048, rng.New(3), nil)

	firstMeas := -1
	for i := range plan.root.tape {
		if e := &plan.root.tape[i]; e.op == tapeMeas0 || e.op == tapeMeas1 {
			firstMeas = i
			break
		}
	}
	if firstMeas < 0 {
		t.Fatal("spine records no measurement")
	}
	if p1 := plan.root.tape[firstMeas].a; p1 < 0.3 || p1 > 0.7 {
		t.Fatalf("first measurement P(1) = %v, want near 1/2", p1)
	}
	if plan.root.exits[firstMeas].Load() == nil {
		t.Fatal("the 50/50 measurement exit was not grown")
	}
	if len(plan.paths) > maxTreePaths {
		t.Fatalf("%d paths exceed the cap %d", len(plan.paths), maxTreePaths)
	}

	// Global structure: ids index plan.paths, exits link both ways at
	// two-outcome entries, every path ends with its bits.
	owner := make(map[*checkpoint]*treeNode)
	var stateCkpts int64
	for i, n := range plan.paths {
		if n.id != i {
			t.Fatalf("path %d has id %d", i, n.id)
		}
		if len(n.domBits) != prog.numClbits || len(n.exits) != len(n.tape) || cap(n.tape) != len(n.tape) {
			t.Fatalf("path %d malformed: %d bits, %d exits for %d entries (tape cap %d)",
				n.id, len(n.domBits), len(n.exits), len(n.tape), cap(n.tape))
		}
		if n.parent == nil {
			if n != plan.root || n.exitIdx != -1 || n.start != 0 {
				t.Fatalf("path %d has no parent but is not the root", n.id)
			}
		} else {
			p := n.parent
			if p.exits[n.exitIdx].Load() != n {
				t.Fatalf("path %d not published at its parent's exit %d", n.id, n.exitIdx)
			}
			if n.depth != p.depth+1 || n.start != p.start+n.exitIdx+1 || n.exitStep != int(p.tape[n.exitIdx].step) {
				t.Fatalf("path %d: depth/start/exit step inconsistent with its parent", n.id)
			}
		}
		for j := range n.exits {
			if c := n.exits[j].Load(); c != nil {
				if n.tape[j].op == tapeBern {
					t.Fatalf("path %d grew an exit on a Bernoulli entry", n.id)
				}
				if c.parent != n || c.exitIdx != j {
					t.Fatalf("path %d exit %d links back wrongly", n.id, j)
				}
			}
		}
		for j := range n.ckpts {
			owner[&n.ckpts[j]] = n
			if n.ckpts[j].state != nil {
				stateCkpts++
			}
		}
	}
	if got := plan.stateBytes.Load(); got != stateCkpts*(16<<uint(prog.nLocal)) {
		t.Fatalf("stateBytes = %d, inconsistent with %d state checkpoints", got, stateCkpts)
	}

	// Per-path structure. A path's draws are each ancestor's tape up to
	// and including its exit entry, then its own tape; its checkpoints
	// are each ancestor's up to the exit step, then its own. Checkpoints
	// must be step-ascending with tapeIdx equal to the path draws of
	// earlier steps.
	for _, leaf := range plan.paths {
		path := pathNodes(leaf)
		var draws []int
		var ckpts []*checkpoint
		onPath := make(map[*checkpoint]bool)
		for k, n := range path {
			end, limit := len(n.tape), math.MaxInt
			if k+1 < len(path) {
				end, limit = path[k+1].exitIdx+1, path[k+1].exitStep
			}
			for _, e := range n.tape[:end] {
				draws = append(draws, int(e.step))
			}
			for j := range n.ckpts {
				if n.ckpts[j].stepIdx <= limit {
					ckpts = append(ckpts, &n.ckpts[j])
					onPath[&n.ckpts[j]] = true
				}
			}
		}
		if uint64(len(draws)) != pathDraws(leaf) {
			t.Fatalf("path %d: %d draws, pathDraws says %d", leaf.id, len(draws), pathDraws(leaf))
		}
		for i := 1; i < len(draws); i++ {
			if draws[i] < draws[i-1] {
				t.Fatalf("path %d: draws not ordered by schedule step", leaf.id)
			}
		}
		for i, cur := range ckpts {
			if i > 0 && (cur.stepIdx <= ckpts[i-1].stepIdx || cur.tapeIdx < ckpts[i-1].tapeIdx) {
				t.Fatalf("path %d: checkpoints out of order: %d -> %d", leaf.id, ckpts[i-1].stepIdx, cur.stepIdx)
			}
			if i > 0 && (cur.state == nil || cur.state.N() != prog.nLocal || len(cur.bits) != prog.numClbits) {
				t.Fatalf("path %d: checkpoint at step %d malformed", leaf.id, cur.stepIdx)
			}
			n := 0
			for _, step := range draws {
				if step < cur.stepIdx {
					n++
				}
			}
			if n != cur.tapeIdx {
				t.Fatalf("path %d checkpoint at step %d: tapeIdx %d, want %d",
					leaf.id, cur.stepIdx, cur.tapeIdx, n)
			}
		}
		// checkpointBefore from the path returns the tightest on-path
		// checkpoint for every draw step of its own tape, and never a
		// parent checkpoint past the path's exit.
		for _, e := range leaf.tape {
			step := int(e.step)
			ck := leaf.checkpointBefore(step)
			if !onPath[ck] {
				t.Fatalf("path %d: checkpointBefore(%d) returned an off-path checkpoint at step %d (owner path %d)",
					leaf.id, step, ck.stepIdx, owner[ck].id)
			}
			if ck.stepIdx > step {
				t.Fatalf("path %d: checkpointBefore(%d) returned later step %d", leaf.id, step, ck.stepIdx)
			}
			if owner[ck] != leaf && ck.stepIdx > leaf.exitStep {
				t.Fatalf("path %d: checkpointBefore(%d) returned parent checkpoint at step %d past exit step %d",
					leaf.id, step, ck.stepIdx, leaf.exitStep)
			}
			for _, c := range ckpts {
				if c.stepIdx > ck.stepIdx && c.stepIdx <= step {
					t.Fatalf("path %d: checkpointBefore(%d) not tightest (%d vs %d)", leaf.id, step, ck.stepIdx, c.stepIdx)
				}
			}
		}
	}
}

// TestTrialAllocsSteadyState pins the backend's steady-state allocation
// contract from PR 1 on the legacy loop: about one allocation per trial
// (the derived trial stream). Regressions here mean a scratch buffer
// leaked back into the hot loop.
func TestTrialAllocsSteadyState(t *testing.T) {
	m := noisyMachine(7)
	prog, err := m.getProgram(benchCircuit(10))
	if err != nil {
		t.Fatal(err)
	}
	scratch := statevec.NewState(prog.nLocal)
	trueBits := make([]int, prog.numClbits)
	root := rng.New(11)
	const trials = 200

	legacyBody := func() {
		for trial := 0; trial < trials; trial++ {
			m.runTrajectory(prog, scratch, trueBits, root.DeriveN("trial", trial))
		}
	}
	legacyBody() // warm up scratch pools and lazily built state

	if per := testing.AllocsPerRun(10, legacyBody) / trials; per > 1.1 {
		t.Errorf("legacy path: %.2f allocs/trial, want ~1", per)
	}
}
