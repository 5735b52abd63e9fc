package backend

// Prefix-sharing trajectory engine with a traffic-grown tape tree.
//
// At the device's error rates most Monte-Carlo trials follow the same
// branch at every stochastic step for a long prefix of the schedule —
// the depolarizing events overwhelmingly sample "no error", the damping
// channels overwhelmingly sample their no-jump operator. Along such a
// shared prefix the statevector is bit-identical across trials, which
// means every state-dependent branch probability (Kraus weights,
// measurement probabilities) is bit-identical too. So the schedule is
// executed once along its *dominant path* — every stochastic step takes
// its higher-probability branch — recording, per stochastic draw, the
// exact floating-point comparison the live code would perform (the
// threshold tape) plus copy-on-write statevector checkpoints every few
// steps. That path, the *spine*, is all a plan holds when it is built.
//
// One path is not enough when the schedule contains genuinely random
// branch points: a measurement of an equal superposition sends half of
// all trials off the tape, and each of them pays a suffix replay. So
// every two-outcome tape entry — a measurement or a two-operator Kraus
// selection, the two branch kinds that consume exactly one uniform
// either way — can carry an *exit child*: another dominant path that
// starts right after that entry's minority branch. Exits are not built
// up front. The batched scheduler (sched.go) counts, per run, how many
// trials leave the tree at each unbuilt exit, and builds the child of
// every exit that at least growMinArrivals trials reached (growExits).
// The tree therefore grows where trials actually go and stays a bare
// spine where they scatter, until maxTreePaths paths exist or the
// checkpoints reach half of planStateBudget. Each path node owns its
// tape, its own checkpoints, its exits and the classical bits at its
// end. A trial burns its uniforms against the tape, follows an exit
// whenever it takes a minority branch that has one, and resolves with
// zero state work if it reaches the end of a path; only trials
// diverging where no exit exists replay a suffix.
//
// Soundness (byte-identity with runTrajectory, DESIGN.md section 10):
//
//   - Thresholds are recorded as the operands of the live comparison
//     and re-evaluated with the same operations ((u < p) for Bernoulli
//     draws, (u*total - w0 < 0) for two-branch Kraus selection via
//     rng.Choose, (u < p1) for measurements), so a tape scan and a live
//     trial branch identically on every uniform.
//   - Every stochastic step consumes exactly one uniform when it takes
//     a recorded branch, and a two-outcome entry consumes exactly one
//     uniform on *either* branch (measurements and two-operator Choose
//     draw one Float64 regardless of outcome), so the draw index along
//     any path — spine or exit child — equals the trial stream's draw
//     index; a checkpoint at path draw index k is restored by deriving
//     the trial stream afresh and Skip(k)-ing it. Pauli error branches
//     draw extra uniforms (the error-kind draw), which is why tapeBern
//     entries never carry an exit.
//   - Replay from a checkpoint re-executes the remaining schedule with
//     the live code path: the steps between the checkpoint and the
//     divergent draw re-sample their recorded branches (same state,
//     same uniforms, same comparisons — including any exits the trial
//     followed), and the divergent step itself consumes whatever extra
//     draws its branch needs, exactly as the legacy loop would. An exit
//     child shares its parent's checkpoints only up to its exit step
//     (checkpointBefore).
//
// The engine therefore changes only how trials are scheduled, never
// what they compute: tree shape, and so growth order, never affects
// Counts.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"edm/internal/circuit"
	"edm/internal/rng"
	"edm/internal/statevec"
)

// tapeOp discriminates threshold-tape entries; each entry corresponds
// to exactly one uniform drawn from the trial stream.
type tapeOp uint8

const (
	// tapeBern is a depolarizing-event Bernoulli draw whose recorded
	// branch is "no error": a trial follows iff !(u < a), a = p.
	tapeBern tapeOp = iota
	// tapeChoose0 / tapeChoose1 are a two-operator Kraus selection via
	// rng.Choose with recorded branch 0 / 1: Choose returns 0 iff
	// u*b - a < 0, with a = probs[0] and b = probs[0]+probs[1] summed in
	// Choose's order.
	tapeChoose0
	tapeChoose1
	// tapeMeas0 / tapeMeas1 are a measurement with recorded outcome
	// 0 / 1: MeasureQubit observes 1 iff u < a, a = P(1).
	tapeMeas0
	tapeMeas1
)

// tapeEntry is one recorded stochastic draw of a dominant path.
type tapeEntry struct {
	a, b float64
	step int32 // schedule step this draw belongs to
	op   tapeOp
}

// follows reports whether a trial whose next uniform is u takes this
// entry's recorded branch. The comparisons replicate the live code's
// float operations exactly; see the tapeOp constants.
func (e *tapeEntry) follows(u float64) bool {
	switch e.op {
	case tapeBern:
		return !(u < e.a)
	case tapeChoose0:
		return e.choosesZero(u)
	case tapeChoose1:
		return !e.choosesZero(u)
	case tapeMeas1:
		return u < e.a
	default: // tapeMeas0
		return !(u < e.a)
	}
}

// choosesZero replicates rng.Choose's two-weight branch test, statement
// for statement (so an FMA-fusing compiler treats both identically):
// with x := u*total, Choose returns 0 iff x - w0 < 0.
func (e *tapeEntry) choosesZero(u float64) bool {
	x := u * e.b
	x -= e.a
	return x < 0
}

// recorded returns the branch index the entry records: the measurement
// outcome, the rng.Choose branch, or 0 ("no error") for tapeBern.
func (e *tapeEntry) recorded() int {
	if e.op == tapeChoose1 || e.op == tapeMeas1 {
		return 1
	}
	return 0
}

// checkpoint is a copy-on-write snapshot of a dominant path: the
// state and classical bits *before* executing schedule step stepIdx,
// with tapeIdx stochastic draws consumed along the path so far.
// Checkpoints are built once per path and only ever read afterwards —
// trials restore by copying into their private scratch.
type checkpoint struct {
	stepIdx int
	tapeIdx int
	state   *statevec.State // nil for the initial |0...0> checkpoint
	bits    []int
}

// treeNode is one dominant path of the tape tree: the root spine starts
// at schedule step 0, every other path right after the minority branch
// of its parent's tape entry exitIdx. A path always runs to the end of
// the schedule and carries the classical bits there.
type treeNode struct {
	id     int
	depth  int // exits above this path
	parent *treeNode
	// exitIdx and exitStep locate the parent tape entry whose minority
	// branch starts this path (root: -1 and math.MaxInt); start is the
	// path draw index of tape[0].
	exitIdx  int
	exitStep int
	start    int
	tape     []tapeEntry
	// exits[i] is the exit child of tape[i], nil until grown. Children
	// are published atomically, so walks read them without the plan
	// lock while another run grows the tree.
	exits   []atomic.Pointer[treeNode]
	ckpts   []checkpoint // ascending stepIdx, path-global tapeIdx
	domBits []int        // bits after the full path
}

// checkpointBefore returns the latest checkpoint on the root-to-n path
// whose stepIdx is at or before the given schedule step. Above a path
// only its parent's prefix up to the exit step is shared, so the
// search never returns a parent checkpoint past an exit. The root's
// initial checkpoint (stepIdx 0) guarantees a hit.
func (n *treeNode) checkpointBefore(step int) *checkpoint {
	for node := n; node != nil; node = node.parent {
		ck := node.ckpts
		i := sort.Search(len(ck), func(j int) bool { return ck[j].stepIdx > step })
		if i > 0 {
			return &ck[i-1]
		}
		if node.exitStep < step {
			step = node.exitStep
		}
	}
	panic("backend: no checkpoint at or before step") // root ckpt 0 prevents this
}

// prefixPlan is the per-program artifact of the dominant-path build: a
// tape tree that starts as one spine and grows exit children from
// trial traffic. mu serializes growth; walks never take it.
type prefixPlan struct {
	root *treeNode

	mu       sync.Mutex
	paths    []*treeNode // all paths, creation order; paths[0] == root
	maxDepth int
	// stateBytes is the checkpoint memory footprint (amplitude buffers
	// only), reported by benchmarks and the PlanBytes gauge. It only
	// grows under mu; CacheStats reads it without the lock.
	stateBytes atomic.Int64
	// full is set once growth hit the path cap or the byte budget, so
	// later runs skip counting arrivals.
	full atomic.Bool
}

// canGrow reports whether the plan may add another path: the path cap
// has room and checkpoint memory is below half the plan budget (the
// new path still snapshots as it builds). Callers hold mu.
func (p *prefixPlan) canGrow() bool {
	return len(p.paths) < maxTreePaths && p.stateBytes.Load() < planStateBudget/2
}

// Tree and checkpoint budgets. An exit child adds a dominant path for a
// minority branch: trials leaving the tree there keep walking the tape
// at zero state cost, and when they diverge again later they replay
// from one of the new path's own checkpoints — so every exit shifts
// replay suffixes toward the tail of the schedule. An exit is grown
// only once growMinArrivals trials of one run reach it, so checkpoint
// memory follows traffic instead of the schedule's branch structure.
// Checkpoint memory is bounded twice over: the worst case is
// maxTreePaths * (maxCheckpoints+1) * 16*2^n bytes, and planStateBudget
// caps the actual footprint — growth stops at half the budget and
// checkpoint snapshots stop at the full budget, degrading replay
// granularity instead of exhausting memory on wide states.
const (
	maxCheckpoints       = 24
	minCheckpointSpacing = 12
	maxTreePaths         = 96
	growMinArrivals      = 16
	planStateBudget      = 256 << 20
)

func checkpointSpacing(nSteps int) int {
	sp := (nSteps + maxCheckpoints - 1) / maxCheckpoints
	if sp < minCheckpointSpacing {
		sp = minCheckpointSpacing
	}
	return sp
}

// Engine counters, surfaced through EngineStatsSnapshot (cmd/edm
// -cachestats). Plan-level counters cost nothing per trial; trial-level
// counters are accumulated per worker and flushed once per run.
var engineStats struct {
	plansBuilt   atomic.Int64
	planPaths    atomic.Int64
	fullDominant atomic.Int64
	divergent    atomic.Int64

	// Stabilizer engine counters (stab.go).
	stabPrograms    atomic.Int64
	stabFallbacks   atomic.Int64
	stabPrefixSteps atomic.Int64
	stabMaxWords    atomic.Int64
	stabTrials      atomic.Int64

	// Batched replay counters (batchreplay.go / sched.go).
	batchBuckets  atomic.Int64
	batchUnits    atomic.Int64
	batchTrials   atomic.Int64
	batchLanes    atomic.Int64
	batchClones   atomic.Int64
	batchDeferred atomic.Int64
	unitSteals    atomic.Int64
}

// EngineStats is a snapshot of the trajectory engine's counters.
type EngineStats struct {
	// PlansBuilt counts prefix plans built (one spine per compiled
	// program). PlanFallbacks counted programs whose Kraus sets the tape
	// could not model; damping channels are Kraus pairs by type now, so
	// it is always zero and stays only for the reports that print it.
	PlansBuilt    int64
	PlanFallbacks int64
	// PlanPaths is the total number of dominant paths across built
	// plans: one spine per plan plus every exit child grown since.
	PlanPaths int64
	// FullDominantTrials resolved at the end of a path with zero state
	// work; DivergentTrials replayed a suffix from a checkpoint.
	FullDominantTrials int64
	DivergentTrials    int64

	// StabPrograms / StabFallbacks count analyzed programs whose whole
	// schedule converted to tableau operations vs those with a
	// non-Clifford step (which run on the statevector engine instead).
	StabPrograms  int64
	StabFallbacks int64
	// StabPrefixSteps is the total Clifford prefix length across
	// analyzed programs (equal to the schedule length for converted
	// programs); StabMaxWords is the widest tableau row, in 64-bit
	// words, any stabilizer plan used.
	StabPrefixSteps int64
	StabMaxWords    int64
	// StabTrials counts trials executed on the tableau.
	StabTrials int64

	// Batched-replay occupancy. BatchBuckets counts distinct
	// (checkpoint) buckets the scheduler formed; BatchUnits counts the
	// replay units processed (buckets after fragmentation plus deferred
	// continuations); BatchTrials counts divergent trials replayed
	// through the batched path, so BatchTrials/BatchUnits is the mean
	// batch size. BatchLanes is the total live-lane high-water across
	// units, BatchLaneClones counts lane copies taken when a group split
	// at a stochastic step, and BatchDeferredTrials counts trials pushed
	// to a continuation unit because their unit ran out of lanes.
	BatchBuckets        int64
	BatchUnits          int64
	BatchTrials         int64
	BatchLanes          int64
	BatchLaneClones     int64
	BatchDeferredTrials int64
	// UnitSteals counts replay units migrated between workers by the
	// work-stealing scheduler.
	UnitSteals int64
}

// EngineStatsSnapshot returns the process-wide trajectory engine
// counters.
func EngineStatsSnapshot() EngineStats {
	return EngineStats{
		PlansBuilt:         engineStats.plansBuilt.Load(),
		PlanPaths:          engineStats.planPaths.Load(),
		FullDominantTrials: engineStats.fullDominant.Load(),
		DivergentTrials:    engineStats.divergent.Load(),
		StabPrograms:       engineStats.stabPrograms.Load(),
		StabFallbacks:      engineStats.stabFallbacks.Load(),
		StabPrefixSteps:    engineStats.stabPrefixSteps.Load(),
		StabMaxWords:       engineStats.stabMaxWords.Load(),
		StabTrials:         engineStats.stabTrials.Load(),

		BatchBuckets:        engineStats.batchBuckets.Load(),
		BatchUnits:          engineStats.batchUnits.Load(),
		BatchTrials:         engineStats.batchTrials.Load(),
		BatchLanes:          engineStats.batchLanes.Load(),
		BatchLaneClones:     engineStats.batchClones.Load(),
		BatchDeferredTrials: engineStats.batchDeferred.Load(),
		UnitSteals:          engineStats.unitSteals.Load(),
	}
}

// ResetEngineStats zeroes the engine counters (tests and benchmarks).
func ResetEngineStats() {
	engineStats.plansBuilt.Store(0)
	engineStats.planPaths.Store(0)
	engineStats.fullDominant.Store(0)
	engineStats.divergent.Store(0)
	engineStats.stabPrograms.Store(0)
	engineStats.stabFallbacks.Store(0)
	engineStats.stabPrefixSteps.Store(0)
	engineStats.stabMaxWords.Store(0)
	engineStats.stabTrials.Store(0)
	engineStats.batchBuckets.Store(0)
	engineStats.batchUnits.Store(0)
	engineStats.batchTrials.Store(0)
	engineStats.batchLanes.Store(0)
	engineStats.batchClones.Store(0)
	engineStats.batchDeferred.Store(0)
	engineStats.unitSteals.Store(0)
}

// plan returns the program's prefix plan, building its spine on first
// use.
func (prog *program) plan() *prefixPlan {
	prog.prefixOnce.Do(func() { prog.prefix.Store(buildPrefixPlan(prog)) })
	return prog.prefix.Load()
}

// treeBuilder carries the shared parameters of path builds: checkpoint
// spacing and the schedule position of the first measurement (which
// gets an extra snapshot so the common "gates stayed dominant, a
// measurement diverged" replay is bounded by the measurement block).
type treeBuilder struct {
	prog      *program
	plan      *prefixPlan
	spacing   int
	firstMeas int
}

func newTreeBuilder(prog *program, plan *prefixPlan) *treeBuilder {
	b := &treeBuilder{
		prog:      prog,
		plan:      plan,
		spacing:   checkpointSpacing(len(prog.steps)),
		firstMeas: -1,
	}
	for i := range prog.steps {
		if prog.steps[i].kind == stepMeasure {
			b.firstMeas = i
			break
		}
	}
	return b
}

// newNode registers a path node. Callers hold plan.mu once the plan is
// published.
func (b *treeBuilder) newNode(parent *treeNode) *treeNode {
	n := &treeNode{id: len(b.plan.paths), parent: parent, exitIdx: -1, exitStep: math.MaxInt}
	if parent != nil {
		n.depth = parent.depth + 1
	}
	if n.depth > b.plan.maxDepth {
		b.plan.maxDepth = n.depth
	}
	b.plan.paths = append(b.plan.paths, n)
	return n
}

// snapshot records a checkpoint of the current path state before
// schedule step stepIdx, skipping duplicates at the same step. Once the
// plan's checkpoint memory reaches planStateBudget no further snapshots
// are taken — replay restores from an earlier checkpoint instead
// (checkpointBefore walks up the tree), trading replay granularity for
// a bounded footprint.
func (b *treeBuilder) snapshot(node *treeNode, s *statevec.State, bits []int, stepIdx int) {
	if k := len(node.ckpts); k > 0 && node.ckpts[k-1].stepIdx == stepIdx {
		return
	}
	if b.plan.stateBytes.Load() >= planStateBudget {
		return
	}
	node.ckpts = append(node.ckpts, checkpoint{
		stepIdx: stepIdx,
		tapeIdx: node.start + len(node.tape),
		state:   s.Clone(),
		bits:    append([]int(nil), bits...),
	})
	b.plan.stateBytes.Add(int64(16) << uint(b.prog.nLocal))
}

// buildPrefixPlan builds a plan's spine: the dominant path is executed
// once — unitary steps evolve the state through the shared kernels,
// stochastic steps record their threshold and apply their preferred
// branch. Exit children are grown later, from trial traffic
// (growExits). Every stochastic step is modelable: damping channels are
// Kraus pairs by type (dampKraus), so each draw is one of the tape's
// two-way entries.
func buildPrefixPlan(prog *program) *prefixPlan {
	plan := &prefixPlan{}
	b := newTreeBuilder(prog, plan)
	root := b.newNode(nil)
	root.ckpts = append(root.ckpts, checkpoint{stepIdx: 0, tapeIdx: 0})
	plan.root = root
	s := statevec.GetState(prog.nLocal)
	defer statevec.PutState(s)
	b.build(root, s, make([]int, prog.numClbits), 0, subStart)
	engineStats.plansBuilt.Add(1)
	engineStats.planPaths.Add(1)
	return plan
}

// Sub-step positions for resuming a schedule step after an exit: a damp
// step samples its amplitude channel then its dephasing channel, and an
// exit at either leaves the rest of the step to the child path.
const (
	subStart  = 0 // execute the whole step
	subAfterA = 1 // amplitude Kraus done (damp) / measurement done
	subAfterP = 2 // both damp channels done
)

// build executes node's dominant path from schedule position
// (startStep, startSub) to the end of the schedule, recording its tape
// and checkpoints. s and bits are the running path state.
func (b *treeBuilder) build(node *treeNode, s *statevec.State, bits []int, startStep, startSub int) {
	prog := b.prog
	node.tape = make([]tapeEntry, 0, drawsFrom(prog, startStep, startSub))
	var probs [2]float64
	for i := startStep; i < len(prog.steps); i++ {
		st := &prog.steps[i]
		sub := subStart
		if i == startStep {
			sub = startSub
		}
		if i == b.firstMeas && sub == subStart {
			b.snapshot(node, s, bits, i)
		}
		q0 := int(st.q0)
		switch st.kind {
		case stepU1, stepU2:
			applyUnitaryStep(s, prog, st)
		case stepPauli1, stepPauli2:
			// Preferred branch: no error. This is the maximum-probability
			// branch whenever p < 1/2, which holds for every calibrated
			// error rate; it is also the only branch with a fixed draw
			// count (one uniform), which is what keeps path draw index ==
			// trial draw index — and why Pauli entries never carry exits.
			if st.p > 0 {
				node.tape = append(node.tape, tapeEntry{op: tapeBern, a: st.p, step: int32(i)})
			}
		case stepDamp:
			k := &prog.damps[st.idx]
			if k.hasAmp && sub < subAfterA {
				b.emitKraus(node, s, k.amp[:], q0, i, &probs)
			}
			if k.hasPh && sub < subAfterP {
				b.emitKraus(node, s, k.ph[:], q0, i, &probs)
			}
		case stepMeasure:
			if sub == subStart {
				p1 := s.ProbabilityOne(q0)
				e := tapeEntry{op: tapeMeas0, a: p1, step: int32(i)}
				if p1 >= 0.5 {
					e.op = tapeMeas1
				}
				node.tape = append(node.tape, e)
				s.Project(q0, e.recorded())
				bits[st.cbit] = e.recorded()
			}
		}
		if (i+1)%b.spacing == 0 && i+1 < len(prog.steps) {
			b.snapshot(node, s, bits, i+1)
		}
	}
	node.domBits = append([]int(nil), bits...)
	node.exits = make([]atomic.Pointer[treeNode], len(node.tape))
}

// drawsFrom counts the stochastic draws a dominant path makes from
// schedule position (step, sub) to the end: the length of its tape.
func drawsFrom(prog *program, step, sub int) int {
	n := 0
	for i := step; i < len(prog.steps); i++ {
		st := &prog.steps[i]
		if i > step {
			sub = subStart
		}
		switch st.kind {
		case stepPauli1, stepPauli2:
			if st.p > 0 {
				n++
			}
		case stepDamp:
			k := &prog.damps[st.idx]
			if k.hasAmp && sub < subAfterA {
				n++
			}
			if k.hasPh && sub < subAfterP {
				n++
			}
		case stepMeasure:
			if sub == subStart {
				n++
			}
		}
	}
	return n
}

// emitKraus records one two-operator Kraus selection on the dominant
// path: branch probabilities are computed exactly as a live
// ApplyKraus1Q would on this state, and the higher-probability branch
// is recorded and applied (pre-scaled, through the same kernels).
func (b *treeBuilder) emitKraus(node *treeNode, s *statevec.State,
	ks []circuit.Matrix2, q, stepIdx int, probs *[2]float64) {
	s.KrausBranchProbs1Q(ks, q, probs[:])
	// total replicates rng.Choose's summation order.
	e := tapeEntry{op: tapeChoose0, a: probs[0], b: probs[0] + probs[1], step: int32(stepIdx)}
	if probs[1] > probs[0] {
		e.op = tapeChoose1
	}
	node.tape = append(node.tape, e)
	dom := e.recorded()
	s.ApplyKrausBranch1Q(ks, q, dom, probs[dom])
}

// exitKey names one exit: tape entry idx of path node.
type exitKey struct {
	node *treeNode
	idx  int
}

// growExits grows the tree from one run's divergent trials: every
// unbuilt exit of a two-outcome entry that at least growMinArrivals of
// divs left the tree at gets its child path, busiest exits first, while
// the plan has room. Growth runs under the plan lock and publishes
// each child atomically, so concurrent runs of one cached program walk
// either the old or the new tree — both give the same Counts.
func growExits(prog *program, plan *prefixPlan, divs []divTrial) {
	if plan.full.Load() {
		return
	}
	arrivals := make(map[exitKey]int)
	for i := range divs {
		if d := &divs[i]; d.entry().op != tapeBern {
			arrivals[exitKey{d.node, d.pos - d.node.start}]++
		}
	}
	var keys []exitKey
	for k, c := range arrivals {
		if c >= growMinArrivals {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return
	}
	sort.Slice(keys, func(i, j int) bool {
		ci, cj := arrivals[keys[i]], arrivals[keys[j]]
		if ci != cj {
			return ci > cj
		}
		if keys[i].node.id != keys[j].node.id {
			return keys[i].node.id < keys[j].node.id
		}
		return keys[i].idx < keys[j].idx
	})
	plan.mu.Lock()
	defer plan.mu.Unlock()
	b := newTreeBuilder(prog, plan)
	for _, k := range keys {
		if !plan.canGrow() {
			break
		}
		if k.node.exits[k.idx].Load() == nil {
			b.buildExit(k.node, k.idx)
		}
	}
	plan.full.Store(!plan.canGrow())
}

// buildExit builds and publishes the exit child of parent.tape[idx]:
// restore the tightest on-path checkpoint before the exit, replay the
// path's recorded branches up to the exit, take the minority branch
// there, and build the dominant path on from the exit's sub-step.
// Callers hold plan.mu.
func (b *treeBuilder) buildExit(parent *treeNode, idx int) {
	prog := b.prog
	exitStep := int(parent.tape[idx].step)
	ck := parent.checkpointBefore(exitStep)
	s := statevec.GetState(prog.nLocal)
	defer statevec.PutState(s)
	bits := make([]int, prog.numClbits)
	if ck.state != nil {
		s.CopyFrom(ck.state)
		copy(bits, ck.bits)
	}
	step, sub := b.replayScript(s, bits, ck.stepIdx, pathScript(parent, idx, ck.tapeIdx))
	if step != exitStep {
		panic("backend: exit replay ended off its exit step")
	}
	child := b.newNode(parent)
	child.exitIdx, child.exitStep, child.start = idx, exitStep, parent.start+idx+1
	b.build(child, s, bits, step, sub)
	parent.exits[idx].Store(child)
	engineStats.planPaths.Add(1)
}

// pathScript returns the branches a trial takes on the path to the
// minority branch of n.tape[idx], one per path draw from draw index
// `from` through the exit draw itself. Each node on the path
// contributes its recorded branches up to the entry where the path
// leaves it, and that entry's minority branch.
func pathScript(n *treeNode, idx, from int) []int {
	script := make([]int, n.start+idx+1-from)
	for node, end := n, idx; node != nil; node, end = node.parent, node.exitIdx {
		for j := end; j >= 0; j-- {
			g := node.start + j
			if g < from {
				return script
			}
			br := node.tape[j].recorded()
			if j == end {
				br ^= 1
			}
			script[g-from] = br
		}
	}
	return script
}

// replayScript re-executes the schedule from step `from` along a branch
// script, one branch per stochastic draw, through the builder's
// kernels, and returns the schedule position (step, sub-step) right
// after the script's last draw. Bernoulli draws take "no error" and
// leave the state alone, as on the tape.
func (b *treeBuilder) replayScript(s *statevec.State, bits []int, from int, script []int) (int, int) {
	prog := b.prog
	var probs [2]float64
	k := 0
	for i := from; i < len(prog.steps); i++ {
		st := &prog.steps[i]
		q0 := int(st.q0)
		switch st.kind {
		case stepU1, stepU2:
			applyUnitaryStep(s, prog, st)
		case stepPauli1, stepPauli2:
			if st.p > 0 {
				k++
			}
		case stepDamp:
			dk := &prog.damps[st.idx]
			if dk.hasAmp {
				s.KrausBranchProbs1Q(dk.amp[:], q0, probs[:])
				s.ApplyKrausBranch1Q(dk.amp[:], q0, script[k], probs[script[k]])
				if k++; k == len(script) {
					return i, subAfterA
				}
			}
			if dk.hasPh {
				s.KrausBranchProbs1Q(dk.ph[:], q0, probs[:])
				s.ApplyKrausBranch1Q(dk.ph[:], q0, script[k], probs[script[k]])
				if k++; k == len(script) {
					return i, subAfterP
				}
			}
		case stepMeasure:
			s.Project(q0, script[k])
			bits[st.cbit] = script[k]
			if k++; k == len(script) {
				return i, subAfterA
			}
		}
	}
	panic("backend: branch script outlasted the schedule")
}

// walkTape burns a trial stream's uniforms against the tape tree from
// the start of path node (the root for a fresh trial), with rt
// positioned at node.start: every tape entry consumes one uniform and
// is re-evaluated with the live comparison, and a minority branch with
// a grown exit moves the walk onto the exit child. It returns the path
// where the walk ended and the path draw index of the first divergent
// draw, or -1 for a fully dominant trial — rt is then positioned
// exactly before the readout draws. It is the state-free front half of
// the batched engine: the walk phase of sched.go.
func walkTape(node *treeNode, rt *rng.RNG) (_ *treeNode, divPos int) {
walk:
	for {
		for i := range node.tape {
			e := &node.tape[i]
			if !e.follows(rt.Float64()) {
				if exit := node.exits[i].Load(); exit != nil {
					node = exit
					continue walk
				}
				return node, node.start + i
			}
		}
		return node, -1
	}
}
