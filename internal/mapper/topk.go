package mapper

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"edm/internal/bitset"
	"edm/internal/circuit"
	"edm/internal/graph"
	"edm/internal/pool"
)

// This file is the ensemble-construction half of the compiler: the
// streaming candidate pipeline behind TopK and Placements.
//
// Earlier versions materialized a full Executable — a cloned circuit plus
// a device.ESP pass — for every isomorphic placement the VF2 enumeration
// produced (hundreds of thousands for the Table 1 workloads). The
// pipeline now keeps a lightweight candidate value per placement, in one
// slab per pool: the ESP is recomputed incrementally from per-gate tables
// as the search emits each mapping, qubit sets are bitmasks, layout
// identity is a 64-bit hash, and circuits are only cloned for the <= k
// placements that survive ranking, dedupe and diversity selection.
// Enumeration and scoring shard across the compute-token pool on the
// first VF2 match level and merge in first-candidate order, so results
// are bit-identical to a serial run.

// enumLimit caps the number of isomorphic placements enumerated; the
// 14-qubit devices of interest stay well under it.
const enumLimit = 100000

// ---------------------------------------------------------------------------
// Qubit-set bitmasks and hashed keys.

// qmask is a set of physical qubits as an inline fixed-width multi-word
// bitset. It replaced the map[int]bool sets and byte-string keys the
// selection stage used originally, and the single-uint64 footprint that
// capped devices at 64 qubits after that. Devices wider than bitset.Cap
// are rejected with device.ErrDeviceTooWide at the compiler's public
// entry points (widthErr) rather than silently truncating footprints.
type qmask = bitset.Set

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvMix folds one 64-bit word into the hash, FNV-1a style but a word at
// a time: each step xors the input and multiplies by the (odd, hence
// bijective) FNV prime, so any single-word difference always changes the
// hash and multi-word collisions are no more likely than random.
func fnvMix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime
	h ^= h >> 32
	return h
}

// hashInts fingerprints an int slice (layouts). Collisions between
// distinct layouts are possible in principle but need ~2^32 candidates to
// become likely; pools top out around enumLimit.
func hashInts(xs []int) uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(len(xs)))
	for _, x := range xs {
		h = fnvMix(h, uint64(int64(x)))
	}
	return h
}

// maskHash fingerprints a qubit set with the same word mixing as the
// mapper's other integer keys.
func maskHash(m qmask) uint64 {
	h := uint64(fnvOffset)
	for _, w := range m {
		h = fnvMix(h, w)
	}
	return h
}

// ---------------------------------------------------------------------------
// Incremental ESP scoring.

const (
	opSQ = iota
	opMeas
	opCX
	opSWAP
)

// espOp is one ESP-relevant gate of the base executable with its qubits
// compacted to used-qubit indices, so a candidate's ESP is a function of
// the VF2 mapping alone.
type espOp struct {
	kind int8
	a, b int32
}

// atomicFloat is a monotone non-negative maximum shared by the pruned
// search workers.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

// raise lifts the value to at least v. Non-negative float64s compare like
// their bit patterns, so a plain integer CAS-max suffices.
func (a *atomicFloat) raise(v float64) {
	nb := math.Float64bits(v)
	for {
		ob := a.bits.Load()
		if math.Float64frombits(ob) >= v {
			return
		}
		if a.bits.CompareAndSwap(ob, nb) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// The pool's value slab.

// A pool holds every isomorphic placement of the compiled program — tens
// of thousands for an 11-qubit circuit — and edmd keeps pools across
// jobs, so the per-placement record is a plain value with no pointers:
// the qubit lists live one byte per entry in a shared arena and the
// sorted pool, its groups and the materialized-executable memo are int32
// indices into the slab. A physical qubit p is stored as p in a mono
// list and as p+1 in a layout, so a layout's unused slot (-1) is 0 and
// still sorts first under byte comparison.
const _ uint = 254 - bitset.Cap // the encoding needs bitset.Cap <= 254

// candidate is one placement in a pool's slab, before materialization.
type candidate struct {
	esp  float64
	lkey uint64 // hashInts of the decoded initial layout
	skey uint64 // maskHash(set)
	set  qmask
	// off locates the placement's qubit lists: mono ++ layout in
	// slab.arena for a mono placement, the layout in slab.altArena for an
	// alternative one.
	off int32
	alt int32 // index into slab.alts; -1 for a mono placement
}

// slab stores a pool's placements by value: the mono placements of the
// VF2 enumeration in enumeration order, then the dry-routed alternative
// placements. arena is immutable once enumerated, so the generations of
// a Tracking lineage share it and copy only the candidate values they
// rescore; alternatives are re-swept per generation and carry their own
// small arena.
type slab struct {
	cands    []candidate
	nMono    int     // cands[:nMono] are the mono placements
	nUsed    int     // mono length: the base executable's used qubits
	nLay     int     // layout length: the program's logical qubits
	arena    []uint8 // per mono placement: mono ++ layout
	alts     []*altPlacement
	altArena []uint8 // per alternative placement: its layout
}

func (s *slab) mono(i int32) []uint8 {
	o := int(s.cands[i].off)
	return s.arena[o : o+s.nUsed]
}

func (s *slab) layout(i int32) []uint8 {
	cd := &s.cands[i]
	if cd.alt >= 0 {
		o := int(cd.off)
		return s.altArena[o : o+s.nLay]
	}
	o := int(cd.off) + s.nUsed
	return s.arena[o : o+s.nLay]
}

// monoOrder returns the mono placements' indices in enumeration order.
func (s *slab) monoOrder() []int32 {
	idx := make([]int32, s.nMono)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// layoutInts decodes placement i's initial layout.
func (s *slab) layoutInts(i int32) []int {
	enc := s.layout(i)
	out := make([]int, len(enc))
	for j, b := range enc {
		out[j] = int(b) - 1
	}
	return out
}

// compare is the pool order: ESP descending, then initial layout
// ascending. Byte order on the p+1 encoding is lexicographic order on
// the decoded layouts.
func (s *slab) compare(i, j int32) int {
	a, b := s.cands[i].esp, s.cands[j].esp
	if a != b {
		if a > b {
			return -1
		}
		return 1
	}
	return bytes.Compare(s.layout(i), s.layout(j))
}

// addAlts appends the candidates of the dry-routed alternative
// placements after the mono placements.
func (s *slab) addAlts(alts []*altPlacement, devN int) {
	s.alts = alts
	s.altArena = make([]uint8, 0, len(alts)*s.nLay)
	for i, a := range alts {
		off := len(s.altArena)
		for _, p := range a.layout {
			s.altArena = append(s.altArena, uint8(p+1))
		}
		set := a.usedMask(devN)
		s.cands = append(s.cands, candidate{
			esp:  a.res.esp,
			lkey: hashInts(a.layout),
			skey: maskHash(set),
			set:  set,
			off:  int32(off),
			alt:  int32(i),
		})
	}
}

// hashLayout is hashInts of the decoded layout, read from its encoding.
func hashLayout(enc []uint8) uint64 {
	h := uint64(fnvOffset)
	h = fnvMix(h, uint64(len(enc)))
	for _, b := range enc {
		h = fnvMix(h, uint64(int64(b)-1))
	}
	return h
}

// replacer drives isomorphic re-placements of one base executable: the
// VF2 search over its usage graph plus everything needed to score and
// label a mapping without touching the circuit.
type replacer struct {
	c    *Compiler
	base *Executable
	used []int
	ops  []espOp

	search *graph.MonoSearch
	// Branch-and-bound tables over the match order: opsAt[d] lists the
	// gates whose qubits are all assigned once depth d is, espSuffix[d] is
	// the best-case success factor of everything at depths >= d.
	opsAt     [][]espOp
	espSuffix []float64

	// layoutIdx[i] is the used-index of base.InitialLayout[i]; allUsed
	// says every layout qubit is a used qubit, enabling the alloc-light
	// layout construction (the identityExtend fallback covers programs
	// whose initial layout includes never-touched qubits).
	layoutIdx []int
	allUsed   bool
}

func (c *Compiler) newReplacer(base *Executable) *replacer {
	ug, used := usageGraph(base)
	rp := &replacer{c: c, base: base, used: used}
	idx := make(map[int]int, len(used))
	for i, q := range used {
		idx[q] = i
	}
	for _, op := range base.Circuit.Ops {
		switch {
		case op.Kind == circuit.Barrier || op.Kind == circuit.I:
		case op.Kind == circuit.Measure:
			rp.ops = append(rp.ops, espOp{opMeas, int32(idx[op.Qubits[0]]), 0})
		case op.Kind.IsTwoQubit():
			kind := int8(opCX)
			if op.Kind == circuit.SWAP {
				kind = opSWAP
			}
			rp.ops = append(rp.ops, espOp{kind, int32(idx[op.Qubits[0]]), int32(idx[op.Qubits[1]])})
		default:
			rp.ops = append(rp.ops, espOp{opSQ, int32(idx[op.Qubits[0]]), 0})
		}
	}
	rp.search = graph.NewMonoSearch(ug, c.g)
	order := rp.search.Order()
	pos := make([]int, len(order))
	for d, v := range order {
		pos[v] = d
	}
	rp.opsAt = make([][]espOp, len(order))
	for _, op := range rp.ops {
		d := pos[op.a]
		if op.kind == opCX || op.kind == opSWAP {
			if pb := pos[op.b]; pb > d {
				d = pb
			}
		}
		rp.opsAt[d] = append(rp.opsAt[d], op)
	}
	rp.espSuffix = make([]float64, len(order)+1)
	rp.espSuffix[len(order)] = 1
	for d := len(order) - 1; d >= 0; d-- {
		f := 1.0
		for _, op := range rp.opsAt[d] {
			switch op.kind {
			case opSQ:
				f *= c.maxSQSucc
			case opMeas:
				f *= c.maxMeasSucc
			case opCX:
				f *= c.maxCXSucc
			default:
				f *= c.maxCXSucc * c.maxCXSucc * c.maxCXSucc
			}
		}
		rp.espSuffix[d] = rp.espSuffix[d+1] * f
	}

	rp.layoutIdx = make([]int, len(base.InitialLayout))
	rp.allUsed = true
	for i, p := range base.InitialLayout {
		if j, ok := idx[p]; ok {
			rp.layoutIdx[i] = j
		} else {
			rp.layoutIdx[i] = -1
			rp.allUsed = false
		}
	}
	return rp
}

// score computes the ESP of the base executable relabeled by mono. The
// per-op factors and their multiplication order replicate device.ESP on
// the remapped circuit exactly, so the result is bit-identical to
// materializing the circuit and rescoring it.
func (rp *replacer) score(mono []uint8) float64 {
	c := rp.c
	esp := 1.0
	for _, op := range rp.ops {
		switch op.kind {
		case opSQ:
			esp *= c.sqSucc[mono[op.a]]
		case opMeas:
			esp *= c.measSucc[mono[op.a]]
		case opCX:
			esp *= c.cxSucc[mono[op.a]][mono[op.b]]
		default:
			s := c.cxSucc[mono[op.a]][mono[op.b]]
			esp *= s * s * s
		}
	}
	return esp
}

// shard is one first-level VF2 subtree's placements, appended to the
// same layout as a slab's mono part.
type shard struct {
	cands []candidate
	arena []uint8
	// Scratch for the identityExtend fallback of programs whose initial
	// layout holds never-touched qubits.
	vm    []int
	taken []bool
}

// appendCandidate records the placement mono (used[i] -> physical) in
// sh: its mono list and initial layout (logical -> physical) go to the
// arena, its ESP, qubit set and keys to the candidate value. The shard's
// slices double when full, so a shard allocates O(log n) times for n
// placements; enumerate copies them into the exact-size slab.
func (rp *replacer) appendCandidate(sh *shard, mono []int) {
	if len(sh.cands) == cap(sh.cands) {
		n := max(len(sh.cands), 64)
		sh.cands = slices.Grow(sh.cands, n)
		sh.arena = slices.Grow(sh.arena, n*(len(mono)+len(rp.base.InitialLayout)))
	}
	off := len(sh.arena)
	var set qmask
	for _, q := range mono {
		sh.arena = append(sh.arena, uint8(q))
		set.Add(q)
	}
	if rp.allUsed {
		for _, j := range rp.layoutIdx {
			sh.arena = append(sh.arena, uint8(mono[j]+1))
		}
	} else {
		if sh.vm == nil {
			sh.vm, sh.taken = make([]int, rp.c.devN), make([]bool, rp.c.devN)
		}
		vm := identityExtendInto(sh.vm, sh.taken, rp.used, mono)
		for _, p := range rp.base.InitialLayout {
			if p >= 0 {
				p = vm[p]
			}
			sh.arena = append(sh.arena, uint8(p+1))
		}
	}
	enc := sh.arena[off:]
	sh.cands = append(sh.cands, candidate{
		esp:  rp.score(enc[:len(mono)]),
		lkey: hashLayout(enc[len(mono):]),
		skey: maskHash(set),
		set:  set,
		off:  int32(off),
		alt:  -1,
	})
}

// runShard enumerates the subtree rooted at the given first-level VF2
// candidate. A non-nil thr enables ESP branch-and-bound: subtrees whose
// best-case completion falls below the shared threshold (minus the bbEps
// rounding margin) are discarded. The threshold only ever rises and
// pruning is strict, so every candidate that could win the deterministic
// (ESP desc, layout asc, emission order) ranking survives in every run,
// even though the exact survivor set depends on worker timing.
func (rp *replacer) runShard(first int, thr *atomicFloat) *shard {
	sh := &shard{}
	h := graph.Hooks{Emit: func(m []int) bool {
		rp.appendCandidate(sh, m)
		if thr != nil {
			thr.raise(sh.cands[len(sh.cands)-1].esp)
		}
		return len(sh.cands) >= enumLimit
	}}
	if thr != nil {
		stack := make([]float64, len(rp.search.Order())+1)
		stack[0] = 1
		mono := make([]int, len(rp.used))
		for i := range mono {
			mono[i] = -1
		}
		h.Assign = func(d, pv, tv int) bool {
			mono[pv] = tv
			p := stack[d]
			for _, op := range rp.opsAt[d] {
				switch op.kind {
				case opSQ:
					p *= rp.c.sqSucc[mono[op.a]]
				case opMeas:
					p *= rp.c.measSucc[mono[op.a]]
				case opCX:
					p *= rp.c.cxSucc[mono[op.a]][mono[op.b]]
				default:
					s := rp.c.cxSucc[mono[op.a]][mono[op.b]]
					p *= s * s * s
				}
			}
			stack[d+1] = p
			if p*rp.espSuffix[d+1] < thr.load()*(1-bbEps) {
				mono[pv] = -1
				return false
			}
			return true
		}
		h.Unassign = func(d, pv, tv int) { mono[pv] = -1 }
	}
	r := rp.search.NewRunner(h)
	r.RunFrom(first)
	return sh
}

// enumerate runs the sharded search across the compute pool and merges
// shard outputs in ascending first-candidate order — the serial
// enumeration order — truncated to enumLimit, into one exact-size slab
// that ends with the given alternative placements.
func (rp *replacer) enumerate(thr *atomicFloat, alts []*altPlacement) *slab {
	n := rp.c.devN
	shards := make([]*shard, n)
	pool.Each(n, func(first int) {
		shards[first] = rp.runShard(first, thr)
	})
	total := 0
	for _, sh := range shards {
		total += len(sh.cands)
	}
	total = min(total, enumLimit)
	s := &slab{nUsed: len(rp.used), nLay: len(rp.base.InitialLayout)}
	stride := s.nUsed + s.nLay
	s.cands = make([]candidate, 0, total+len(alts))
	s.arena = make([]uint8, 0, total*stride)
	for _, sh := range shards {
		m := min(len(sh.cands), total-len(s.cands))
		base := int32(len(s.arena))
		for _, cd := range sh.cands[:m] {
			cd.off += base
			s.cands = append(s.cands, cd)
		}
		s.arena = append(s.arena, sh.arena[:m*stride]...)
	}
	s.nMono = len(s.cands)
	s.addAlts(alts, rp.c.devN)
	return s
}

// materialize clones the base circuit under placement i's relabeling
// (or replays the dry routing pass for alternative placements).
func (rp *replacer) materialize(s *slab, i int32) *Executable {
	cd := &s.cands[i]
	if cd.alt >= 0 {
		return s.alts[cd.alt].exe()
	}
	enc := s.mono(i)
	mono := make([]int, len(enc))
	for j, q := range enc {
		mono[j] = int(q)
	}
	vm := identityExtend(rp.used, mono, rp.c.devN)
	return &Executable{
		Circuit:       rp.base.Circuit.Remap(vm, rp.c.devN),
		InitialLayout: s.layoutInts(i),
		FinalLayout:   applyMap(rp.base.FinalLayout, vm),
		ESP:           cd.esp,
		Swaps:         rp.base.Swaps,
	}
}

// sortCandidates stably orders slab indices by ESP descending, then
// initial layout ascending.
func sortCandidates(s *slab, idx []int32) {
	slices.SortStableFunc(idx, s.compare)
}

// splitBySet partitions a sorted candidate list into the best placement
// per physical qubit set (distinct) and the remaining same-set variants
// (dupes). Placements on *distinct physical qubit sets* come first in the
// pool: permutations of one qubit subset have identical ESP but make
// near-identical mistakes, which is exactly the correlation EDM exists to
// avoid. distinct reuses idx's storage.
func splitBySet(s *slab, idx []int32) (distinct, dupes []int32) {
	seen := newKeyIndex(len(idx))
	distinct = idx[:0]
	for _, i := range idx {
		if _, dup := seen.id(s.cands[i].skey); dup {
			dupes = append(dupes, i)
			continue
		}
		distinct = append(distinct, i)
	}
	return distinct, dupes
}

// dedupeByLayout removes candidates whose initial layouts coincide,
// keeping the first (pool order is significance order). It filters idx
// in place.
func dedupeByLayout(s *slab, idx []int32) []int32 {
	seen := newKeyIndex(len(idx))
	out := idx[:0]
	for _, i := range idx {
		if _, dup := seen.id(s.cands[i].lkey); !dup {
			out = append(out, i)
		}
	}
	return out
}

// keyIndex numbers 64-bit keys densely (0, 1, 2, ... in first-insertion
// order) in one open-addressed table with linear probing. Pool assembly
// runs it over every placement's key; unlike a map, a pool-sized index is
// one pair of allocations rather than one per internal table.
type keyIndex struct {
	keys  []uint64
	ids   []int32 // id+1 per slot; 0 marks an empty slot
	shift uint
	n     int
}

// newKeyIndex sizes the table for n keys at a load factor of at most 1/2.
func newKeyIndex(n int) *keyIndex {
	size, shift := 16, uint(60)
	for size < 2*n {
		size, shift = size<<1, shift-1
	}
	return &keyIndex{keys: make([]uint64, size), ids: make([]int32, size), shift: shift}
}

// slot returns k's slot, or the empty slot where it would go.
func (x *keyIndex) slot(k uint64) int {
	mask := len(x.keys) - 1
	i := int((k * 0x9e3779b97f4a7c15) >> x.shift)
	for x.ids[i] != 0 && x.keys[i] != k {
		i = (i + 1) & mask
	}
	return i
}

// id returns k's dense id, assigning the next one if k is new, and
// whether k was already present. At most the n keys the index was sized
// for may be added.
func (x *keyIndex) id(k uint64) (int32, bool) {
	i := x.slot(k)
	if x.ids[i] != 0 {
		return x.ids[i] - 1, true
	}
	x.keys[i], x.ids[i] = k, int32(x.n)+1
	x.n++
	return int32(x.n - 1), false
}

// has reports whether k was added.
func (x *keyIndex) has(k uint64) bool { return x.ids[x.slot(k)] != 0 }

func (x *keyIndex) bytes() int64 { return 12 * int64(len(x.keys)) }

// rankPool turns an enumerated slab into the ranked pool: sort the mono
// placements, put the best placement per qubit set first, append the
// alternative placements, drop repeated layouts and sort again.
func rankPool(s *slab) []int32 {
	idx := s.monoOrder()
	sortCandidates(s, idx)
	distinct, dupes := splitBySet(s, idx)
	cpool := make([]int32, 0, len(s.cands))
	cpool = append(append(cpool, distinct...), dupes...)
	for i := s.nMono; i < len(s.cands); i++ {
		cpool = append(cpool, int32(i))
	}
	cpool = dedupeByLayout(s, cpool)
	sortCandidates(s, cpool)
	return cpool
}

// TopK builds the ensemble of diverse mappings (paper Section 5.2).
//
// The candidate pool contains (a) every isomorphic transfer of the
// compiled baseline onto the coupling graph (VF2) and (b) independently
// re-compiled placements from every greedy seed — the paper's step 3
// re-compiles the program per initial mapping, which lets members differ
// not just in which physical qubits they use but in their routing
// geometry (and therefore in *which* systematic mistakes they make).
//
// Candidates are ranked by ESP and selected greedily under a diversity
// constraint: a candidate may share at most half of its qubits with every
// already-selected member (the paper reports its ensemble members shared
// only two or three qubits out of seven). The cap is relaxed one qubit at
// a time if the device cannot supply k members under it. Element 0 is
// always the single best mapping — the paper's baseline.
//
// The pipeline is deterministic: results are bit-identical across runs
// and worker counts. On a CachedCompiler the ranked candidate pool is
// built once per circuit fingerprint and shared across every k
// (selection re-runs per k, so each k's members match an uncached call
// exactly), and the returned executables are shared immutable values —
// callers must not mutate them.
func (c *Compiler) TopK(logical *circuit.Circuit, k int) ([]*Executable, error) {
	if err := c.widthErr(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("mapper: k must be positive")
	}
	if k == 1 {
		if c.ens != nil {
			be := c.ens.best.Get(circuitKey(logical), func() *bestEntry {
				exes, err := c.buildSingleBest(logical)
				return &bestEntry{exes: exes, err: err}
			})
			return be.exes, be.err
		}
		return c.buildSingleBest(logical)
	}
	if c.ens != nil {
		pe := c.ens.pools.Get(circuitKey(logical), func() *poolEntry {
			return c.buildPool(logical)
		})
		return pe.topK(k)
	}
	return c.buildPool(logical).topK(k)
}

// buildPool runs the full candidate pipeline for one circuit: compile,
// VF2 enumeration, greedy alternative placements, dedupe and ranking.
// The result is everything TopK needs for any k >= 2. Errors are carried
// in the entry so a cached failure replays deterministically. The
// compile stage is inlined (validate, place, dry-route, replay) so the
// entry can retain the intermediates incremental recompilation needs.
func (c *Compiler) buildPool(logical *circuit.Circuit) *poolEntry {
	if err := c.widthErr(); err != nil {
		return &poolEntry{err: err}
	}
	if err := logical.Validate(); err != nil {
		return &poolEntry{err: err}
	}
	if logical.NumQubits > c.devN {
		return &poolEntry{err: fmt.Errorf("mapper: program needs %d qubits, device has %d", logical.NumQubits, c.devN)}
	}
	seed, err := c.place(logical)
	if err != nil {
		return &poolEntry{err: err}
	}
	prog := progOf(logical)
	baseLayout, baseRes, err := c.routeDry(prog, seed)
	if err != nil {
		return &poolEntry{err: err}
	}
	base := c.replay(prog, baseLayout, baseRes)
	rp := c.newReplacer(base)
	// The alternative sweep runs first so the slab is allocated once at
	// its final size; an empty enumeration still takes precedence over a
	// failed sweep, as when the sweep ran second.
	alts, _, altErr := c.alternativePlacements(prog)
	s := rp.enumerate(nil, alts)
	if s.nMono == 0 {
		return &poolEntry{err: errNoPlacement}
	}
	if altErr != nil {
		return &poolEntry{err: altErr}
	}
	return &poolEntry{
		rp: rp, slab: s, cpool: rankPool(s), prog: prog,
		seed: seed, baseLayout: baseLayout, baseRes: baseRes,
		exes: make(map[int32]*Executable),
	}
}

// errNoPlacement reports an empty isomorphic enumeration, which the base
// placement itself should always prevent.
var errNoPlacement = errors.New("mapper: no isomorphic placement found (internal error: the base placement itself should match)")

// buildSingleBest is TopK for k = 1, the per-round baseline policy and
// the hottest compile path in the experiment campaign. Selecting one
// member is a pure argmax, so the isomorphic enumeration runs under ESP
// branch-and-bound: the threshold is seeded with the best re-compiled
// placement and rises as better transfers are found, discarding most of
// the search tree. Pruning is strict (ties survive), so the winner —
// including its deterministic tie-breaks — matches what the full pool
// would have produced. It stays a separate cache entry from the k >= 2
// pool: the pruned enumeration yields a different (smaller) candidate
// set, and serving k = 1 from the pool's head would couple the baseline
// result to whether an EDM policy ran first.
func (c *Compiler) buildSingleBest(logical *circuit.Circuit) ([]*Executable, error) {
	base, err := c.Compile(logical)
	if err != nil {
		return nil, err
	}
	alts, _, err := c.alternativePlacements(progOf(logical))
	if err != nil {
		return nil, err
	}
	var thr atomicFloat
	for _, a := range alts {
		thr.raise(a.res.esp)
	}
	rp := c.newReplacer(base)
	s := rp.enumerate(&thr, alts)
	cpool := rankPool(s)
	if len(cpool) == 0 {
		return nil, errNoPlacement
	}
	sel := selectDiverse(s, cpool, 1)
	out := make([]*Executable, len(sel))
	for i, ci := range sel {
		out[i] = rp.materialize(s, ci)
	}
	return out, nil
}

// Placements compiles the program and returns every distinct-subset
// placement (one executable per physical qubit set, the best of its set)
// in descending ESP order. max > 0 truncates the list. Fig8-style
// analyses use this to sample mappings across the full reliability range.
func (c *Compiler) Placements(logical *circuit.Circuit, max int) ([]*Executable, error) {
	base, err := c.Compile(logical)
	if err != nil {
		return nil, err
	}
	rp := c.newReplacer(base)
	s := rp.enumerate(nil, nil)
	if s.nMono == 0 {
		return nil, errNoPlacement
	}
	idx := s.monoOrder()
	sortCandidates(s, idx)
	distinct, _ := splitBySet(s, idx)
	if max > 0 && max < len(distinct) {
		distinct = distinct[:max]
	}
	out := make([]*Executable, len(distinct))
	for i, ci := range distinct {
		out[i] = rp.materialize(s, ci)
	}
	return out, nil
}

// alternativePlacements re-compiles the program from every greedy seed,
// yielding placements with genuinely different routing geometry. Distinct
// seeds frequently settle on the same greedy layout, so layouts are
// deduplicated before routing and each unique layout is routed once,
// concurrently across the compute pool; the output lists unique layouts in
// first-seed order — exactly what survived the downstream layout dedupe
// when every seed was routed independently.
//
// Impossible seeds (a seed qubit whose component cannot host the
// interacting core) are skipped, and the skip count is returned so
// callers can see how much of the device contributed nothing. When every
// seed fails — a disconnected coupling graph none of whose components fit
// the program — an error is returned instead of quietly degrading the
// TopK pool to embedding-only candidates.
func (c *Compiler) alternativePlacements(prog *routeProg) ([]*altPlacement, int, error) {
	logical := prog.src
	edges := logical.InteractionGraph()
	iw := interactionWeights(logical.NumQubits, edges)
	deg := make([]int, logical.NumQubits)
	for _, e := range edges {
		deg[e.A] += e.Count
		deg[e.B] += e.Count
	}
	measures := make([]int, logical.NumQubits)
	for _, op := range logical.Ops {
		if op.Kind == circuit.Measure {
			measures[op.Qubits[0]]++
		}
	}
	order := placeOrder(logical.NumQubits, edges, deg)

	layouts := make([][]int, c.devN)
	pool.Each(c.devN, func(seed int) {
		if layout, cost := c.placeFrom(order, iw, measures, seed, logical.NumQubits); layout != nil && !math.IsInf(cost, 1) {
			layouts[seed] = layout
		}
	})
	uniqIdx := make([]int, c.devN) // seed -> index into uniq, -1 if unplaceable
	idxOf := make(map[uint64]int)
	var uniq [][]int
	for seed, layout := range layouts {
		uniqIdx[seed] = -1
		if layout == nil {
			continue
		}
		k := hashInts(layout)
		j, ok := idxOf[k]
		if !ok {
			j = len(uniq)
			idxOf[k] = j
			uniq = append(uniq, layout)
		}
		uniqIdx[seed] = j
	}
	routed := make([]*altPlacement, len(uniq))
	pool.Each(len(uniq), func(i int) {
		if bl, res, err := c.routeDry(prog, uniq[i]); err == nil {
			routed[i] = &altPlacement{c: c, prog: prog, layout: bl, res: res}
		}
	})
	var out []*altPlacement
	routedSeeds := 0
	emitted := make([]bool, len(uniq))
	for seed := 0; seed < c.devN; seed++ {
		j := uniqIdx[seed]
		if j < 0 || routed[j] == nil {
			continue
		}
		routedSeeds++
		if !emitted[j] {
			emitted[j] = true
			out = append(out, routed[j])
		}
	}
	skipped := c.devN - routedSeeds
	if len(out) == 0 {
		return nil, skipped, fmt.Errorf(
			"mapper: alternative placements: all %d greedy seeds failed to place the %d-qubit program (coupling graph has %d connected components)",
			c.devN, logical.NumQubits, len(c.g.Components()))
	}
	return out, skipped, nil
}

// selectDiverse picks k members from the ESP-sorted pool under two
// constraints drawn from the paper: every member must stay within an ESP
// slack of the best mapping ("all the mappings used were within 10% of
// the ESP of best mapping", Section 3.2), and a new member may share at
// most maxShared qubits with every already-picked member (the paper's
// members shared only two or three qubits). The overlap cap starts at
// half the footprint and relaxes first; if still short, the ESP slack
// widens — mirroring Section 5.5's observation that the number of strong
// diverse placements on a small machine is inherently limited. The
// pool's best candidate is always member 0.
func selectDiverse(s *slab, cpool []int32, k int) []int32 {
	if len(cpool) == 0 {
		return nil
	}
	best := &s.cands[cpool[0]]
	footprint := best.set.Count()
	for _, slack := range []float64{0.15, 0.3, 0.5, 1.0} {
		minESP := best.esp * (1 - slack)
		for maxShared := footprint / 2; maxShared <= footprint; maxShared++ {
			picked := []int32{cpool[0]}
			for _, ci := range cpool[1:] {
				if len(picked) == k {
					break
				}
				cand := &s.cands[ci]
				if cand.esp < minESP {
					continue
				}
				ok := true
				for _, p := range picked {
					if cand.set.Overlap(s.cands[p].set) > maxShared {
						ok = false
						break
					}
				}
				if ok {
					picked = append(picked, ci)
				}
			}
			if len(picked) == k {
				return picked
			}
			if slack == 1.0 && maxShared == footprint {
				return picked // entire pool exhausted
			}
		}
	}
	return []int32{cpool[0]}
}

// usageGraph returns the compacted graph of couplings the executable's
// two-qubit gates actually use, plus the compact-index -> physical-qubit
// slice.
func usageGraph(exe *Executable) (*graph.Graph, []int) {
	used := exe.UsedQubits()
	idx := make(map[int]int, len(used))
	for i, q := range used {
		idx[q] = i
	}
	g := graph.New(len(used))
	for _, op := range exe.Circuit.Ops {
		if op.Kind.IsTwoQubit() {
			g.AddEdge(idx[op.Qubits[0]], idx[op.Qubits[1]])
		}
	}
	return g, used
}

// identityExtend builds a full device-sized vertex map sending used[i] to
// mono[i] and filling the remaining physical qubits injectively.
func identityExtend(used []int, mono []int, devN int) []int {
	return identityExtendInto(make([]int, devN), make([]bool, devN), used, mono)
}

// identityExtendInto is identityExtend into caller-owned device-sized
// buffers; it returns out.
func identityExtendInto(out []int, taken []bool, used, mono []int) []int {
	for i := range out {
		out[i] = -1
		taken[i] = false
	}
	for i, q := range used {
		out[q] = mono[i]
		taken[mono[i]] = true
	}
	free := 0
	for q := range out {
		if out[q] != -1 {
			continue
		}
		for taken[free] {
			free++
		}
		out[q] = free
		taken[free] = true
	}
	return out
}

func applyMap(layout, vertexMap []int) []int {
	out := make([]int, len(layout))
	for i, p := range layout {
		if p >= 0 {
			out[i] = vertexMap[p]
		} else {
			out[i] = -1
		}
	}
	return out
}
