package graph

import (
	"sort"

	"edm/internal/pool"
)

// This file implements subgraph-monomorphism enumeration in the style of
// VF2 (Cordella, Foggia, Sansone, Vento, 2004): a depth-first state-space
// search that extends a partial vertex mapping one pair at a time, pruned
// by local feasibility rules. EDM uses it to transfer the compiler's
// initial mapping onto every structurally equivalent set of physical
// qubits (paper Section 5.2).
//
// A monomorphism maps every pattern edge onto a target edge but allows the
// image to contain extra edges; that is the right notion for qubit
// mapping, where unused couplings on the device are harmless.
//
// The enumerator is streaming: results are delivered through an Emit
// callback as the search finds them, and optional Assign/Unassign hooks
// expose every tentative extension of the partial mapping, which lets
// callers maintain incremental cost state and prune whole subtrees
// (branch-and-bound) without the enumerator knowing anything about their
// scoring function. A work-splitting parallel driver shards the search on
// the first match level and merges shard outputs in first-candidate
// order, so the emitted sequence is identical to the serial search.

// EmitFunc receives each complete mapping (pattern vertex -> target
// vertex). The slice is reused by the search; callers that retain a
// mapping must copy it. Returning true stops the enumeration.
type EmitFunc func(m []int) (stop bool)

// Hooks customizes a monomorphism search. All fields are optional except
// Emit (a search without Emit is only useful for its Assign side effects,
// which is allowed but unusual).
type Hooks struct {
	// Emit is called for every complete monomorphism.
	Emit EmitFunc
	// Assign is called after pattern vertex pv passes the feasibility
	// rules for target vertex tv at the given depth (the position of pv in
	// Order). Returning false prunes the subtree rooted at this
	// assignment; Unassign is NOT called for a pruned assignment.
	Assign func(depth, pv, tv int) bool
	// Unassign is called when the assignment made at depth is undone on
	// backtrack (only for assignments Assign accepted, or every
	// assignment if Assign is nil).
	Unassign func(depth, pv, tv int)
}

// MonoSearch holds the immutable, shareable part of a monomorphism
// search: the two graphs, flattened adjacency, and the connectivity-aware
// match order. One MonoSearch may drive many concurrent runners.
type MonoSearch struct {
	p, g  *Graph
	order []int   // pattern vertices in matching order
	pAdj  [][]int // pattern adjacency, sorted
	gAdj  [][]int // target adjacency, sorted
}

// NewMonoSearch prepares a search for monomorphisms of pattern into
// target.
func NewMonoSearch(pattern, target *Graph) *MonoSearch {
	s := &MonoSearch{
		p:     pattern,
		g:     target,
		order: matchOrder(pattern),
		pAdj:  make([][]int, pattern.N()),
		gAdj:  make([][]int, target.N()),
	}
	for v := 0; v < pattern.N(); v++ {
		s.pAdj[v] = pattern.Neighbors(v)
	}
	for v := 0; v < target.N(); v++ {
		s.gAdj[v] = target.Neighbors(v)
	}
	return s
}

// Order returns the pattern vertices in matching order. The depth passed
// to Assign/Unassign indexes this slice.
func (s *MonoSearch) Order() []int { return s.order }

// NewRunner creates a mutable search state for this pattern/target pair.
// Runners are cheap; create one per goroutine — a runner must not be
// shared concurrently.
func (s *MonoSearch) NewRunner(h Hooks) *MonoRunner {
	r := &MonoRunner{s: s, h: h, pMap: make([]int, s.p.N()), gUsed: make([]bool, s.g.N())}
	for i := range r.pMap {
		r.pMap[i] = -1
	}
	return r
}

// MonoRunner is the mutable state of one depth-first enumeration.
type MonoRunner struct {
	s     *MonoSearch
	h     Hooks
	pMap  []int
	gUsed []bool
}

// Run enumerates every monomorphism in deterministic order (first-level
// candidates ascending, then depth-first). It returns true if Emit
// stopped the search. An empty pattern emits one empty mapping.
func (r *MonoRunner) Run() bool {
	if r.s.p.N() == 0 {
		return r.h.Emit != nil && r.h.Emit(nil)
	}
	if r.s.p.N() > r.s.g.N() {
		return false
	}
	for c := 0; c < r.s.g.N(); c++ {
		if r.try(0, r.s.order[0], c) {
			return true
		}
	}
	return false
}

// RunFrom enumerates the subtree in which the first match-order vertex is
// mapped to first. Sweeping first over 0..target.N()-1 and concatenating
// the outputs reproduces Run's sequence exactly — this is the unit of
// work the parallel driver shards.
func (r *MonoRunner) RunFrom(first int) bool {
	if r.s.p.N() == 0 || r.s.p.N() > r.s.g.N() {
		return false
	}
	return r.try(0, r.s.order[0], first)
}

func (r *MonoRunner) search(depth int) bool {
	if depth == len(r.s.order) {
		return r.h.Emit != nil && r.h.Emit(r.pMap)
	}
	v := r.s.order[depth]
	// VF2 frontier rule: if v has an already-mapped neighbour, only the
	// unused neighbours of that neighbour's image are candidates;
	// otherwise every unused target vertex is.
	anchor := -1
	for _, u := range r.s.pAdj[v] {
		if t := r.pMap[u]; t >= 0 {
			anchor = t
			break
		}
	}
	if anchor >= 0 {
		for _, c := range r.s.gAdj[anchor] {
			if !r.gUsed[c] && r.try(depth, v, c) {
				return true
			}
		}
		return false
	}
	for c := 0; c < r.s.g.N(); c++ {
		if !r.gUsed[c] && r.try(depth, v, c) {
			return true
		}
	}
	return false
}

// try extends the mapping with v -> c if feasible and recurses. It
// returns true only when Emit stopped the search.
func (r *MonoRunner) try(depth, v, c int) bool {
	if r.gUsed[c] || !r.feasible(v, c) {
		return false
	}
	r.pMap[v] = c
	r.gUsed[c] = true
	if r.h.Assign != nil && !r.h.Assign(depth, v, c) {
		r.pMap[v] = -1
		r.gUsed[c] = false
		return false
	}
	stop := r.search(depth + 1)
	if r.h.Unassign != nil {
		r.h.Unassign(depth, v, c)
	}
	r.pMap[v] = -1
	r.gUsed[c] = false
	return stop
}

// feasible checks the monomorphism consistency rules for mapping pattern
// vertex v onto target vertex c: every mapped pattern neighbour of v must
// be a target neighbour of c, and c must have enough spare degree for the
// unmapped pattern neighbours (a look-ahead prune).
func (r *MonoRunner) feasible(v, c int) bool {
	if r.s.g.Degree(c) < r.s.p.Degree(v) {
		return false
	}
	unmapped := 0
	for _, u := range r.s.pAdj[v] {
		if t := r.pMap[u]; t >= 0 {
			if !r.s.g.HasEdge(t, c) {
				return false
			}
		} else {
			unmapped++
		}
	}
	free := 0
	for _, w := range r.s.gAdj[c] {
		if !r.gUsed[w] {
			free++
		}
	}
	return free >= unmapped
}

// Monomorphisms enumerates injective maps m (len = pattern.N()) such that
// every edge (u, v) of pattern has (m[u], m[v]) as an edge of target. The
// enumeration stops after limit results (limit <= 0 means unlimited).
// Results are returned in a deterministic order.
func Monomorphisms(pattern, target *Graph, limit int) [][]int {
	if pattern.N() == 0 {
		return [][]int{{}}
	}
	if pattern.N() > target.N() {
		return nil
	}
	var out [][]int
	r := NewMonoSearch(pattern, target).NewRunner(Hooks{Emit: func(m []int) bool {
		out = append(out, append([]int(nil), m...))
		return limit > 0 && len(out) >= limit
	}})
	r.Run()
	return out
}

// MonomorphismsParallel is Monomorphisms with the search sharded on the
// first match level across compute-pool workers. The output — order
// included — is bit-identical to Monomorphisms for any worker count: each
// first-level candidate's subtree is enumerated depth-first as in the
// serial search, every shard honours the limit independently, and shards
// are concatenated in ascending first-candidate order before the limit is
// applied to the merged sequence.
func MonomorphismsParallel(pattern, target *Graph, limit int) [][]int {
	if pattern.N() == 0 {
		return [][]int{{}}
	}
	if pattern.N() > target.N() {
		return nil
	}
	n := target.N()
	if pool.Workers(n) < 2 {
		return Monomorphisms(pattern, target, limit)
	}
	s := NewMonoSearch(pattern, target)
	shards := make([][][]int, n)
	pool.Each(n, func(first int) {
		var res [][]int
		r := s.NewRunner(Hooks{Emit: func(m []int) bool {
			res = append(res, append([]int(nil), m...))
			return limit > 0 && len(res) >= limit
		}})
		r.RunFrom(first)
		shards[first] = res
	})
	var out [][]int
	for _, res := range shards {
		out = append(out, res...)
		if limit > 0 && len(out) >= limit {
			out = out[:limit]
			break
		}
	}
	return out
}

// CountMonomorphisms returns the number of monomorphisms, up to limit.
func CountMonomorphisms(pattern, target *Graph, limit int) int {
	return len(Monomorphisms(pattern, target, limit))
}

// matchOrder picks a connectivity-aware ordering of the pattern vertices:
// start at a highest-degree vertex, then repeatedly take the unvisited
// vertex with the most already-ordered neighbours (ties by degree then
// id). Connected-first ordering makes the neighbour-consistency pruning
// bite as early as possible.
func matchOrder(p *Graph) []int {
	n := p.N()
	ordered := make([]int, 0, n)
	placed := make([]bool, n)
	for len(ordered) < n {
		best := -1
		bestScore := [3]int{-1, -1, 0}
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			conn := 0
			for _, u := range p.Neighbors(v) {
				if placed[u] {
					conn++
				}
			}
			score := [3]int{conn, p.Degree(v), -v}
			if best == -1 || scoreLess(bestScore, score) {
				best = v
				bestScore = score
			}
		}
		placed[best] = true
		ordered = append(ordered, best)
	}
	return ordered
}

func scoreLess(a, b [3]int) bool {
	for i := 0; i < 3; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// BruteForceMonomorphisms enumerates monomorphisms by trying every
// injective assignment. Exponential; exists only as a test oracle for the
// VF2 implementation.
func BruteForceMonomorphisms(pattern, target *Graph) [][]int {
	var results [][]int
	n := pattern.N()
	if n == 0 {
		return [][]int{{}}
	}
	used := make([]bool, target.N())
	mapping := make([]int, n)
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			results = append(results, append([]int(nil), mapping...))
			return
		}
		for c := 0; c < target.N(); c++ {
			if used[c] {
				continue
			}
			ok := true
			for u := 0; u < v; u++ {
				if pattern.HasEdge(u, v) && !target.HasEdge(mapping[u], c) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			mapping[v] = c
			used[c] = true
			rec(v + 1)
			used[c] = false
		}
	}
	rec(0)
	return results
}

// SortMappings orders a slice of mappings lexicographically, for
// comparisons in tests.
func SortMappings(ms [][]int) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
