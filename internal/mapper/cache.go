package mapper

import (
	"sync"
	"unsafe"

	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/memo"
)

// Compiler construction runs all-pairs reliability Dijkstra and builds
// the dense gate tables, and the experiment campaign constructs a
// compiler for the same calibration once per (workload, round, policy)
// cell. CachedCompiler memoizes compilers by calibration fingerprint so
// that work happens once per calibration window, and attaches a
// per-compiler ensemble cache so the TopK candidate pool for each
// circuit is built once and shared by every k the campaign asks for.

// compilerCacheCap bounds the compiler cache. An experiment sweep
// touches one calibration per round; 32 covers every campaign in the
// repository with room for concurrent sweeps.
const compilerCacheCap = 32

// ensembleCacheCap bounds each compiler's per-circuit pool and
// single-best caches, and each Tracking's pool cache. The campaign's
// workload suite has 9 circuits, but edmd's Tracking cache takes every
// inline circuit its clients send, so the cap is its memory bound too:
// at most ensembleCacheCap × enumLimit placements, each a 56-byte slab
// value, its arena bytes and a 4-byte pool index — ~82 bytes for an
// 11-qubit program, ~125 MiB in the worst case (DESIGN.md §9).
const ensembleCacheCap = 16

var (
	compilerCtr   memo.Counters
	compilerCache = memo.NewShared[*Compiler](compilerCacheCap, &compilerCtr)

	// topkCtr aggregates across every compiler's ensemble caches, so the
	// campaign reports one Top-K line no matter how many calibrations it
	// touched.
	topkCtr memo.Counters
)

// ensembleCache memoizes TopK work per circuit fingerprint: pools holds
// the ranked candidate pool shared by every k >= 2 (selection is re-run
// per k; see DESIGN.md §9 on why ranked prefixes cannot be served
// directly), best holds the k = 1 branch-and-bound result, which runs a
// pruned enumeration the pool path does not.
type ensembleCache struct {
	pools *memo.Cache[*poolEntry]
	best  *memo.Cache[*bestEntry]
}

func newEnsembleCache() *ensembleCache {
	return &ensembleCache{
		pools: memo.NewShared[*poolEntry](ensembleCacheCap, &topkCtr),
		best:  memo.NewShared[*bestEntry](ensembleCacheCap, &topkCtr),
	}
}

// poolEntry is one circuit's ranked candidate pool plus a memo of the
// executables materialized from it. Everything but exes is immutable
// after the build; exes grows under mu as different k values select
// overlapping candidates.
//
// slab holds every placement by value; cpool is the ranked pool as slab
// indices. The slab's mono placements stay in *enumeration order*,
// before any sort or dedupe, for incremental recompilation
// (recompile.go): re-ranking under a new calibration must replay the
// exact sort/split/dedupe pipeline on the full multiset, because
// dedupeByLayout keeps whichever same-layout candidate ranks first — a
// choice that can flip when ESPs move — and sortCandidates' stable ties
// are broken by pre-sort order. prog, seed, baseLayout and baseRes
// retain the rest of the build's intermediates for the same purpose.
type poolEntry struct {
	rp    *replacer
	slab  *slab
	cpool []int32
	err   error

	gen        uint64 // calibration generation (Tracking pools only)
	prog       *routeProg
	seed       []int // place() output the base routing started from
	baseLayout []int // routeDry's winning initial layout
	baseRes    passResult
	// groups indexes the immutable skey/lkey structure of the mono
	// placements and order is this generation's sorted permutation of
	// them; both are computed by the first incremental upgrade and carried
	// down the lineage so later upgrades replace the assembly's hash maps
	// with dense passes and start the sort from a nearly-sorted
	// permutation (recompile.go).
	groups *poolGroups
	order  []int32

	mu   sync.Mutex
	exes map[int32]*Executable // by slab index
}

// topK selects k members from the cached pool and materializes them,
// reusing executables already materialized for another k. Selection
// order and tie-breaks are identical to an uncached TopK call.
func (pe *poolEntry) topK(k int) ([]*Executable, error) {
	if pe.err != nil {
		return nil, pe.err
	}
	sel := selectDiverse(pe.slab, pe.cpool, k)
	out := make([]*Executable, len(sel))
	for i, ci := range sel {
		out[i] = pe.materialize(ci)
	}
	return out, nil
}

func (pe *poolEntry) materialize(i int32) *Executable {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if exe, ok := pe.exes[i]; ok {
		return exe
	}
	exe := pe.rp.materialize(pe.slab, i)
	pe.exes[i] = exe
	return exe
}

// footprint is the byte size of what scales with the placement count:
// the slab's values, arenas and the indices over it (ranked pool, sort
// order and, once a Tracking upgrade built it, the group index).
func (pe *poolEntry) footprint() (cands int, bytes int64) {
	s := pe.slab
	if s == nil {
		return 0, 0
	}
	bytes = int64(cap(s.cands))*int64(unsafe.Sizeof(candidate{})) +
		int64(cap(s.arena)) + int64(cap(s.altArena)) +
		4*int64(cap(pe.cpool)+cap(pe.order))
	if g := pe.groups; g != nil {
		bytes += 4*int64(cap(g.setGid)+cap(g.layGid)) + g.layByKey.bytes()
	}
	return len(s.cands), bytes
}

// bestEntry is one circuit's memoized k = 1 result.
type bestEntry struct {
	exes []*Executable
	err  error
}

// CachedCompiler returns a compiler for the calibration, reusing a
// previously built one when the calibration fingerprint matches
// (device.Calibration.Fingerprint hashes every field that affects
// compilation). Concurrent callers that miss on the same fingerprint
// share a single construction. The calibration must not be mutated after
// the call — the same contract as NewCompiler, made durable by the
// cache. Compilers are immutable, so a cached instance is safe to share
// across goroutines.
//
// Unlike NewCompiler, the returned compiler also memoizes TopK ensembles
// per circuit fingerprint (see DESIGN.md §9); call Uncached for a view
// without that layer.
func CachedCompiler(cal *device.Calibration) *Compiler {
	return compilerCache.Get(cal.Fingerprint(), func() *Compiler {
		c := NewCompiler(cal)
		c.ens = newEnsembleCache()
		return c
	})
}

// Uncached returns a view of the compiler with ensemble caching
// disabled: every TopK call re-enumerates and re-materializes from
// scratch, replicating the cost structure of a compiler built with
// NewCompiler. The view shares the receiver's immutable tables, so it is
// free to construct and safe to use concurrently with the original.
func (c *Compiler) Uncached() *Compiler {
	if c.ens == nil {
		return c
	}
	cc := *c
	cc.ens = nil
	return &cc
}

// circuitKey is the ensemble-cache key: the circuit's semantic
// fingerprint (registers, ordered ops, exact parameter bits).
func circuitKey(logical *circuit.Circuit) uint64 {
	return logical.Fingerprint()
}

// poolFootprint sums the placements and bytes of a cache's live pools
// (poolEntry.footprint).
func poolFootprint(pools *memo.Cache[*poolEntry]) (candidates int, bytes int64) {
	pools.Each(func(_ uint64, pe *poolEntry) {
		c, b := pe.footprint()
		candidates += c
		bytes += b
	})
	return candidates, bytes
}

// TopKPoolFootprint reports the placements held by every CachedCompiler's
// TopK pools and the bytes of their slabs, arenas and index slices. It is
// summed on read over the pools the caches hold, so an evicted pool stops
// counting at once.
func TopKPoolFootprint() (candidates int, bytes int64) {
	compilerCache.Each(func(_ uint64, c *Compiler) {
		if c.ens != nil {
			n, b := poolFootprint(c.ens.pools)
			candidates += n
			bytes += b
		}
	})
	return candidates, bytes
}

// CompilerCacheStats snapshots the CachedCompiler cache counters.
func CompilerCacheStats() memo.Stats { return compilerCtr.Stats() }

// TopKCacheStats snapshots the ensemble (Top-K pool + single-best)
// cache counters, aggregated across every cached compiler.
func TopKCacheStats() memo.Stats { return topkCtr.Stats() }

// ResetCompilerCache drops every cached compiler — and with them their
// ensemble caches. Tests and benchmarks use it to measure cold paths.
func ResetCompilerCache() {
	compilerCache.Each(func(_ uint64, c *Compiler) {
		if c.ens != nil {
			c.ens.pools.Reset()
			c.ens.best.Reset()
		}
	})
	compilerCache.Reset()
}
