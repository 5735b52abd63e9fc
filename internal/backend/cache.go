package backend

import (
	"edm/internal/circuit"
	"edm/internal/memo"
)

// programCacheCap bounds the number of compiled programs kept per
// machine. Experiment campaigns cycle through a handful of executables
// per round (K ensemble members x a few policies), so a small bound
// captures all reuse. Worst-case memory is 64 schedules (ProgramBytes:
// ~115 B per fused step, 23 KB on average and 50 KB at most for the
// Table-1 programs on Melbourne, so ~1.5-3.2 MB) plus their plans
// (PlanBytes, each capped by planStateBudget).
const programCacheCap = 64

// progEntry is one cached compile+fuse outcome. Compile errors are
// deterministic for a given circuit, so they are cached alongside
// programs. Programs are immutable after compilation (their lazily
// built plans aside, which carry their own synchronization), so cached
// values are shared freely across goroutines.
type progEntry struct {
	prog *program
	err  error
}

// CacheStats is a snapshot of the compiled-program cache counters.
type CacheStats struct {
	// Hits counts lookups that compiled nothing: a cached program, or a
	// wait on another caller's in-flight compile of the same circuit.
	// Waits is the share of Hits that waited.
	Hits      uint64
	Waits     uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	// PlanBytes is the live checkpoint memory of the cached programs'
	// prefix plans: it rises as plans build and grow, and falls when a
	// program leaves the cache.
	PlanBytes int64
	// ProgramBytes is the memory of the cached programs' compiled
	// schedules: step records plus their matrix and Kraus side tables.
	ProgramBytes int64
}

// CacheStats returns the machine's compiled-program cache counters.
// PlanBytes and ProgramBytes are summed on read over the programs the
// cache holds, so a program that has left the cache no longer counts,
// whatever runs still hold it.
func (m *Machine) CacheStats() CacheStats {
	s := m.progs.Stats()
	st := CacheStats{Hits: s.Hits + s.Waits, Waits: s.Waits, Misses: s.Misses, Evictions: s.Evictions, Entries: s.Entries}
	m.progs.Each(func(_ uint64, e *progEntry) {
		if e.prog == nil {
			return
		}
		st.ProgramBytes += e.prog.bytes()
		if plan := e.prog.prefix.Load(); plan != nil {
			st.PlanBytes += plan.stateBytes.Load()
		}
	})
	return st
}

// getProgram returns the compiled, fused program for the executable,
// reusing a cached result when the circuit matches. The key mixes the
// circuit's shape into its fingerprint, so a (vanishingly unlikely)
// fingerprint collision between differently shaped circuits cannot
// alias. Concurrent first runs of one circuit share a single compile.
func (m *Machine) getProgram(exe *circuit.Circuit) (*program, error) {
	key := memo.Mix(memo.Seed(), exe.Fingerprint())
	key = memo.Mix(key, uint64(exe.NumQubits))
	key = memo.Mix(key, uint64(exe.NumClbits))
	key = memo.Mix(key, uint64(len(exe.Ops)))
	e := m.progs.Get(key, func() *progEntry {
		raw, err := m.compile(exe)
		if err != nil {
			return &progEntry{err: err}
		}
		return &progEntry{prog: fuseProgram(raw)}
	})
	return e.prog, e.err
}
