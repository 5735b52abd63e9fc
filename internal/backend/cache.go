package backend

import (
	"sync"

	"edm/internal/circuit"
)

// progCacheLimit bounds the number of compiled programs kept per machine.
// Experiment campaigns cycle through a handful of executables per round
// (K ensemble members x a few policies), so a small bound captures all
// reuse while keeping worst-case memory trivial.
const progCacheLimit = 64

// progEntry is one cached compile+fuse result, with enough of the source
// circuit's shape to reject a (vanishingly unlikely) fingerprint
// collision.
type progEntry struct {
	prog      *program
	numQubits int
	numClbits int
	numOps    int
}

// progCache is a concurrency-safe, FIFO-bounded map from circuit
// fingerprints to compiled programs. Programs are immutable after
// compilation, so cached values are shared freely across goroutines.
type progCache struct {
	mu        sync.Mutex
	entries   map[uint64]progEntry
	order     []uint64 // insertion order, for FIFO eviction
	hits      uint64
	misses    uint64
	evictions uint64
}

// CacheStats is a snapshot of the compiled-program cache counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	// PlanBytes is the live checkpoint memory of the cached programs'
	// prefix plans: it rises as plans build and grow, and falls when a
	// program leaves the cache.
	PlanBytes int64
}

// CacheStats returns the machine's compiled-program cache counters.
func (m *Machine) CacheStats() CacheStats {
	c := &m.progs
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.entries),
		PlanBytes: m.planBytes.Load()}
}

// chargePlan adds delta bytes of prog's plan checkpoints to the
// machine's PlanBytes gauge, unless prog has already left the cache (a
// run may still be growing an evicted program's plan).
func (m *Machine) chargePlan(prog *program, delta int64) {
	a := &prog.acct
	a.Lock()
	defer a.Unlock()
	if !a.evicted {
		a.charged += delta
		m.planBytes.Add(delta)
	}
}

// releasePlan takes an evicted program's plan bytes off the gauge and
// stops further charges.
func (m *Machine) releasePlan(prog *program) {
	a := &prog.acct
	a.Lock()
	defer a.Unlock()
	if !a.evicted {
		a.evicted = true
		m.planBytes.Add(-a.charged)
		a.charged = 0
	}
}

// getProgram returns the compiled, fused program for the executable,
// reusing a cached result when the circuit fingerprint matches.
// Compilation runs outside the lock; two goroutines racing on the same
// new circuit may both compile, and the second insert wins — harmless,
// since compilation is deterministic.
func (m *Machine) getProgram(exe *circuit.Circuit) (*program, error) {
	fp := exe.Fingerprint()
	c := &m.progs
	c.mu.Lock()
	if e, ok := c.entries[fp]; ok &&
		e.numQubits == exe.NumQubits && e.numClbits == exe.NumClbits && e.numOps == len(exe.Ops) {
		c.hits++
		c.mu.Unlock()
		return e.prog, nil
	}
	c.misses++
	c.mu.Unlock()

	raw, err := m.compile(exe)
	if err != nil {
		return nil, err
	}
	prog := fuseProgram(raw)

	// Programs that leave the map — evicted, or replaced by a racing
	// compile of the same circuit — release their plan bytes after the
	// cache lock is dropped.
	var gone []*program
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[uint64]progEntry, progCacheLimit)
	}
	if old, exists := c.entries[fp]; exists {
		gone = append(gone, old.prog)
	} else {
		c.order = append(c.order, fp)
	}
	c.entries[fp] = progEntry{prog: prog, numQubits: exe.NumQubits, numClbits: exe.NumClbits, numOps: len(exe.Ops)}
	for len(c.entries) > progCacheLimit {
		oldest := c.order[0]
		c.order = c.order[1:]
		if oldest != fp {
			gone = append(gone, c.entries[oldest].prog)
			delete(c.entries, oldest)
			c.evictions++
		} else {
			// Never evict the entry just inserted; rotate it to the back.
			c.order = append(c.order, oldest)
		}
	}
	c.mu.Unlock()
	for _, p := range gone {
		m.releasePlan(p)
	}
	return prog, nil
}
