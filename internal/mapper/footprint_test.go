package mapper

import (
	"runtime"
	"testing"
	"unsafe"

	"edm/internal/circuit"
)

// wideFootprintCircuits are sixteen seeded 11-qubit random circuits, the
// shape of edmd's never-seen wide jobs; on the benchmark calibration
// their pools range from about a hundred placements to enumLimit.
func wideFootprintCircuits() []*circuit.Circuit {
	cs := make([]*circuit.Circuit, 16)
	for i := range cs {
		cs[i] = goldenWideCircuit(100 + uint64(i))
	}
	return cs
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retainedPerCandidate builds one pool per circuit, keeps them all live,
// and returns the heap bytes they retain per placement, the placement
// count, and the bytes poolEntry.footprint accounts for.
func retainedPerCandidate(comp *Compiler, cs []*circuit.Circuit) (perCand float64, cands int, accounted int64) {
	before := heapInUse()
	pools := make([]*poolEntry, len(cs))
	for i, c := range cs {
		pools[i] = comp.buildPool(c)
	}
	after := heapInUse()
	for _, pe := range pools {
		n, b := pe.footprint()
		cands += n
		accounted += b
	}
	runtime.KeepAlive(pools)
	return float64(int64(after)-int64(before)) / float64(cands), cands, accounted
}

// TestPoolFootprint pins the pool's value-slab representation: a
// placement is a pointer-free value of at most 64 bytes, and building a
// wide pool allocates per shard, not per placement. The enumeration and
// ranking of a 60,640-placement pool must make fewer than one allocation
// per hundred placements; the compile stages in front of them (placement,
// routing, the alternative-placement sweep) allocate the same whatever
// the pool size and are logged, not bounded. Retained bytes per placement
// over sixteen wide pools are logged too: the heap measurement depends on
// the runtime's size classes, so it is not asserted.
func TestPoolFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(candidate{}); sz > 64 {
		t.Fatalf("candidate is %d bytes, want <= 64", sz)
	}
	comp := NewCompiler(benchCal())
	c := goldenWideCircuit(105)
	pe := comp.buildPool(c)
	if pe.err != nil {
		t.Fatal(pe.err)
	}
	n := pe.slab.nMono
	if n < 50000 {
		t.Fatalf("wide pool has %d placements; the allocation bound needs a large pool", n)
	}
	alts := pe.slab.alts
	poolAllocs := testing.AllocsPerRun(3, func() { rankPool(pe.rp.enumerate(nil, alts)) })
	total := testing.AllocsPerRun(3, func() { comp.buildPool(c) })
	t.Logf("wide pool: %d placements; enumerate+rank %.0f allocs, buildPool %.0f allocs", n, poolAllocs, total)
	if poolAllocs >= float64(n)/100 {
		t.Fatalf("enumerate+rank made %.0f allocations for %d placements, want < %d", poolAllocs, n, n/100)
	}

	per, cands, accounted := retainedPerCandidate(comp, wideFootprintCircuits())
	t.Logf("16 wide pools: %d placements, retained %.1f B/placement (footprint accounts %.1f B)",
		cands, per, float64(accounted)/float64(cands))
}

// BenchmarkBuildPoolWide builds the sixteen wide pools of
// TestPoolFootprint per op — the TopK layer's cost for never-seen wide
// jobs — and reports, besides B/op and allocs/op, the heap each retained
// placement costs.
func BenchmarkBuildPoolWide(b *testing.B) {
	comp := NewCompiler(benchCal())
	cs := wideFootprintCircuits()
	per, cands, _ := retainedPerCandidate(comp, cs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cs {
			if pe := comp.buildPool(c); pe.err != nil {
				b.Fatal(pe.err)
			}
		}
	}
	b.ReportMetric(per, "retained-B/cand")
	b.ReportMetric(float64(cands), "cands/op")
}
