package backend

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/mapper"
	"edm/internal/rng"
)

// goldenRunDigest is the digest TestRunGoldenDigest produces. It was
// recorded from the schedule layout that preceded the slim step record
// (every step carrying its own dense matrices and Kraus slices), so it
// pins Counts and exact probabilities to an absolute reference rather
// than to another code path of the same build: a kernel input that
// shifted consistently on every engine would still change it.
const goldenRunDigest uint64 = 0x2d1520da166567ab

// goldenWideCircuit builds one seeded 11-qubit logical circuit: three
// layers of u3 on every qubit plus CX on a random matching of a random
// connected interaction graph, measured in full.
func goldenWideCircuit(seed uint64) *circuit.Circuit {
	const n = 11
	r := rng.New(seed)
	var edges [][2]int
	order := r.Perm(n)
	for j := 1; j < n; j++ {
		edges = append(edges, [2]int{order[j], order[r.Intn(j)]})
	}
	c := circuit.New(n, n)
	for l := 0; l < 3; l++ {
		for q := 0; q < n; q++ {
			c.U3(q, r.Float64()*3.14159, r.Float64()*6.28318, r.Float64()*6.28318)
		}
		busy := make([]bool, n)
		for _, j := range r.Perm(len(edges)) {
			e := edges[j]
			if busy[e[0]] || busy[e[1]] {
				continue
			}
			busy[e[0]], busy[e[1]] = true, true
			c.CX(e[0], e[1])
		}
	}
	return c.MeasureAll()
}

// digestWord folds one 64-bit word into h.
func digestWord(h hash.Hash64, x uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], x)
	h.Write(buf[:])
}

// digestCounts folds a labelled histogram into h in Sorted order.
func digestCounts(h hash.Hash64, label string, c *dist.Counts) {
	h.Write([]byte(label))
	digestWord(h, uint64(c.N()))
	digestWord(h, uint64(c.Total()))
	for _, e := range c.Sorted() {
		digestWord(h, e.Value.Uint64())
		digestWord(h, uint64(e.Count))
	}
}

// digestDist folds a labelled distribution's probability bits into h.
func digestDist(h hash.Hash64, label string, d *dist.Dist) {
	h.Write([]byte(label))
	out := d.Sorted()
	sort.Slice(out, func(i, j int) bool { return out[i].Value.Uint64() < out[j].Value.Uint64() })
	digestWord(h, uint64(len(out)))
	for _, o := range out {
		digestWord(h, o.Value.Uint64())
		digestWord(h, math.Float64bits(o.P))
	}
}

// TestRunGoldenDigest pins the simulator's results — histograms from
// every trial engine and exact-channel probability bits — across the
// nine Table-1 workloads on Melbourne (100 trials through the legacy
// loop; 2048 trials through the planned batched engine, twice, so the
// second run walks a tree the first one grew), ExactDist on three small
// workloads, four seeded 11-qubit random circuits at 1024 trials, and a
// Clifford GHZ program on the Falcon27 tableau. ci.sh re-runs it under
// -race at GOMAXPROCS=1 and at full width.
func TestRunGoldenDigest(t *testing.T) {
	h := fnv.New64a()
	check := func(label string, c *dist.Counts, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		digestCounts(h, label, c)
	}

	exes := physicalWorkloads(t)
	names := make([]string, 0, len(exes))
	for name := range exes {
		names = append(names, name)
	}
	sort.Strings(names)
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	for _, name := range names {
		exe := exes[name].Circuit
		c, err := New(cal).runLegacy(exe, 100, rng.New(42))
		check("legacy/"+name, c, err)
		m := New(cal)
		for _, seed := range []uint64{43, 44} {
			c, err := m.Run(exe, 2048, rng.New(seed))
			check(fmt.Sprintf("batched/%s/%d", name, seed), c, err)
		}
	}

	for _, name := range []string{"bv-6", "fredkin", "qaoa-5"} {
		d, err := New(cal).ExactDist(exes[name].Circuit)
		if err != nil {
			t.Fatalf("exact/%s: %v", name, err)
		}
		digestDist(h, "exact/"+name, d)
	}

	comp := mapper.NewCompiler(cal)
	for s := uint64(0); s < 4; s++ {
		exe, err := comp.Compile(goldenWideCircuit(300 + s))
		if err != nil {
			t.Fatalf("wide%d compile: %v", s, err)
		}
		c, err := New(cal).Run(exe.Circuit, 1024, rng.New(50+s))
		check(fmt.Sprintf("wide%d", s), c, err)
	}

	topo, prof, err := device.ByName("falcon27")
	if err != nil {
		t.Fatal(err)
	}
	ResetEngineStats()
	c, err := New(device.Generate(topo, prof, rng.New(7))).Run(ghzOnTopo(topo, 20), 1024, rng.New(60))
	check("falcon27/ghz", c, err)
	if s := EngineStatsSnapshot(); s.StabTrials == 0 {
		t.Fatalf("falcon27 GHZ did not run on the tableau: %+v", s)
	}

	if got := h.Sum64(); got != goldenRunDigest {
		t.Errorf("run digest = %#016x, want %#016x", got, goldenRunDigest)
	}
}
