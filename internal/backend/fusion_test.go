package backend

import (
	"math"
	"sort"
	"testing"
	"unsafe"

	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/device"
	"edm/internal/rng"
)

// randomPathCircuit builds a random physical circuit on the melbourne path
// 0-1-2-3: a mix of one-qubit gates (diagonal, anti-diagonal, and dense)
// and two-qubit gates on coupled pairs, measured in full. It exercises
// every fusion rule: runs of 1Q gates, 1Q folds into adjacent 2Q, and
// near-identity cancellations (e.g. adjacent H H pairs).
func randomPathCircuit(r *rng.RNG) *circuit.Circuit {
	const active = 4
	c := circuit.New(14, active)
	oneQ := []func(q int){
		func(q int) { c.H(q) },
		func(q int) { c.T(q) },
		func(q int) { c.S(q) },
		func(q int) { c.X(q) },
		func(q int) { c.Z(q) },
		func(q int) { c.RZ(q, r.Float64()*6) },
		func(q int) { c.U3(q, r.Float64()*3, r.Float64()*6, r.Float64()*6) },
	}
	depth := 8 + r.Intn(16)
	for i := 0; i < depth; i++ {
		switch r.Intn(4) {
		case 0, 1:
			oneQ[r.Intn(len(oneQ))](r.Intn(active))
		case 2:
			q := r.Intn(active - 1)
			c.CX(q, q+1)
		case 3:
			q := r.Intn(active - 1)
			c.CZ(q, q+1)
		}
	}
	for q := 0; q < active; q++ {
		c.Measure(q, q)
	}
	return c
}

// TestFusionEquivalenceExact is the fusion correctness property: for
// random circuits, the exact output distribution of the fused program
// matches the unfused one to within numerical noise (the issue's 1e-9
// total-variation budget; fusion is mathematically exact, so only
// floating-point rounding separates the two).
func TestFusionEquivalenceExact(t *testing.T) {
	m := noisyMachine(23)
	r := rng.New(101)
	for trial := 0; trial < 25; trial++ {
		c := randomPathCircuit(r.DeriveN("circuit", trial))
		raw, err := m.compile(c)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		fused := fuseProgram(raw)
		if len(fused.steps) > len(raw.steps) {
			t.Fatalf("trial %d: fusion grew the program: %d -> %d steps",
				trial, len(raw.steps), len(fused.steps))
		}
		want, err := m.exactFromProgram(raw)
		if err != nil {
			t.Fatalf("trial %d: exact raw: %v", trial, err)
		}
		got, err := m.exactFromProgram(fused)
		if err != nil {
			t.Fatalf("trial %d: exact fused: %v", trial, err)
		}
		if tv := want.TV(got); tv > 1e-9 {
			t.Fatalf("trial %d: fused distribution diverged: TV=%g", trial, tv)
		}
	}
}

// TestFusionEquivalenceRun checks the determinism contract end to end:
// trajectory sampling over the raw and the fused program with the same
// seed yields the same histogram. Fusion only moves deterministic
// unitaries across steps acting on disjoint qubits, which cannot change
// any branch probability, so the RNG draw sequence — and hence every
// sampled outcome — is preserved (up to ~1e-16 threshold perturbations
// that no finite trial count observes).
func TestFusionEquivalenceRun(t *testing.T) {
	m := noisyMachine(29)
	r := rng.New(131)
	for trial := 0; trial < 5; trial++ {
		c := randomPathCircuit(r.DeriveN("circuit", trial))
		raw, err := m.compile(c)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		fused := fuseProgram(raw)
		const trials = 2000
		want := m.runProgram(raw, nil, trials, rng.New(uint64(500+trial)), nil)
		got := m.runProgram(fused, nil, trials, rng.New(uint64(500+trial)), nil)
		if want.Total() != got.Total() {
			t.Fatalf("trial %d: totals differ: %d vs %d", trial, want.Total(), got.Total())
		}
		for v := uint64(0); v < uint64(1)<<uint(raw.numClbits); v++ {
			b := bitstr.New(v, raw.numClbits)
			if want.Count(b) != got.Count(b) {
				t.Fatalf("trial %d: histogram differs at %v: raw=%d fused=%d",
					trial, b, want.Count(b), got.Count(b))
			}
		}
	}
}

// TestFusionDropsIdentity checks that gate sequences multiplying to the
// identity (up to global phase) vanish from the fused program. The ideal
// profile still carries a vanishing-but-nonzero damping rate (T1 = 1e9 us)
// whose steps consume randomness and clobber fusion windows, so the test
// pushes T1/T2 to infinity for a genuinely noiseless machine.
func TestFusionDropsIdentity(t *testing.T) {
	cal := device.Generate(device.Linear(2), device.IdealProfile(), rng.New(1))
	for i := range cal.T1us {
		cal.T1us[i] = math.Inf(1)
		cal.T2us[i] = math.Inf(1)
	}
	m := New(cal)
	c := circuit.New(2, 1)
	c.H(0).H(0).T(0).Tdg(0).Measure(0, 0)
	raw, err := m.compile(c)
	if err != nil {
		t.Fatal(err)
	}
	fused := fuseProgram(raw)
	for _, st := range fused.steps {
		if st.kind == stepU1 || st.kind == stepU2 {
			t.Fatalf("identity sequence survived fusion: %d unitary steps remain", len(fused.steps))
		}
	}
}

// TestProgramFootprint pins the compiled schedule's memory: the step
// record stays at most 40 bytes, fusion allocates the fused schedule at
// its exact length, and across the nine Table-1 programs on Melbourne
// the schedule retains at most 160 bytes per fused step, side tables
// and readout map included.
func TestProgramFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(step{}); sz > 40 {
		t.Fatalf("step is %d bytes, want <= 40", sz)
	}
	exes := physicalWorkloads(t)
	names := make([]string, 0, len(exes))
	for name := range exes {
		names = append(names, name)
	}
	sort.Strings(names)
	m := New(device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5)))
	var bytes, steps int64
	for _, name := range names {
		prog, err := m.getProgram(exes[name].Circuit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cap(prog.steps) != len(prog.steps) {
			t.Errorf("%s: fused schedule keeps cap %d for %d steps", name, cap(prog.steps), len(prog.steps))
		}
		b := prog.bytes()
		t.Logf("%-10s %5d steps %7d bytes %6.1f B/step (%d 1Q, %d dense 2Q, %d diag 2Q, %d perm 2Q, %d damp channels)",
			name, len(prog.steps), b, float64(b)/float64(len(prog.steps)),
			len(prog.m2s), len(prog.m4s), len(prog.d4s), len(prog.perms), len(prog.damps))
		bytes += b
		steps += int64(len(prog.steps))
	}
	per := float64(bytes) / float64(steps)
	t.Logf("total %d bytes over %d steps: %.1f B/step", bytes, steps, per)
	if per > 160 {
		t.Errorf("schedule retains %.1f B per fused step, want <= 160", per)
	}
}
