package experiment

import (
	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/dist"
	"edm/internal/pool"
	"edm/internal/statevec"
	"edm/internal/workloads"
)

// Fig1Result reproduces Figure 1: Bernstein-Vazirani with a 2-bit key on
// (a) an ideal machine, (b) a NISQ round where the correct answer still
// dominates, and (c) a NISQ round where a wrong answer dominates.
type Fig1Result struct {
	Key     bitstr.BitString
	Ideal   *dist.Dist
	Good    *dist.Dist // IST > 1 round (nil if none found)
	GoodIST float64
	Bad     *dist.Dist // IST < 1 round (nil if none found)
	BadIST  float64
}

// Fig1 searches the campaign rounds for a correct-inference and a
// wrong-inference output of BV-2. A deeper variant of BV-2 (the same key
// queried three times, uncomputed in between) is used for the noisy runs
// so that the error rates of the 14-qubit machine actually threaten the
// 2-bit answer the way they threaten the paper's full-size benchmarks.
func Fig1(s Setup) Fig1Result {
	w := workloads.BV("11")
	ideal, err := statevec.IdealDist(w.Circuit)
	if err != nil {
		panic(err)
	}
	out := Fig1Result{Key: w.Correct, Ideal: ideal}
	deep := deepBV2()
	dists := make([]*dist.Dist, s.Rounds)
	pool.Fan(s.Rounds, func(i int) {
		r := s.Round(i)
		m, err := r.Runner.RunSingleBest(deep, s.Trials, r.RNG.Derive("fig1"))
		if err != nil {
			panic(err)
		}
		dists[i] = m.Output
	})
	for i := 0; i < s.Rounds; i++ {
		ist := dists[i].IST(w.Correct)
		switch {
		case ist > 1 && (out.Good == nil || ist > out.GoodIST):
			out.Good = dists[i]
			out.GoodIST = ist
		case ist < 1 && (out.Bad == nil || ist < out.BadIST):
			out.Bad = dists[i]
			out.BadIST = ist
		}
	}
	return out
}

// deepBV2 builds a BV-2 variant that applies the oracle three times: an
// odd number of applications keeps the phase kickback — and therefore the
// ideal answer — identical to a single query, while tripling the exposure
// to gate errors so the 2-bit answer is actually at risk.
func deepBV2() *circuit.Circuit {
	const n = 2
	anc := n
	c := circuit.New(n+1, n)
	c.Name = "bv-2-deep"
	for q := 0; q < n; q++ {
		c.H(q)
	}
	c.X(anc).H(anc)
	for rep := 0; rep < 3; rep++ {
		for q := 0; q < n; q++ {
			c.CX(q, anc)
		}
	}
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for q := 0; q < n; q++ {
		c.Measure(q, q)
	}
	return c
}

// Fig3Result reproduces Figure 3: the sorted output distribution of BV-6
// under the single best mapping with the full trial budget.
type Fig3Result struct {
	Sorted   []dist.Outcome
	PST      float64
	IST      float64
	Support  int // number of distinct outcomes observed (paper: all 64)
	Outcomes int // size of the outcome space
}

// Fig3 runs BV-6 with the single best mapping on round 0.
func Fig3(s Setup) Fig3Result {
	w, _ := workloads.ByName("bv-6")
	r := s.Round(0)
	m, err := r.Runner.RunSingleBest(w.Circuit, s.Trials, r.RNG.Derive("fig3"))
	if err != nil {
		panic(err)
	}
	return Fig3Result{
		Sorted:   m.Output.Sorted(),
		PST:      m.Output.PST(w.Correct),
		IST:      m.Output.IST(w.Correct),
		Support:  m.Output.Support(),
		Outcomes: 1 << uint(w.Correct.Len()),
	}
}

// Fig4Result reproduces Figure 4: pairwise symmetric-KL heat maps between
// eight runs of the single best mapping (left) and one run of each of the
// top-8 diverse mappings (right).
type Fig4Result struct {
	Same       [][]float64
	Diverse    [][]float64
	AvgSame    float64 // paper reports ~0.03
	AvgDiverse float64 // paper reports ~0.5
}

// Fig4 executes the two eight-run experiments of Section 3.2 on round 0.
func Fig4(s Setup) Fig4Result {
	w, _ := workloads.ByName("bv-6")
	r := s.Round(0)
	execs, err := r.Compiler.TopK(w.Circuit, 8)
	if err != nil {
		panic(err)
	}
	sameDists := make([]*dist.Dist, 8)
	divDists := make([]*dist.Dist, len(execs))
	pool.Fan(len(sameDists)+len(divDists), func(i int) {
		if i < len(sameDists) {
			d, err := r.Machine.RunDist(execs[0].Circuit, s.Trials, r.RNG.DeriveN("fig4-same", i))
			if err != nil {
				panic(err)
			}
			sameDists[i] = d
			return
		}
		j := i - len(sameDists)
		d, err := r.Machine.RunDist(execs[j].Circuit, s.Trials, r.RNG.DeriveN("fig4-div", j))
		if err != nil {
			panic(err)
		}
		divDists[j] = d
	})
	same, avgSame := pairwiseKL(sameDists)
	div, avgDiv := pairwiseKL(divDists)
	return Fig4Result{Same: same, Diverse: div, AvgSame: avgSame, AvgDiverse: avgDiv}
}

// pairwiseKL returns the symmetric-KL matrix and the mean off-diagonal
// value.
func pairwiseKL(ds []*dist.Dist) ([][]float64, float64) {
	n := len(ds)
	m := make([][]float64, n)
	var sum float64
	var cnt int
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i == j {
				continue
			}
			m[i][j] = ds[i].SymKL(ds[j])
			sum += m[i][j]
			cnt++
		}
	}
	return m, sum / float64(cnt)
}
