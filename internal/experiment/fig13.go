package experiment

import (
	"edm/internal/ballsim"
	"edm/internal/pool"
	"edm/internal/rng"
	"edm/internal/workloads"
)

// Fig13Point is one experimental (PST, IST) observation.
type Fig13Point struct {
	Workload string
	PST      float64
	IST      float64
}

// Fig13Result reproduces Figure 13 of Appendix A: the IST-vs-PST curves
// of the buckets-and-balls model (analytic uncorrelated, Monte-Carlo
// Qcor = 10% and 50%), their PST frontiers, and experimental scatter from
// single-best-mapping runs of QAOA-6, BV-6 and greycode on the simulated
// machine.
type Fig13Result struct {
	PS []float64 // x axis: success probability

	AnalyticUncorrelated []float64
	MCQcor10             []float64
	MCQcor50             []float64

	FrontierUncorrelated float64 // paper: ~1.8%
	FrontierQcor10       float64 // paper: ~3.6%
	FrontierQcor50       float64 // paper: ~8%

	Experimental []Fig13Point
}

// Fig13 runs the appendix experiment. The model uses M = 64 buckets and
// k = 6 (six-bit programs); the experimental scatter runs each of the
// three workloads once per campaign round with 8192 trials, matching the
// paper's per-run budget.
func Fig13(s Setup) Fig13Result {
	const m = 64
	r := rng.New(s.Seed).Derive("fig13")
	ps := []float64{0.005, 0.01, 0.018, 0.025, 0.036, 0.05, 0.08, 0.12, 0.18, 0.25}
	trials := 8192
	reps := 15

	out := Fig13Result{PS: ps}
	out.AnalyticUncorrelated = make([]float64, len(ps))
	for i, p := range ps {
		out.AnalyticUncorrelated[i] = ballsim.AnalyticIST(p, m, trials)
	}
	out.MCQcor10 = ballsim.Correlated(m, 0.10).Curve(ps, trials, reps, r.Derive("q10"))
	out.MCQcor50 = ballsim.Correlated(m, 0.50).Curve(ps, trials, reps, r.Derive("q50"))
	out.FrontierUncorrelated = ballsim.Uncorrelated(m).Frontier(trials, reps, r.Derive("f0"))
	out.FrontierQcor10 = ballsim.Correlated(m, 0.10).Frontier(trials, reps, r.Derive("f10"))
	out.FrontierQcor50 = ballsim.Correlated(m, 0.50).Frontier(trials, reps, r.Derive("f50"))

	names := []string{"qaoa-6", "bv-6", "greycode-6"}
	out.Experimental = make([]Fig13Point, len(names)*s.Rounds)
	pool.Fan(len(out.Experimental), func(ci int) {
		name := names[ci/s.Rounds]
		w, _ := workloads.ByName(name)
		rd := s.Round(ci % s.Rounds)
		mem, err := rd.Runner.RunSingleBest(w.Circuit, trials, rd.RNG.Derive("fig13-"+name))
		if err != nil {
			panic(err)
		}
		out.Experimental[ci] = Fig13Point{
			Workload: name,
			PST:      mem.Output.PST(w.Correct),
			IST:      mem.Output.IST(w.Correct),
		}
	})
	return out
}
