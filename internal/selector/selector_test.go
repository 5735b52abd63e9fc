package selector

import (
	"testing"

	"edm/internal/backend"
	"edm/internal/bitstr"
	"edm/internal/core"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/mapper"
	"edm/internal/rng"
	"edm/internal/workloads"
)

func candidatePool(t *testing.T, cal *device.Calibration, w workloads.Workload, n int) []*mapper.Executable {
	t.Helper()
	comp := mapper.NewCompiler(cal)
	execs, err := comp.TopK(w.Circuit, n)
	if err != nil {
		t.Fatal(err)
	}
	return execs
}

func TestPredictMatchesMachine(t *testing.T) {
	// The prediction is exact: the machine sampling the same executable
	// under the same calibration must converge to it.
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(3))
	w := workloads.BV("101")
	execs := candidatePool(t, cal, w, 1)
	p, err := Predict(cal, execs[0], w.Correct)
	if err != nil {
		t.Fatal(err)
	}
	m := backend.New(cal)
	got, err := m.RunDist(execs[0].Circuit, 60000, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if tv := got.TV(p.Output); tv > 0.02 {
		t.Fatalf("prediction deviates from sampling: TV = %v", tv)
	}
}

func TestIdealAnswer(t *testing.T) {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(5))
	w := workloads.BV("1101")
	execs := candidatePool(t, cal, w, 1)
	ans, err := IdealAnswer(execs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Equal(w.Correct) {
		t.Fatalf("IdealAnswer = %v, want %v", ans, w.Correct)
	}
}

func TestSelectBasics(t *testing.T) {
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(7))
	w := workloads.BV("1011")
	cand := candidatePool(t, cal, w, 8)
	execs, predIST, err := Select(cal, cand, 3, w.Correct, Options{MaxCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(execs) == 0 || len(execs) > 3 {
		t.Fatalf("selected %d members", len(execs))
	}
	if predIST <= 0 {
		t.Fatalf("predicted IST = %v", predIST)
	}
	// Members are distinct.
	seen := map[*mapper.Executable]bool{}
	for _, e := range execs {
		if seen[e] {
			t.Fatal("duplicate member selected")
		}
		seen[e] = true
	}
}

func TestSelectPredictionBeatsESPOrder(t *testing.T) {
	// The predicted merged IST of the selected ensemble must be at least
	// that of the naive first-k-by-ESP ensemble (it optimizes exactly
	// that objective over a superset of choices).
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(9))
	w := workloads.BV("1011")
	cand := candidatePool(t, cal, w, 8)
	_, predIST, err := Select(cal, cand, 4, w.Correct, Options{MaxCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	var naive []*dist.Dist
	for _, e := range cand[:4] {
		p, err := Predict(cal, e, w.Correct)
		if err != nil {
			t.Fatal(err)
		}
		naive = append(naive, p.Output)
	}
	naiveIST := dist.Merge(naive).IST(w.Correct)
	if predIST+1e-9 < naiveIST {
		t.Fatalf("selector predicted %v, naive ESP-order ensemble predicts %v", predIST, naiveIST)
	}
}

func TestSelectRunsOnMachine(t *testing.T) {
	// End-to-end: the selected ensemble executes and produces a sane
	// merged distribution.
	cal := device.Generate(device.Melbourne(), device.MelbourneProfile(), rng.New(11))
	w := workloads.BV("1011")
	cand := candidatePool(t, cal, w, 6)
	execs, _, err := Select(cal, cand, 4, w.Correct, Options{MaxCandidates: 6})
	if err != nil {
		t.Fatal(err)
	}
	runner := core.NewRunner(mapper.NewCompiler(cal), backend.New(cal.Drift(0.2, rng.New(12))))
	res, err := runner.RunExecutables(execs, core.Config{K: len(execs), Trials: 2000, Weighting: core.WeightUniform}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.Support() == 0 {
		t.Fatal("empty merged output")
	}
}

func TestSelectValidation(t *testing.T) {
	cal := device.Generate(device.Linear(3), device.IdealProfile(), rng.New(1))
	correct := bitstr.MustParse("00")
	if _, _, err := Select(cal, nil, 2, correct, Options{}); err == nil {
		t.Fatal("empty pool accepted")
	}
	w := workloads.BV("10")
	cand := candidatePool(t, cal, w, 1)
	if _, _, err := Select(cal, cand, 0, w.Correct, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Footprint cap filters everything out.
	if _, _, err := Select(cal, cand, 1, w.Correct, Options{MaxQubits: 1}); err == nil {
		t.Fatal("impossible footprint accepted")
	}
}

func TestSelectStopsWhenAdditionHurts(t *testing.T) {
	// With one dominant mapping and clearly worse alternatives, the
	// greedy selection may stop below k rather than dilute the ensemble.
	topo := device.Linear(6)
	cal := device.Generate(topo, device.IdealProfile(), rng.New(1))
	// Make qubits 0,1 perfect and the rest noisy at readout.
	for q := 2; q < 6; q++ {
		cal.Meas01[q] = 0.4
		cal.Meas10[q] = 0.4
	}
	w := workloads.BV("1")
	comp := mapper.NewCompiler(cal)
	execs, err := comp.TopK(w.Circuit, 4)
	if err != nil {
		t.Fatal(err)
	}
	chosen, predIST, err := Select(cal, execs, 4, w.Correct, Options{MaxCandidates: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) == 4 {
		t.Logf("selector kept all 4 members (predicted IST %v)", predIST)
	} else {
		t.Logf("selector stopped at %d members (predicted IST %v)", len(chosen), predIST)
	}
	if predIST < 1 {
		t.Fatalf("predicted IST %v < 1 on a nearly ideal pair", predIST)
	}
}
