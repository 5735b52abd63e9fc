package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"edm/internal/mapper"
	"edm/internal/rng"
	"edm/internal/serve"
	"edm/internal/workloads"
)

func TestStreamsArePureFunctionsOfTheSeed(t *testing.T) {
	for _, w := range []servingWorkload{paperJobs, wideFresh} {
		a, b := generate(w.gen(7), 120), generate(w.gen(7), 120)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", w.name)
		}
		if reflect.DeepEqual(a, generate(w.gen(8), 120)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
		if !reflect.DeepEqual(a[:40], generate(w.gen(7), 40)) {
			t.Errorf("%s: a stream's prefix depends on its length", w.name)
		}
	}
	if campaignSeed(3, 1) != campaignSeed(3, 1) || campaignSeed(3, 1) == campaignSeed(3, 2) {
		t.Error("campaign seeds are not distinct pure functions of the seed")
	}
}

func TestPaperStreamShape(t *testing.T) {
	s := generate(paperGen(11), 400)
	seen := map[[2]string]bool{}
	names := map[string]bool{}
	firstJobs := 0
	repeats, advances := 0, 0
	for i, e := range s {
		switch e.kind {
		case entryJob:
			if e.spec.K != paperK || e.spec.Trials != paperTrials || !e.table1 {
				t.Fatalf("entry %d: %+v is not a paper-scale Table-1 job", i, e.spec)
			}
			if firstJobs < 27 {
				seen[[2]string{e.spec.Workload, e.spec.Policy}] = true
			}
			names[e.spec.Workload] = true
			firstJobs++
		case entryRepeat:
			repeats++
			orig := s[e.of]
			if orig.kind != entryJob || (i-e.of)%2 != 1 || orig.spec.Tenant == e.spec.Tenant {
				t.Fatalf("entry %d repeats entry %d, which is not an earlier job of the other tenant", i, e.of)
			}
			want := orig.spec
			want.Tenant = e.spec.Tenant
			if e.spec != want {
				t.Fatalf("entry %d changes more than the tenant of entry %d", i, e.of)
			}
		case entryAdvance:
			advances++
		}
	}
	if len(seen) != 27 {
		t.Errorf("the first 27 jobs cover %d (workload, policy) pairs, want all 27", len(seen))
	}
	if len(names) != len(workloads.All()) {
		t.Errorf("stream covers %d workloads, want %d", len(names), len(workloads.All()))
	}
	if repeats < len(s)/10 || repeats > len(s)/7 {
		t.Errorf("%d repeats in %d entries, want about one in eight", repeats, len(s))
	}
	if advances != len(s)/advanceEvery {
		t.Errorf("%d advances in %d entries, want %d", advances, len(s), len(s)/advanceEvery)
	}
}

func TestWideCircuitsDistinctAndParseAlike(t *testing.T) {
	s := generate(wideGen(5), 64)
	fps := map[uint64]int{}
	formats := map[string]int{}
	for i, e := range s {
		formats[e.spec.Format]++
		want := wideCircuit(rng.New(5).DeriveN("wide-circuit", i))
		text, err := parseSpec(&serve.JobSpec{Circuit: want.Text(), Format: "text"})
		if err != nil {
			t.Fatalf("circuit %d: text rendering does not parse: %v", i, err)
		}
		qasm, err := parseSpec(&serve.JobSpec{Circuit: want.QASM(), Format: "qasm"})
		if err != nil {
			t.Fatalf("circuit %d: QASM rendering does not parse: %v", i, err)
		}
		if text.Fingerprint() != want.Fingerprint() || qasm.Fingerprint() != want.Fingerprint() {
			t.Fatalf("circuit %d: text and QASM renderings parse to different circuits", i)
		}
		if !reflect.DeepEqual(text.Ops, qasm.Ops) {
			t.Fatalf("circuit %d: text and QASM renderings parse to different ops", i)
		}
		if text.NumQubits != wideQubits || text.NumClbits != wideQubits {
			t.Fatalf("circuit %d: %d qubits, %d clbits", i, text.NumQubits, text.NumClbits)
		}
		if j, dup := fps[want.Fingerprint()]; dup {
			t.Fatalf("circuits %d and %d are the same", j, i)
		}
		fps[want.Fingerprint()] = i
	}
	if formats["text"] != 32 || formats["qasm"] != 32 {
		t.Errorf("formats %v, want half text and half qasm", formats)
	}
	warm := wideWarmup()[0]
	c, err := parseSpec(&warm)
	if err != nil {
		t.Fatal(err)
	}
	if _, dup := fps[c.Fingerprint()]; dup {
		t.Error("the warm-up circuit is in the stream")
	}
}

func TestWideCircuitsCompileOnMelbourne(t *testing.T) {
	cal, _, err := windowCals(serve.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	track := mapper.NewTracking(cal, mapper.RecompileChecked)
	for i, e := range generate(wideGen(9), 4) {
		c, err := parseSpec(&e.spec)
		if err != nil {
			t.Fatal(err)
		}
		execs, err := track.TopK(c, wideK)
		if err != nil {
			t.Fatalf("circuit %d: %v", i, err)
		}
		if len(execs) != wideK {
			t.Fatalf("circuit %d: %d members, want %d", i, len(execs), wideK)
		}
	}
}

// TestMirrorMatchesService pins the traced mirror of Service.execute to
// the service: same spec, same window, same merged distribution.
func TestMirrorMatchesService(t *testing.T) {
	cfg := serve.DefaultConfig()
	cfg.Window = 1
	svc, err := serve.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := newMirror(ctx, serve.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.advance(nil, 0); err != nil {
		t.Fatal(err)
	}
	wide := generate(wideGen(2), 2)[1].spec
	wide.Trials = 256
	for _, spec := range []serve.JobSpec{
		{Workload: "fredkin", K: 4, Trials: 512, Seed: 3, Policy: "wedm"},
		{Workload: "adder", K: 4, Trials: 512, Seed: 4, Policy: "best"},
		wide,
	} {
		tr := &tracer{t0: time.Now()}
		got, err := m.execute(tr, 0, spec, &layerCounts{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := svc.RunJob(ctx, &spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMerged(got, want); err != nil {
			t.Errorf("%s/%s: %v", spec.Workload, spec.Policy, err)
		}
		if _, count := tr.selfTimes(); count["core.run"] != 1 || count["backend.prepare"] != 1 {
			t.Errorf("spans %v, want one of each layer", count)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics a run prints in
// step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var workloads, e2e, layers []string
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	var want []string
	for _, m := range perLayerMetrics {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", workloads, workloadNames)
	}
	if !reflect.DeepEqual(e2e, e2eMetrics) {
		t.Errorf("BENCHMARK.json end-to-end metrics %v, benchmark reports %v", e2e, e2eMetrics)
	}
	if !reflect.DeepEqual(layers, want) {
		t.Errorf("BENCHMARK.json per-layer metrics %v, benchmark reports %v", layers, want)
	}
}

// TestServeLoopRunsWindowsInOrder drives a short stream with two clients
// through a real server: every entry must pass its checks in the window
// the stream puts it in, and the loop must finish the current window but
// stop before an advance that is due after its time is up.
func TestServeLoopRunsWindowsInOrder(t *testing.T) {
	s, err := startServer(2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	job := func(name, policy string, seed uint64) entry {
		return entry{kind: entryJob, of: -1, spec: serve.JobSpec{Workload: name, K: 4, Trials: 64, Seed: seed, Policy: policy}}
	}
	stream := []entry{
		job("fredkin", "edm", 1), job("adder", "wedm", 2), job("qaoa-5", "best", 3),
		{kind: entryRepeat, of: 1, spec: job("adder", "wedm", 2).spec},
		{kind: entryAdvance, of: -1},
		job("fredkin", "edm", 1), job("bv-6", "edm", 4),
		{kind: entryAdvance, of: -1},
		job("adder", "edm", 5),
	}
	sent, recs, heaps, _ := serveLoop(s, sliceGen(stream[:7]), 2, true, time.Minute)
	rep := newReport()
	checkServed(sent, recs, rep)
	if rep.failed != 0 || rep.attempted != 7 {
		t.Fatalf("%d of %d entries failed: %v", rep.failed, rep.attempted, rep.failures)
	}
	if len(heaps) != 2 {
		t.Errorf("%d heap samples, want one before the advance and one at the end", len(heaps))
	}
	if recs[0].res.Window != 0 || recs[5].res.Window != 1 {
		t.Errorf("windows %d and %d, want 0 and 1", recs[0].res.Window, recs[5].res.Window)
	}

	if sent, _, _, _ = serveLoop(s, sliceGen(stream), 2, true, 0); len(sent) != 4 {
		t.Errorf("%d entries sent, want 4: with no time left the loop should finish the window and stop at the advance", len(sent))
	}
	if sent, _, _, _ = serveLoop(s, sliceGen(stream), 2, false, 0); len(sent) != 0 {
		t.Errorf("%d entries sent, want none: with no time left a stream without windows stops at once", len(sent))
	}
}

// sliceGen is a generator whose stream is s.
func sliceGen(s []entry) generator {
	return func(prefix []entry) (entry, bool) {
		if len(prefix) == len(s) {
			return entry{}, false
		}
		return s[len(prefix)], true
	}
}

// TestServeLoopOutlastsAnyRate checks that a fast run never exhausts its
// stream: a loop of cheap jobs keeps taking entries until the deadline.
func TestServeLoopOutlastsAnyRate(t *testing.T) {
	s, err := startServer(1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	n := 0
	gen := func(prefix []entry) (entry, bool) {
		n++
		return entry{kind: entryJob, of: -1, spec: serve.JobSpec{Workload: "bv-6", K: 1, Trials: 1, Seed: uint64(len(prefix)), Policy: "best"}}, true
	}
	d := 300 * time.Millisecond
	t0 := time.Now()
	sent, recs, _, _ := serveLoop(s, gen, 1, false, d)
	if took := time.Since(t0); took < d || len(sent) != len(recs) || n != len(sent)+1 {
		t.Errorf("%d entries sent and %d generated in %v; want the loop to run the whole %v", len(sent), n, took, d)
	}
}
