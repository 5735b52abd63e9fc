package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"edm/internal/backend"
	"edm/internal/circuit"
	"edm/internal/core"
	"edm/internal/device"
	"edm/internal/mapper"
	"edm/internal/rng"
	"edm/internal/serve"
	"edm/internal/workloads"
)

// span is one timed call into a layer. Spans of one job share Job;
// Parent is the index of the enclosing span, -1 for a job's root.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced side of the overhead comparison
// makes the same calls.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part covered by child spans) and the number of spans.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start)
		count[s.Name]++
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= time.Duration(s.End - s.Start)
		}
	}
	return self, count
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCounts accumulates the counters read around the traced calls.
type layerCounts struct {
	jobs, members, swaps int
	trials               int64
	runWall              time.Duration
	runCPU               time.Duration

	prepHits, prepMisses, evictions uint64
	runHits, runLookups             uint64
	planBytes                       float64
	plansMeasured                   int64
	engine                          backend.EngineStats
}

// addEngine adds the delta b-a of the counters the layer metrics use.
func (c *layerCounts) addEngine(a, b backend.EngineStats) {
	e := &c.engine
	e.PlansBuilt += b.PlansBuilt - a.PlansBuilt
	e.PlanFallbacks += b.PlanFallbacks - a.PlanFallbacks
	e.FullDominantTrials += b.FullDominantTrials - a.FullDominantTrials
	e.DivergentTrials += b.DivergentTrials - a.DivergentTrials
	e.BatchUnits += b.BatchUnits - a.BatchUnits
	e.BatchTrials += b.BatchTrials - a.BatchTrials
	e.BatchLaneClones += b.BatchLaneClones - a.BatchLaneClones
	e.BatchDeferredTrials += b.BatchDeferredTrials - a.BatchDeferredTrials
	e.UnitSteals += b.UnitSteals - a.UnitSteals
}

// mirror replays Service.execute's calls, in the same order, on a
// mapper.Tracking and a run-cached backend.Machine built the way
// serve.NewService builds them, with two extra calls that split the
// layers: a zero-trial Machine.Run per member before the ensemble run
// (compile, fusion and plan build) and core.MergeWeights after it.
type mirror struct {
	cfg    serve.Config
	window int
	track  *mapper.Tracking
	mach   *backend.Machine
	life   context.Context
	// prepares numbers the zero-trial runs so each reaches the program
	// cache instead of the run cache.
	prepares int
	// measureHeap brackets each prepare with forced collections to read
	// the plan memory it retains.
	measureHeap bool
}

// windowCals derives window i's compile-time and runtime calibrations
// from a service configuration the way the service documents it.
func windowCals(cfg serve.Config, i int) (cal, runtimeCal *device.Calibration, err error) {
	topo, prof, err := device.ByName(cfg.Device)
	if err != nil {
		return nil, nil, err
	}
	root := rng.New(cfg.CalSeed)
	cal = device.Generate(topo, prof, root.DeriveN("calibration", i))
	return cal, cal.Drift(cfg.Drift, root.DeriveN("drift", i)), nil
}

func newMachine(runtimeCal *device.Calibration) *backend.Machine {
	m := backend.New(runtimeCal)
	m.EnableRunCache()
	return m
}

func newMirror(ctx context.Context, cfg serve.Config, window int) (*mirror, error) {
	cal, runtimeCal, err := windowCals(cfg, window)
	if err != nil {
		return nil, err
	}
	return &mirror{
		cfg:    cfg,
		window: window,
		track:  mapper.NewTracking(cal, mapper.RecompileChecked),
		mach:   newMachine(runtimeCal),
		life:   ctx,
	}, nil
}

// advance mirrors Service.Advance.
func (m *mirror) advance(tr *tracer, job int) error {
	m.window++
	cal, runtimeCal, err := windowCals(m.cfg, m.window)
	if err != nil {
		return err
	}
	sp := tr.begin("mapper.advance", job, -1)
	m.track.Advance(cal, m.cfg.Tol)
	tr.end(sp)
	m.mach = newMachine(runtimeCal)
	return nil
}

// weightings maps edmd's policy names to their merge weighting.
var weightings = map[string]core.Weighting{
	"edm":  core.WeightUniform,
	"wedm": core.WeightDivergence,
	"best": core.WeightUniform,
}

// execute runs one job through the layers, recording spans under tr and
// counters into c (either may be nil).
func (m *mirror) execute(tr *tracer, job int, spec serve.JobSpec, c *layerCounts) (*core.Result, error) {
	if spec.Policy == "" {
		spec.Policy = "edm"
	}
	if spec.K == 0 {
		spec.K = 4
	}
	if spec.Policy == "best" {
		spec.K = 1
	}
	root := tr.begin("job", job, -1)
	defer tr.end(root)

	var circ *circuit.Circuit
	if spec.Workload != "" {
		w, ok := workloads.ByName(spec.Workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", spec.Workload)
		}
		circ = w.Circuit
	} else {
		sp := tr.begin("circuit.parse", job, root)
		var err error
		circ, err = parseSpec(&spec)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("parse: %w", err)
		}
	}

	sp := tr.begin("mapper.topk", job, root)
	execs, err := m.track.TopKCtx(m.life, circ, spec.K)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("topk: %w", err)
	}

	var heap0 float64
	if m.measureHeap {
		heap0 = liveHeapMiB()
	}
	es0, cs0 := backend.EngineStatsSnapshot(), m.mach.CacheStats()
	sp = tr.begin("backend.prepare", job, root)
	for _, e := range execs {
		m.prepares++
		if _, err := m.mach.Run(e.Circuit, 0, rng.New(0).DeriveN("prepare", m.prepares)); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}
	tr.end(sp)
	es1, cs1 := backend.EngineStatsSnapshot(), m.mach.CacheStats()
	built := (es1.PlansBuilt - es0.PlansBuilt) + (es1.PlanFallbacks - es0.PlanFallbacks)
	if misses := int64(cs1.Misses - cs0.Misses); built != misses {
		return nil, fmt.Errorf("prepare split not confirmed: %d programs compiled but %d plans built", misses, built)
	}
	if c != nil {
		c.addEngine(es0, es1)
		c.prepHits += cs1.Hits - cs0.Hits
		c.prepMisses += cs1.Misses - cs0.Misses
		c.evictions += cs1.Evictions - cs0.Evictions
		if m.measureHeap && cs1.Misses > cs0.Misses && cs1.Evictions == cs0.Evictions {
			c.planBytes += liveHeapMiB() - heap0
			c.plansMeasured += int64(cs1.Misses - cs0.Misses)
		}
	}

	cfg := core.Config{K: spec.K, Trials: spec.Trials, Weighting: weightings[spec.Policy], UniformityFilter: spec.UniformityFilter}
	rs0, cpu0, t0 := m.mach.RunCacheStats(), cpuTime(), time.Now()
	es0 = backend.EngineStatsSnapshot()
	sp = tr.begin("core.run", job, root)
	res, err := (&core.Runner{Machine: m.mach}).RunExecutablesCtx(m.life, execs, cfg, rng.New(spec.Seed))
	tr.end(sp)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	es1, rs1 := backend.EngineStatsSnapshot(), m.mach.RunCacheStats()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}

	sp = tr.begin("core.merge", job, root)
	core.MergeWeights(res.MemberOutputs(), cfg.Weighting)
	tr.end(sp)

	if c != nil {
		c.addEngine(es0, es1)
		c.jobs++
		c.members += len(execs)
		for _, e := range execs {
			c.swaps += e.Swaps
		}
		c.trials += int64(spec.Trials)
		c.runWall += wall
		c.runCPU += cpu
		c.runHits += rs1.Hits - rs0.Hits
		c.runLookups += (rs1.Hits - rs0.Hits) + (rs1.Misses - rs0.Misses) + (rs1.Waits - rs0.Waits)
	}
	return res, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sameMerged reports whether a traced result equals a served one: the
// same outcomes with bit-identical probabilities in the same order.
func sameMerged(res *core.Result, served *serve.JobResult) error {
	sorted := res.Merged.Sorted()
	if len(sorted) != len(served.Merged) {
		return fmt.Errorf("traced %d outcomes, served %d", len(sorted), len(served.Merged))
	}
	for i, o := range sorted {
		if o.Value.String() != served.Merged[i].Outcome || o.P != served.Merged[i].P {
			return fmt.Errorf("outcome %d: traced %s %v, served %s %v",
				i, o.Value.String(), o.P, served.Merged[i].Outcome, served.Merged[i].P)
		}
	}
	if len(res.Members) != len(served.Members) {
		return fmt.Errorf("traced %d members, served %d", len(res.Members), len(served.Members))
	}
	return nil
}

// overheadSamples is how many traced jobs are also run, on fresh layers,
// once traced and once untraced to measure the tracing overhead.
const overheadSamples = 3

// runServingTraced is the traced run of a serving workload. The first
// half of the time serves the stream exactly as the untraced run does,
// which yields the serve-layer counters and the served results; the
// service is then released, and every served job is replayed one at a
// time through a mirror with spans around each layer call. Each traced
// result must equal the served one. Replay alone is in flight, so the
// process-global engine counters' deltas belong to the traced call.
func runServingTraced(w servingWorkload, s *server, release func(), gen generator, d time.Duration, rep *report) error {
	tier0, adm0 := s.svc.TierStats(), s.svc.Admission().Stats()
	half := d / 2
	if half < time.Second {
		half = time.Second
	}
	stream, recs, _, _ := serveLoop(s, gen, w.clients, w.windows, half)
	tier1, adm1 := s.svc.TierStats(), s.svc.Admission().Stats()
	cfg := s.cfg
	release()
	checkServed(stream, recs, rep)

	var hits []float64
	for i := range recs {
		e := &stream[i]
		if e.kind != entryRepeat || recs[i].res == nil || windowOf(stream, e.of) != windowOf(stream, i) {
			continue
		}
		if recs[e.of].end.Before(recs[i].start) {
			hits = append(hits, float64(recs[i].latency().Nanoseconds())/1e6)
		}
	}
	tierLookups := (tier1.Hits - tier0.Hits) + (tier1.Misses - tier0.Misses) + (tier1.Waits - tier0.Waits)
	hitMS := 0.0
	if len(hits) > 0 {
		hitMS = median(hits)
	}
	rep.set("serve.hit_ms", hitMS, "ms")
	rep.set("serve.tier_hit_ratio", ratio(float64(tier1.Hits-tier0.Hits), float64(tierLookups)), "ratio")
	rep.set("serve.tier_waits", float64(tier1.Waits-tier0.Waits), "count")
	rep.set("serve.admission_rejected", float64(adm1.Rejected-adm0.Rejected), "count")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := newMirror(ctx, cfg, 0)
	if err != nil {
		return err
	}
	// The served run's set-up warmed its pools, programs and plans with
	// the workload's warm-up jobs; the mirror starts from the same state.
	for _, spec := range w.warmup() {
		if _, err := m.execute(nil, -1, spec, nil); err != nil {
			return fmt.Errorf("traced warm-up: %w", err)
		}
	}
	m.measureHeap = true
	tr := &tracer{t0: time.Now()}
	var c layerCounts
	var tracedOH, untracedOH time.Duration
	samples := 0
	// rebuilt is the prepare time of jobs that recompiled programs after
	// an advance: the cost advances force, which the stream keeps under
	// a tenth of the replay.
	var rebuilt time.Duration
	advanced := false
	for i := range recs {
		e := &stream[i]
		switch {
		case e.kind == entryAdvance:
			if err := m.advance(tr, i); err != nil {
				return err
			}
			advanced = true
			continue
		case e.kind == entryRepeat && windowOf(stream, e.of) == windowOf(stream, i):
			continue // a tier hit: Service.execute never runs
		case recs[i].res == nil:
			continue // already counted as failed
		}
		rep.attempted++
		misses, first := c.prepMisses, len(tr.spans)
		res, err := m.execute(tr, i, e.spec, &c)
		if err != nil {
			return fmt.Errorf("traced entry %d: %w", i, err)
		}
		if advanced && c.prepMisses > misses {
			for _, sp := range tr.spans[first:] {
				if sp.Name == "backend.prepare" {
					rebuilt += time.Duration(sp.End - sp.Start)
				}
			}
		}
		if err := sameMerged(res, recs[i].res); err != nil {
			rep.fail("traced entry %d differs from the served job: %v", i, err)
		}
		if samples < overheadSamples {
			tt, ut, err := tracingOverhead(ctx, cfg, m.window, e.spec, samples%2 == 0)
			if err != nil {
				return err
			}
			tracedOH += tt
			untracedOH += ut
			samples++
		}
	}
	if c.jobs == 0 {
		return errNoWork
	}

	self, count := tr.selfTimes()
	perJob := func(name string) float64 {
		return float64(self[name].Nanoseconds()) / 1e6 / float64(c.jobs)
	}
	perCall := func(name string) float64 {
		return ratio(float64(self[name].Nanoseconds())/1e6, float64(count[name]))
	}
	pool := m.track.PoolStats()
	e := c.engine
	procs := float64(runtime.GOMAXPROCS(0))
	rep.set("circuit.parse_ms", perCall("circuit.parse"), "ms")
	rep.set("mapper.topk_ms", perJob("mapper.topk"), "ms")
	rep.set("mapper.pool_hit_ratio", ratio(float64(pool.Hits), float64(pool.Hits+pool.Misses+pool.Waits)), "ratio")
	rep.set("mapper.swaps_per_member", ratio(float64(c.swaps), float64(c.members)), "count")
	rep.set("mapper.advance_ms", perCall("mapper.advance"), "ms")
	rep.set("mapper.recompile_survival", m.track.Stats().Survival(), "ratio")
	rep.set("backend.prepare_ms", perJob("backend.prepare"), "ms")
	rep.set("backend.plan_mib", ratio(c.planBytes, float64(c.plansMeasured)), "MiB")
	rep.set("backend.prog_hit_ratio", ratio(float64(c.prepHits), float64(c.prepHits+c.prepMisses)), "ratio")
	rep.set("backend.prog_evictions", float64(c.evictions), "count")
	rep.set("backend.run_hit_ratio", ratio(float64(c.runHits), float64(c.runLookups)), "ratio")
	rep.set("backend.divergent_ratio", ratio(float64(e.DivergentTrials), float64(e.DivergentTrials+e.FullDominantTrials)), "ratio")
	rep.set("backend.mean_batch", ratio(float64(e.BatchTrials), float64(e.BatchUnits)), "count")
	rep.set("backend.lane_clones_per_trial", ratio(float64(e.BatchLaneClones), float64(e.BatchTrials)), "ratio")
	rep.set("backend.deferred_ratio", ratio(float64(e.BatchDeferredTrials), float64(e.BatchTrials)), "ratio")
	rep.set("backend.steals_per_job", float64(e.UnitSteals)/float64(c.jobs), "count")
	rep.set("backend.plan_fallbacks", float64(e.PlanFallbacks), "count")
	rep.set("core.run_ms", perJob("core.run"), "ms")
	rep.set("core.trials_per_s", ratio(float64(c.trials), c.runWall.Seconds()), "1/s")
	rep.set("core.run_utilization", ratio(c.runCPU.Seconds(), c.runWall.Seconds()*procs), "ratio")
	rep.set("core.merge_ms", perJob("core.merge"), "ms")
	rep.set("trace.overhead_ratio", ratio(tracedOH.Seconds(), untracedOH.Seconds()), "ratio")

	rep.note("# traced %s: %d jobs replayed, %d advances, %d tier hits timed, job self time %.3g ms per job (bookkeeping and heap probes)",
		w.name, c.jobs, count["mapper.advance"], len(hits), perJob("job"))
	rep.note("# traced result equals served result for every replayed job unless a failure is listed")
	rep.note("# programs rebuilt after advances: %.3g ms of prepare, %.2g%% of the %.3g s replay",
		float64(rebuilt.Nanoseconds())/1e6, 100*rebuilt.Seconds()/time.Since(tr.t0).Seconds(), time.Since(tr.t0).Seconds())
	writeSpans(tr, w.name, rep)
	return nil
}

// tracingOverhead runs one job twice on fresh layers at the same window,
// once with spans and heap probes and once without, alternating which
// goes first, and returns both wall times.
func tracingOverhead(ctx context.Context, cfg serve.Config, window int, spec serve.JobSpec, tracedFirst bool) (traced, untraced time.Duration, err error) {
	runOnce := func(withTrace bool) (time.Duration, error) {
		m, err := newMirror(ctx, cfg, window)
		if err != nil {
			return 0, err
		}
		var tr *tracer
		var c *layerCounts
		if withTrace {
			tr, c = &tracer{t0: time.Now()}, &layerCounts{}
			m.measureHeap = true
		}
		t0 := time.Now()
		_, err = m.execute(tr, 0, spec, c)
		return time.Since(t0), err
	}
	for _, withTrace := range []bool{tracedFirst, !tracedFirst} {
		t, err := runOnce(withTrace)
		if err != nil {
			return 0, 0, err
		}
		if withTrace {
			traced = t
		} else {
			untraced = t
		}
	}
	return traced, untraced, nil
}

// writeSpans saves the run's spans under .bench_build in the working
// directory; a write failure is reported but does not fail the run.
func writeSpans(tr *tracer, name string, rep *report) {
	path := filepath.Join(".bench_build", "spans", name+".jsonl")
	if err := tr.write(path); err != nil {
		rep.note("# spans not written: %v", err)
		return
	}
	rep.note("# %d spans written to %s", len(tr.spans), path)
}
