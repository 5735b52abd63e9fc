package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"edm/internal/bitstr"
	"edm/internal/circuit"
	"edm/internal/dist"
	"edm/internal/mapper"
	"edm/internal/rng"
	"edm/internal/serve"
	"edm/internal/workloads"
)

// servingWorkload is a closed-loop edmd workload: clients goroutines each
// send their next request only after the previous response has been read.
type servingWorkload struct {
	name    string
	clients int
	gen     func(seed uint64) generator
	// windows marks a stream with advances, whose runs end on a window
	// boundary (see serveLoop).
	windows bool
	// warmup returns the untimed jobs set-up sends, none of which the
	// stream contains.
	warmup func() []serve.JobSpec
	// recheck is how many served jobs are re-run on a fresh service.
	recheck int
}

var (
	paperJobs = servingWorkload{
		name: "paper-jobs", clients: 2, gen: paperGen, windows: true,
		warmup: paperWarmup, recheck: 6,
	}
	wideFresh = servingWorkload{
		name: "wide-fresh", clients: 1, gen: wideGen,
		warmup: wideWarmup, recheck: 3,
	}
)

// Warm-up jobs are the same for every seed, so set-up time does not
// depend on the seed.

// paperWarmup sends every Table-1 workload once with a small trial budget,
// so TopK pools, programs and plans are warm before timing starts.
func paperWarmup() []serve.JobSpec {
	var out []serve.JobSpec
	for _, w := range workloads.All() {
		out = append(out, serve.JobSpec{Workload: w.Name, K: paperK, Trials: 64, Seed: 1, Tenant: "warmup"})
	}
	return out
}

// wideWarmup sends one wide circuit the stream never contains, so the
// timed phase starts with the code paths paged in but no plan reusable.
func wideWarmup() []serve.JobSpec {
	c := wideCircuit(rng.New(0).Derive("wide-warmup"))
	return []serve.JobSpec{{Circuit: c.Text(), K: wideK, Trials: 64, Seed: 1, Tenant: "warmup"}}
}

// server is one in-process edmd: a service behind serve.NewServer's
// handler on a loopback listener, and the client that drives it.
type server struct {
	cfg    serve.Config
	svc    *serve.Service
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// startServer builds a service with edmd's default configuration and
// serves it on 127.0.0.1 with at most conns client connections.
func startServer(conns int) (*server, error) {
	cfg := serve.DefaultConfig()
	svc, err := serve.NewService(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		cfg:    cfg,
		svc:    svc,
		hs:     &http.Server{Handler: serve.NewServer(svc).Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the HTTP server down, waits for its serve loop to return
// and stops the service.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here leaves only idle goroutines
	<-s.served
	s.client.CloseIdleConnections()
	s.svc.Close()
}

// post sends one request body and reads the whole response.
func (s *server) post(path string, body []byte) (status int, resp []byte, err error) {
	r, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, resp, err
}

// postJob sends a job and decodes a 200 response.
func (s *server) postJob(spec *serve.JobSpec) (*serve.JobResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	status, resp, err := s.post("/v1/jobs", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(resp))
	}
	res := new(serve.JobResult)
	if err := json.Unmarshal(resp, res); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	return res, nil
}

// heapEvery is how many entries a one-client loop serves between live-heap
// samples.
const heapEvery = 8

// served is the record of one stream entry's request.
type served struct {
	start, end time.Time
	status     int
	body       []byte
	err        error
	// res is the decoded result of a job that passed every check.
	res *serve.JobResult
}

func (r *served) latency() time.Duration { return r.end.Sub(r.start) }

// serveLoop drives gen's stream through s with clients goroutines, which
// take entries in order from a shared cursor; it returns the entries
// sent, their records, live-heap samples and the wall time of the loop.
// An advance is a barrier: it waits for every earlier entry, and later
// entries wait for it, so entry i always runs in window windowOf(i). A
// stream with windows runs whole windows: the loop stops at the first
// advance due after d, so every run ends with the same cache state.
// Without them it stops taking entries once d has passed.
//
// heaps are live-heap samples, each after a forced collection while no
// request is in flight: before each advance, every heapEvery entries of
// a one-client loop, and once at the end. The time the samples take is
// not part of wall.
func serveLoop(s *server, gen generator, clients int, windows bool, d time.Duration) (stream []entry, recs []served, heaps []float64, wall time.Duration) {
	// task is an entry handed to a client, with the completions it must
	// wait for first.
	type task struct {
		i     int
		e     entry
		rec   *served
		done  chan struct{}
		after []chan struct{}
	}
	var (
		mu          sync.Mutex
		all         []*served
		done        []chan struct{}
		lastAdvance = -1 // index of the latest advance taken
		ended       bool
		probes      time.Duration
	)
	sampleHeap := func() {
		t0 := time.Now()
		h := liveHeapMiB()
		mu.Lock()
		heaps = append(heaps, h)
		probes += time.Since(t0)
		mu.Unlock()
	}
	start := time.Now()
	deadline := start.Add(d)
	// take hands out the next entry, or false once the loop has stopped.
	take := func() (task, bool) {
		mu.Lock()
		defer mu.Unlock()
		if ended {
			return task{}, false
		}
		e, ok := gen(stream)
		if !ok || time.Now().After(deadline) && (!windows || e.kind == entryAdvance) {
			ended = true
			return task{}, false
		}
		t := task{i: len(stream), e: e, rec: new(served), done: make(chan struct{})}
		switch {
		case e.kind == entryAdvance:
			t.after = append(t.after, done[lastAdvance+1:]...)
			lastAdvance = t.i
		case lastAdvance >= 0:
			t.after = []chan struct{}{done[lastAdvance]}
		}
		stream = append(stream, e)
		all = append(all, t.rec)
		done = append(done, t.done)
		return t, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, ok := take()
				if !ok {
					return
				}
				for _, ch := range t.after {
					<-ch
				}
				if t.e.kind == entryAdvance {
					sampleHeap()
				}
				rec := t.rec
				var body []byte
				path := "/v1/advance"
				if t.e.kind != entryAdvance {
					path = "/v1/jobs"
					body, rec.err = json.Marshal(&t.e.spec)
				}
				rec.start = time.Now()
				if rec.err == nil {
					rec.status, rec.body, rec.err = s.post(path, body)
				}
				rec.end = time.Now()
				close(t.done)
				if clients == 1 && (t.i+1)%heapEvery == 0 {
					sampleHeap()
				}
			}
		}()
	}
	wg.Wait()
	wall = time.Since(start) - probes
	sampleHeap()
	recs = make([]served, len(all))
	for i, r := range all {
		recs[i] = *r
	}
	return stream, recs, heaps, wall
}

// windowOf returns the service window entry i runs in: the number of
// advances before it.
func windowOf(stream []entry, i int) int {
	w := 0
	for j := 0; j < i; j++ {
		if stream[j].kind == entryAdvance {
			w++
		}
	}
	return w
}

// checkServed decodes and checks every sent entry, recording failures.
// A served job must return 200 with a decodable result whose merged
// probabilities sum to 1 within 1e-9, whose outcomes are NumClbits wide,
// which has K members (1 under best) and which ran in the entry's
// window. A repeat served in its original's window must match it byte
// for byte.
func checkServed(stream []entry, recs []served, rep *report) {
	for i := range recs {
		rec := &recs[i]
		rep.attempted++
		e := &stream[i]
		if err := checkOne(stream, i, rec); err != nil {
			rep.fail("entry %d: %v", i, err)
			rec.res = nil
			continue
		}
		if e.kind == entryRepeat && windowOf(stream, e.of) == windowOf(stream, i) {
			orig := recs[e.of].res
			if orig != nil && orig.Text() != rec.res.Text() {
				rep.fail("entry %d: repeat of entry %d served different bytes", i, e.of)
			}
		}
	}
}

func checkOne(stream []entry, i int, rec *served) error {
	if rec.err != nil {
		return rec.err
	}
	if rec.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.status, bytes.TrimSpace(rec.body))
	}
	e := &stream[i]
	if e.kind == entryAdvance {
		var adv struct{ Window int }
		if err := json.Unmarshal(rec.body, &adv); err != nil {
			return fmt.Errorf("decode advance: %w", err)
		}
		if adv.Window != windowOf(stream, i)+1 {
			return fmt.Errorf("advance moved to window %d, want %d", adv.Window, windowOf(stream, i)+1)
		}
		return nil
	}
	res := new(serve.JobResult)
	if err := json.Unmarshal(rec.body, res); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	clbits, err := numClbits(&e.spec)
	if err != nil {
		return err
	}
	sum := 0.0
	for _, o := range res.Merged {
		if len(o.Outcome) != clbits {
			return fmt.Errorf("outcome %q is not %d bits wide", o.Outcome, clbits)
		}
		sum += o.P
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("merged probabilities sum to %.17g", sum)
	}
	wantK := e.spec.K
	if e.spec.Policy == "best" {
		wantK = 1
	}
	if len(res.Members) != wantK {
		return fmt.Errorf("%d members, want %d", len(res.Members), wantK)
	}
	if res.Window != windowOf(stream, i) {
		return fmt.Errorf("served at window %d, want %d", res.Window, windowOf(stream, i))
	}
	rec.res = res
	return nil
}

// numClbits returns the classical width of a spec's circuit.
func numClbits(spec *serve.JobSpec) (int, error) {
	if spec.Workload != "" {
		w, ok := workloads.ByName(spec.Workload)
		if !ok {
			return 0, fmt.Errorf("unknown workload %q", spec.Workload)
		}
		return w.Circuit.NumClbits, nil
	}
	c, err := parseSpec(spec)
	if err != nil {
		return 0, err
	}
	return c.NumClbits, nil
}

// parseSpec parses an inline spec's circuit the way edmd does.
func parseSpec(spec *serve.JobSpec) (*circuit.Circuit, error) {
	if spec.Format == "qasm" {
		return circuit.ParseQASM(spec.Circuit)
	}
	return circuit.ParseText(spec.Circuit)
}

// recheck re-runs up to n served jobs, evenly spaced over those that
// passed their checks, on a fresh in-process service at the window each
// was served in, and requires byte-identical Text().
func recheck(stream []entry, recs []served, n int, rep *report) error {
	var ok []int
	for i := range recs {
		if stream[i].kind == entryJob && recs[i].res != nil {
			ok = append(ok, i)
		}
	}
	if len(ok) < n {
		n = len(ok)
	}
	fresh := map[int]*serve.Service{}
	defer func() {
		for _, svc := range fresh {
			svc.Close()
		}
	}()
	for j := 0; j < n; j++ {
		i := ok[j*len(ok)/n]
		res := recs[i].res
		svc := fresh[res.Window]
		if svc == nil {
			cfg := serve.DefaultConfig()
			cfg.Window = res.Window
			var err error
			if svc, err = serve.NewService(cfg); err != nil {
				return err
			}
			fresh[res.Window] = svc
		}
		rep.attempted++
		spec := stream[i].spec
		again, err := svc.RunJob(context.Background(), &spec)
		switch {
		case err != nil:
			rep.fail("re-run of entry %d: %v", i, err)
		case again.Text() != res.Text():
			rep.fail("re-run of entry %d on a fresh service served different bytes", i)
		}
	}
	return nil
}

// setupServing starts a server and sends the workload's warm-up jobs.
func setupServing(w servingWorkload) (*server, error) {
	s, err := startServer(w.clients)
	if err != nil {
		return nil, err
	}
	for _, spec := range w.warmup() {
		spec := spec
		if _, err := s.postJob(&spec); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return s, nil
}

// runServing runs a serving workload: set-up, then either the untimed
// closed loop with end-to-end metrics, or the traced run.
func runServing(w servingWorkload, seed uint64, d time.Duration, traced bool, rep *report) error {
	var s *server
	setupS, release, err := timeSetups(func() (func(), error) {
		// Every set-up starts cold: no compiler survives from an
		// earlier one.
		mapper.ResetCompilerCache()
		var err error
		s, err = setupServing(w)
		if err != nil {
			return nil, err
		}
		return s.close, nil
	})
	if err != nil {
		return err
	}
	if traced {
		return runServingTraced(w, s, release, w.gen(seed), d, rep)
	}
	defer release()

	stream, recs, heaps, wall := serveLoop(s, w.gen(seed), w.clients, w.windows, d)
	checkServed(stream, recs, rep)
	var lat []float64
	for i := range recs {
		if recs[i].res != nil {
			lat = append(lat, float64(recs[i].latency().Nanoseconds())/1e6)
		}
	}
	if len(lat) == 0 {
		if rep.failed > 0 {
			return nil // every job failed a check; the failures are the result
		}
		return errNoWork
	}
	if err := recheck(stream, recs, w.recheck, rep); err != nil {
		return err
	}

	rep.set("setup_s", setupS, "s")
	rep.set("heap_retained_mib", median(heaps), "MiB")
	rep.note("# %s: %d clients, closed loop, %d jobs completed in %.2f s, ending in window %d",
		w.name, w.clients, len(lat), wall.Seconds(), windowOf(stream, len(stream)))
	rep.note("setup_s %.6g s (median of n=%d set-ups)", setupS, setupReps)
	rep.note("heap_retained_mib %.6g MiB (median of n=%d samples)", median(heaps), len(heaps))
	rep.note("job_p50_ms %.6g ms (n=%d)", quantile(lat, 0.5), len(lat))
	if len(lat) >= 100 {
		rep.note("job_p90_ms %.6g ms (n=%d)", quantile(lat, 0.9), len(lat))
	} else {
		rep.note("job_p90_ms not reported: %d jobs, fewer than 100", len(lat))
	}
	rep.note("jobs_per_s %.6g 1/s (%d jobs in %.2f s)", float64(len(lat))/wall.Seconds(), len(lat), wall.Seconds())
	if w.name == paperJobs.name {
		noteIST(stream, recs, rep)
	}
	return nil
}

// noteIST reports ist_median, the median IST of the first 27 Table-1 jobs
// (each workload under each policy once) against the workload's golden
// output, and edm_ist_gain, the geometric mean over workloads of the edm
// job's IST over the best job's. Both repeat exactly for a seed.
func noteIST(stream []entry, recs []served, rep *report) {
	const first = 27
	var ists []float64
	byPolicy := map[string]map[string]float64{}
	n := 0
	for i := range stream {
		if !stream[i].table1 || n == first {
			continue
		}
		n++
		res := recs[i].res
		if res == nil {
			return // a failed job, already counted
		}
		w, _ := workloads.ByName(res.Workload)
		ist, err := servedIST(res, w.Correct)
		if err != nil {
			rep.fail("entry %d: %v", i, err)
			return
		}
		ists = append(ists, ist)
		if byPolicy[res.Policy] == nil {
			byPolicy[res.Policy] = map[string]float64{}
		}
		byPolicy[res.Policy][res.Workload] = ist
	}
	if len(ists) < first {
		rep.note("ist_median not reported: %d of the first %d Table-1 jobs served", len(ists), first)
		return
	}
	logSum := 0.0
	for _, w := range workloads.All() {
		logSum += math.Log(byPolicy["edm"][w.Name] / byPolicy["best"][w.Name])
	}
	rep.note("ist_median %.6g ratio (n=%d)", median(ists), len(ists))
	rep.note("edm_ist_gain %.6g ratio (edm over best, geometric mean of %d workloads)",
		math.Exp(logSum/float64(len(workloads.All()))), len(workloads.All()))
}

// servedIST is the inference strength of a served distribution.
func servedIST(res *serve.JobResult, correct bitstr.BitString) (float64, error) {
	m := make(map[string]float64, len(res.Merged))
	for _, o := range res.Merged {
		m[o.Outcome] = o.P
	}
	d, err := dist.FromMap(m)
	if err != nil {
		return 0, fmt.Errorf("served distribution: %w", err)
	}
	return d.IST(correct), nil
}
