// Command edmbench is the repository's end-to-end benchmark. It drives one
// workload through the shipped public entry points (the edmd HTTP handler
// and the experiment campaign), checks every output, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//	go run . --workload paper-jobs --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 a separate traced run replays the workload one job at a
// time through the same layer calls edmd makes and reports per-layer
// metrics. The exit code is non-zero when any output check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// memoryLimit caps the benchmark process's heap target. wide-fresh
// retains about 1.2 GiB of plans once the program cache is full; the cap
// keeps its garbage from growing the heap to twice that on a small box.
const memoryLimit = 3 << 30

// setupReps is how many times a run builds its workload's set-up; setup_s
// is their median and the last one is measured.
const setupReps = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's outcome. Metrics go to the final JSON line;
// notes are printed above it for readers only (metrics that apply to one
// workload, sample counts, spreads).
type report struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
	notes     []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed attempt and keeps its reason for standard error.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// e2eMetrics are the end-to-end metrics every workload reports with
// --trace 0; perLayerMetrics are the per-layer ones of --trace 1, with a
// layer a workload does not exercise reported as 0. Both lists match
// BENCHMARK.json. The timing metrics job_p50_ms, job_p90_ms, jobs_per_s
// and campaign_s, and the quality metrics, are printed above the JSON
// line but not gated: on a machine whose speed drifts between runs,
// their medians move by more than any usable bound.
var (
	e2eMetrics = []string{"setup_s", "heap_retained_mib"}

	perLayerMetrics = []struct{ name, unit string }{
		{"circuit.parse_ms", "ms"},
		{"mapper.topk_ms", "ms"},
		{"mapper.pool_hit_ratio", "ratio"},
		{"mapper.swaps_per_member", "count"},
		{"mapper.advance_ms", "ms"},
		{"mapper.recompile_survival", "ratio"},
		{"backend.prepare_ms", "ms"},
		{"backend.plan_mib", "MiB"},
		{"backend.prog_hit_ratio", "ratio"},
		{"backend.prog_evictions", "count"},
		{"backend.run_hit_ratio", "ratio"},
		{"backend.divergent_ratio", "ratio"},
		{"backend.mean_batch", "count"},
		{"backend.lane_clones_per_trial", "ratio"},
		{"backend.deferred_ratio", "ratio"},
		{"backend.steals_per_job", "count"},
		{"backend.plan_fallbacks", "count"},
		{"core.run_ms", "ms"},
		{"core.trials_per_s", "1/s"},
		{"core.run_utilization", "ratio"},
		{"core.merge_ms", "ms"},
		{"serve.hit_ms", "ms"},
		{"serve.tier_hit_ratio", "ratio"},
		{"serve.tier_waits", "count"},
		{"serve.admission_rejected", "count"},
		{"experiment.fig9_s", "s"},
		{"experiment.fig11_s", "s"},
		{"experiment.round_hit_ratio", "ratio"},
		{"experiment.run_hit_ratio", "ratio"},
		{"mapper.topk_cache_hit_ratio", "ratio"},
		{"trace.overhead_ratio", "ratio"},
	}
)

// workloadNames lists the workloads --workload accepts.
var workloadNames = []string{"paper-jobs", "wide-fresh", "campaign-quick"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 25, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "edmbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	debug.SetMemoryLimit(memoryLimit)

	fmt.Fprintf(stdout, "# edmbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# go=%s gomaxprocs=%d nproc=%d cpu=%q\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())

	rep := newReport()
	dur := time.Duration(*seconds) * time.Second
	traced := *trace == 1
	var err error
	switch *name {
	case "paper-jobs":
		err = runServing(paperJobs, *seed, dur, traced, rep)
	case "wide-fresh":
		err = runServing(wideFresh, *seed, dur, traced, rep)
	case "campaign-quick":
		err = runCampaign(*seed, dur, traced, rep)
	default:
		err = fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		fmt.Fprintf(stderr, "edmbench: %v\n", err)
		return 1
	}
	if traced {
		for _, m := range perLayerMetrics {
			if _, ok := rep.metrics[m.name]; !ok {
				rep.set(m.name, 0, m.unit)
			}
		}
	} else if rep.failed == 0 {
		for _, m := range e2eMetrics {
			if _, ok := rep.metrics[m]; !ok {
				fmt.Fprintf(stderr, "edmbench: %s measured no %s\n", *name, m)
				return 1
			}
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		fmt.Fprintf(stdout, "# peak RSS %.0f MiB\n", float64(ru.Maxrss)/1024)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "edmbench: check failed: %s\n", f)
	}
	if rep.attempted < 1 {
		fmt.Fprintln(stderr, "edmbench: nothing was attempted")
		return 1
	}
	fmt.Fprintf(stdout, "fail_ratio %.6g ratio (%d of %d)\n", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted)
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%s %.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	out, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "edmbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// errNoWork reports a timed phase that completed nothing to measure.
var errNoWork = errors.New("timed phase completed no work")

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is num/den, or 0 when den is 0 (a layer that saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeSetups builds a workload's set-up setupReps times through build,
// which returns a release function for its set-up, and returns the median
// set-up time. Every set-up but the last is released; the caller owns
// the last one, whose release is returned. Each starts after a forced
// collection, so none pays for an earlier one's garbage.
func timeSetups(build func() (release func(), err error)) (setupS float64, release func(), err error) {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if release != nil {
			release()
		}
		runtime.GC()
		t0 := time.Now()
		release, err = build()
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), release, nil
}
