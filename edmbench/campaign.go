package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"edm/internal/experiment"
	"edm/internal/mapper"
	"edm/internal/rng"
)

// campaignSeed derives the Setup.Seed of a run's i-th campaign from the
// seed argument. Campaign time depends on the calibration a seed draws
// (about ±10%), so every campaign of a run uses its own seed, which keeps
// that out of the run-to-run spread.
func campaignSeed(seed uint64, i int) uint64 {
	return rng.New(seed).DeriveN("campaign-quick", i).Uint64()
}

// campaignRows is one campaign's output.
type campaignRows struct{ fig9, fig11 []experiment.PolicyRow }

// checkRows requires every row to carry a finite positive EDM and
// baseline IST.
func checkRows(rows campaignRows) error {
	for _, fig := range [][]experiment.PolicyRow{rows.fig9, rows.fig11} {
		if len(fig) != 9 {
			return fmt.Errorf("%d rows, want 9", len(fig))
		}
		for _, r := range fig {
			for _, v := range []float64{r.EDMIST, r.BaselineIST} {
				if !(v > 0) || math.IsInf(v, 0) {
					return fmt.Errorf("%s: IST %v", r.Workload, v)
				}
			}
		}
	}
	return nil
}

// runCampaign runs campaign-quick: experiment.Fig9 then experiment.Fig11 at
// Quick() scale from cold campaign caches, each campaign with a seed of
// its own, until the time is up; a last campaign repeats the first seed
// and must reproduce its rows exactly.
func runCampaign(seed uint64, d time.Duration, traced bool, rep *report) error {
	setupFor := func(i int) experiment.Setup {
		st := experiment.Quick()
		st.Seed = campaignSeed(seed, i)
		return st
	}
	// Set-up is an untimed warm-up: one Fig9 round at a small trial
	// budget pages in the compiler and the backend; the reset then
	// leaves every campaign cache cold.
	setupS, _, err := timeSetups(func() (func(), error) {
		warm := experiment.Quick()
		warm.Seed, warm.Rounds, warm.Trials = 0, 1, 256
		experiment.Fig9(warm)
		experiment.ResetCampaignCaches()
		return func() {}, nil
	})
	if err != nil {
		return err
	}

	var tr *tracer
	if traced {
		tr = &tracer{t0: time.Now()}
	}
	// campaign runs and checks campaign i with seed index si, traced or
	// not. A seed index seen before must reproduce its rows exactly.
	firstRows := map[int]*campaignRows{}
	var times, heaps, fig9s, fig11s, on, off []float64 // seconds, MiB
	var roundHits, roundLookups, runHits, runLookups, topkHits, topkLookups uint64
	campaign := func(i, si int, withTrace bool) {
		st := setupFor(si)
		var ctr *tracer
		if withTrace {
			ctr = tr
		}
		experiment.ResetCampaignCaches()
		r0, k0 := experiment.RoundCacheStats(), mapper.TopKCacheStats()
		t0 := time.Now()
		sp := ctr.begin("experiment.fig9", i, -1)
		rows := campaignRows{fig9: experiment.Fig9(st)}
		ctr.end(sp)
		t1 := time.Now()
		sp = ctr.begin("experiment.fig11", i, -1)
		rows.fig11 = experiment.Fig11(st)
		ctr.end(sp)
		t2 := time.Now()
		r1, k1 := experiment.RoundCacheStats(), mapper.TopKCacheStats()
		_, runs := experiment.BackendCacheStats()
		heaps = append(heaps, liveHeapMiB())

		rep.attempted++
		times = append(times, t2.Sub(t0).Seconds())
		switch {
		case ctr != nil:
			on = append(on, t2.Sub(t0).Seconds())
			fig9s = append(fig9s, t1.Sub(t0).Seconds())
			fig11s = append(fig11s, t2.Sub(t1).Seconds())
			roundHits += r1.Hits - r0.Hits
			roundLookups += (r1.Hits - r0.Hits) + (r1.Misses - r0.Misses) + (r1.Waits - r0.Waits)
			topkHits += k1.Hits - k0.Hits
			topkLookups += (k1.Hits - k0.Hits) + (k1.Misses - k0.Misses) + (k1.Waits - k0.Waits)
			runHits += runs.Hits
			runLookups += runs.Hits + runs.Misses + runs.Waits
		case traced:
			off = append(off, t2.Sub(t0).Seconds())
		}

		if err := checkRows(rows); err != nil {
			rep.fail("campaign %d (seed %d): %v", i, st.Seed, err)
			return
		}
		if prev := firstRows[si]; prev == nil {
			firstRows[si] = &rows
		} else if !reflect.DeepEqual(*prev, rows) {
			rep.fail("campaign %d: seed %d gave different Fig9/Fig11 rows on a repeat", i, st.Seed)
		}
	}
	start := time.Now()
	if traced {
		// Each seed runs twice, traced and untraced in alternating
		// order, so the overhead ratio compares the same campaigns.
		for i := 0; i%2 == 1 || time.Since(start) < d; i++ {
			si := i / 2
			campaign(i, si, (i%2 == 0) != (si%2 == 1))
		}
		rep.set("experiment.fig9_s", median(fig9s), "s")
		rep.set("experiment.fig11_s", median(fig11s), "s")
		rep.set("experiment.round_hit_ratio", ratio(float64(roundHits), float64(roundLookups)), "ratio")
		rep.set("experiment.run_hit_ratio", ratio(float64(runHits), float64(runLookups)), "ratio")
		rep.set("mapper.topk_cache_hit_ratio", ratio(float64(topkHits), float64(topkLookups)), "ratio")
		rep.set("trace.overhead_ratio", ratio(sum(on), sum(off)), "ratio")
		rep.note("# traced campaign-quick: %d campaigns, %d traced", len(times), len(fig9s))
		writeSpans(tr, "campaign-quick", rep)
		return nil
	}

	n := 0
	for ; n < 2 || time.Since(start) < d; n++ {
		campaign(n, n, false)
	}
	campaign(n, 0, false)
	wall := time.Since(start)

	p50 := median(times)
	rep.set("setup_s", setupS, "s")
	rep.set("heap_retained_mib", median(heaps), "MiB")
	rep.note("# campaign-quick: in process, %d campaigns over %d seeds in %.2f s", len(times), n, wall.Seconds())
	rep.note("setup_s %.6g s (median of n=%d set-ups)", setupS, setupReps)
	rep.note("heap_retained_mib %.6g MiB (median of n=%d samples)", median(heaps), len(heaps))
	rep.note("campaign_s %.6g s (median of n=%d)", p50, len(times))
	rep.note("job_p50_ms %.6g ms (one campaign, n=%d)", p50*1000, len(times))
	rep.note("jobs_per_s %.6g 1/s (%d campaigns in %.2f s)", float64(len(times))/wall.Seconds(), len(times), wall.Seconds())
	if rows := firstRows[0]; rows != nil {
		var ists []float64
		logSum := 0.0
		for _, r := range rows.fig9 {
			ists = append(ists, r.EDMIST)
			logSum += math.Log(r.EDMIST / r.BaselineIST)
		}
		rep.note("ist_median %.6g ratio (Fig9 EDM, first seed, n=%d)", median(ists), len(ists))
		rep.note("edm_ist_gain %.6g ratio (Fig9 EDM over baseline, geometric mean of %d workloads)",
			math.Exp(logSum/float64(len(rows.fig9))), len(rows.fig9))
	}
	return nil
}
