package main

import (
	"fmt"

	"edm/internal/circuit"
	"edm/internal/rng"
	"edm/internal/serve"
	"edm/internal/workloads"
)

// Every job the benchmark sends is a pure function of the seed argument:
// a stream's generator yields entry i from the seed and the entries before
// it, and clients only pick entries off a shared cursor, so which client
// sends an entry depends on timing but the entry itself never does.
// Streams are unbounded, so a faster program never runs out of work.

// entryKind discriminates job-stream entries.
type entryKind uint8

const (
	entryJob     entryKind = iota // a never-sent job
	entryRepeat                   // an earlier job resent by the other tenant
	entryAdvance                  // POST /v1/advance
)

// entry is one request of a serving workload's stream.
type entry struct {
	kind entryKind
	spec serve.JobSpec
	// of is the index of the entry a repeat re-submits (-1 otherwise).
	of int
	// table1 marks first submissions of Table-1 workloads, whose IST
	// against the workload's golden output is scored.
	table1 bool
}

// Paper-jobs stream shape.
const (
	paperTrials = 16384 // the paper's per-job trial budget
	paperK      = 4     // the paper's ensemble size
	// repeatEvery makes one request in eight a repeat of an earlier job
	// from the other tenant.
	repeatEvery = 8
	// advanceEvery spaces window advances: every advanceEvery-th entry
	// is a POST /v1/advance, about one per 7 s of paper-jobs serving on
	// two cores, so the plans rebuilt after it stay a small share of
	// the run.
	advanceEvery = 48
)

// generator yields a stream one entry at a time: given the entries it has
// returned so far, in order, it returns the next one, or false once the
// stream has ended. Each call must pass the previous call's prefix with
// its entry appended.
type generator func(prefix []entry) (entry, bool)

// generate returns the first n entries of g's stream, fewer if it ends.
func generate(g generator, n int) []entry {
	out := make([]entry, 0, n)
	for len(out) < n {
		e, ok := g(out)
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}

// paperPolicies is the policy cycle of paper-jobs: each workload is sent
// once under each policy every 27 first submissions.
var paperPolicies = [3]string{"edm", "wedm", "best"}

// paperGen returns the paper-jobs stream of a seed. First submissions
// cycle through the nine Table-1 workloads, the policy advancing every
// nine jobs, each with a fresh job seed. Entries alternate between
// tenants t0 and t1; a repeat re-sends the spec of an earlier job sent by
// the other tenant 1 to 7 entries back, so it lands on a tier hit or,
// when the original is still in flight, a singleflight wait.
func paperGen(seed uint64) generator {
	r := rng.New(seed).Derive("paper-jobs")
	all := workloads.All()
	jobs := 0
	return func(out []entry) (entry, bool) {
		i := len(out)
		tenant := fmt.Sprintf("t%d", i%2)
		switch {
		case i%advanceEvery == advanceEvery-1:
			return entry{kind: entryAdvance, of: -1}, true
		case i >= repeatEvery && i%repeatEvery == repeatEvery/2:
			of := i - (1 + 2*r.Intn(4))
			for of >= 0 && out[of].kind != entryJob {
				of -= 2
			}
			if of >= 0 {
				spec := out[of].spec
				spec.Tenant = tenant
				return entry{kind: entryRepeat, spec: spec, of: of}, true
			}
		}
		w := all[jobs%len(all)]
		e := entry{
			kind: entryJob,
			spec: serve.JobSpec{
				Workload: w.Name,
				K:        paperK,
				Trials:   paperTrials,
				Seed:     r.Uint64(),
				Policy:   paperPolicies[(jobs/len(all))%len(paperPolicies)],
				Tenant:   tenant,
			},
			of:     -1,
			table1: true,
		}
		jobs++
		return e, true
	}
}

// Wide-fresh stream shape.
const (
	wideQubits = 11
	wideLayers = 3
	wideK      = 4
	wideTrials = 1024
	// wideExtraEdges is how many edges the interaction graph gets beyond
	// its random spanning tree.
	wideExtraEdges = 5
)

// wideGen returns the wide-fresh stream of a seed: every entry is a
// never-seen inline circuit (wideCircuit), alternately in the text format
// and in OpenQASM 2.0.
func wideGen(seed uint64) generator {
	r := rng.New(seed).Derive("wide-fresh")
	return func(out []entry) (entry, bool) {
		i := len(out)
		c := wideCircuit(rng.New(seed).DeriveN("wide-circuit", i))
		spec := serve.JobSpec{K: wideK, Trials: wideTrials, Seed: r.Uint64(), Policy: "edm", Tenant: "t0"}
		if i%2 == 0 {
			spec.Circuit, spec.Format = c.Text(), "text"
		} else {
			spec.Circuit, spec.Format = c.QASM(), "qasm"
		}
		return entry{kind: entryJob, spec: spec, of: -1}, true
	}
}

// wideCircuit builds one wide-fresh circuit from r: an interaction graph
// over wideQubits qubits (a random spanning tree plus a few extra edges),
// then wideLayers layers, each a random u3 rotation on every
// qubit followed by CX gates on a random matching of the graph's edges,
// then a measurement of every qubit. Placement and routing therefore
// differ from circuit to circuit.
func wideCircuit(r *rng.RNG) *circuit.Circuit {
	type edge struct{ a, b int }
	var edges []edge
	has := map[[2]int]bool{}
	add := func(a, b int) bool {
		if a > b {
			a, b = b, a
		}
		if a == b || has[[2]int{a, b}] {
			return false
		}
		has[[2]int{a, b}] = true
		edges = append(edges, edge{a, b})
		return true
	}
	order := r.Perm(wideQubits)
	for j := 1; j < wideQubits; j++ {
		add(order[j], order[r.Intn(j)])
	}
	for extra := 0; extra < wideExtraEdges; {
		if add(r.Intn(wideQubits), r.Intn(wideQubits)) {
			extra++
		}
	}

	c := circuit.New(wideQubits, wideQubits)
	for l := 0; l < wideLayers; l++ {
		for q := 0; q < wideQubits; q++ {
			c.U3(q, r.Float64()*3.14159, r.Float64()*6.28318, r.Float64()*6.28318)
		}
		busy := make([]bool, wideQubits)
		for _, j := range r.Perm(len(edges)) {
			e := edges[j]
			if busy[e.a] || busy[e.b] {
				continue
			}
			busy[e.a], busy[e.b] = true, true
			if r.Intn(2) == 0 {
				c.CX(e.a, e.b)
			} else {
				c.CX(e.b, e.a)
			}
		}
	}
	return c.MeasureAll()
}
