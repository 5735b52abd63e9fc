// Package selector implements compile-time predicted-IST ensemble
// selection — the design alternative the paper sketches and sets aside in
// Section 5.3: "We could form an ensemble of mappings that is estimated
// to produce the highest IST, however, to keep the design simple, we
// select the top K mappings that are deemed to have the highest PST."
//
// Where ESP folds a mapping's error rates into a single success
// probability, this selector *simulates* each candidate executable
// exactly (density-matrix engine, compile-time calibration), predicts its
// full output distribution, and greedily assembles the ensemble whose
// merged predicted distribution maximizes IST. It therefore accounts for
// which wrong answers a mapping makes, not just how often it fails — the
// information EDM's diversity argument actually runs on.
//
// The catch, and the reason the paper kept ESP, is cost: exact channel
// simulation is exponential in the executable's footprint, and the
// prediction is only as good as the calibration (run-time drift erodes
// it). The ablation benchmark quantifies both sides.
package selector

import (
	"fmt"
	"sort"

	"edm/internal/backend"
	"edm/internal/bitstr"
	"edm/internal/device"
	"edm/internal/dist"
	"edm/internal/mapper"
	"edm/internal/pool"
	"edm/internal/statevec"
)

// Prediction is a candidate mapping with its exactly simulated output.
type Prediction struct {
	Exec *mapper.Executable
	// Output is the predicted (exact, compile-time-calibration) output
	// distribution of the executable.
	Output *dist.Dist
	// IST is the predicted inference strength against the program's ideal
	// answer.
	IST float64
}

// Predict simulates the executable exactly under the calibration and
// returns its predicted output distribution and IST for the given correct
// outcome.
func Predict(cal *device.Calibration, exe *mapper.Executable, correct bitstr.BitString) (Prediction, error) {
	m := backend.New(cal)
	out, err := m.ExactDist(exe.Circuit)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{Exec: exe, Output: out, IST: out.IST(correct)}, nil
}

// IdealAnswer computes the compile-time notion of "the correct answer":
// the most likely outcome of the noise-free program. For the paper's
// deterministic workloads this is the golden output with probability 1;
// for QAOA it is the optimal cut.
func IdealAnswer(exe *mapper.Executable) (bitstr.BitString, error) {
	d, err := statevec.IdealDist(exe.Circuit)
	if err != nil {
		return bitstr.BitString{}, err
	}
	return d.MostLikely().Value, nil
}

// Options bounds the selection's cost.
type Options struct {
	// MaxCandidates caps how many pool entries (in ESP order) are
	// simulated exactly. Zero means 16.
	MaxCandidates int
	// MaxQubits refuses candidates whose footprint would exceed the exact
	// engine's practical range. Zero means the density engine's limit.
	MaxQubits int
}

func (o Options) maxCandidates() int {
	if o.MaxCandidates <= 0 {
		return 16
	}
	return o.MaxCandidates
}

// Select assembles a k-member ensemble from the candidate pool by greedy
// predicted-IST maximization: the first member is the candidate with the
// highest predicted individual IST, and each further member is the
// candidate whose addition maximizes the IST of the uniformly merged
// predicted distribution. It returns the chosen executables together with
// the predicted merged IST.
func Select(cal *device.Calibration, candidates []*mapper.Executable, k int, correct bitstr.BitString, opts Options) ([]*mapper.Executable, float64, error) {
	if k <= 0 {
		return nil, 0, fmt.Errorf("selector: k must be positive")
	}
	if len(candidates) == 0 {
		return nil, 0, fmt.Errorf("selector: empty pool")
	}
	maxQ := opts.MaxQubits
	if maxQ <= 0 {
		maxQ = 10 // density.MaxQubits
	}
	limit := opts.maxCandidates()
	cands := make([]*mapper.Executable, 0, limit)
	for _, exe := range candidates {
		if len(cands) == limit {
			break
		}
		if len(exe.UsedQubits()) > maxQ {
			continue
		}
		cands = append(cands, exe)
	}
	if len(cands) == 0 {
		return nil, 0, fmt.Errorf("selector: no candidate fits the exact engine (footprint > %d qubits)", maxQ)
	}
	// Exact simulation dominates the selection cost, so candidates are
	// predicted concurrently into per-index slots; the slot order keeps the
	// result identical to the serial loop this replaced, and the first
	// error by candidate index is the one reported. Each simulation is
	// orchestration over the backend's token-gated leaves, so the fan-out
	// is pool.Fan's local semaphore, not the compute-token pool.
	preds := make([]Prediction, len(cands))
	errs := make([]error, len(cands))
	pool.Fan(len(cands), func(i int) {
		preds[i], errs[i] = Predict(cal, cands[i], correct)
	})
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	sort.SliceStable(preds, func(i, j int) bool { return preds[i].IST > preds[j].IST })

	chosen := []Prediction{preds[0]}
	rest := append([]Prediction(nil), preds[1:]...)
	for len(chosen) < k && len(rest) > 0 {
		bestIdx, bestIST := -1, -1.0
		for i, cand := range rest {
			merged := mergePredicted(chosen, cand)
			if ist := merged.IST(correct); ist > bestIST {
				bestIST = ist
				bestIdx = i
			}
		}
		// Stop early if no addition improves on the current ensemble —
		// a smaller, stronger ensemble beats a padded one.
		current := mergePredicted(chosen)
		if bestIST <= current.IST(correct) && len(chosen) > 1 {
			break
		}
		chosen = append(chosen, rest[bestIdx])
		rest = append(rest[:bestIdx], rest[bestIdx+1:]...)
	}
	execs := make([]*mapper.Executable, len(chosen))
	for i, p := range chosen {
		execs[i] = p.Exec
	}
	final := mergePredicted(chosen)
	return execs, final.IST(correct), nil
}

func mergePredicted(chosen []Prediction, extra ...Prediction) *dist.Dist {
	all := make([]*dist.Dist, 0, len(chosen)+len(extra))
	for _, p := range chosen {
		all = append(all, p.Output)
	}
	for _, p := range extra {
		all = append(all, p.Output)
	}
	return dist.Merge(all)
}
