package backend

import (
	"edm/internal/circuit"
	"edm/internal/noise"
	"edm/internal/statevec"
)

// identityTol is the threshold below which a fused unitary counts as the
// identity (up to global phase) and is dropped. It is far below the 1e-9
// total-variation budget the fusion-equivalence tests enforce, even after
// thousands of steps.
const identityTol = 1e-13

// fuseProgram returns a copy of p with deterministic unitary steps fused:
//
//   - runs of 1Q unitaries on the same qubit collapse into one Matrix2,
//   - a lone 1Q unitary folds into the nearest 2Q unitary on the same
//     qubit (before or after it) via a Kronecker lift,
//   - identity-within-epsilon steps are dropped,
//   - every surviving unitary is classified (diagonal / anti-diagonal /
//     permutation) so the per-trial kernels dispatch on a tag instead of
//     re-inspecting matrices.
//
// Only stepU1/stepU2 entries are touched. The stochastic steps
// (stepPauli*, stepDamp, stepMeasure) keep their count, order, and
// parameters, so the trajectory path draws exactly the same random
// variates in the same order as the unfused schedule; fused matrices are
// algebraically equal to the step products they replace, with unitaries
// commuted only across steps acting on disjoint qubits.
func fuseProgram(p *program) *program {
	// The pass composes in place in working copies of p's matrix tables
	// (work steps index them as in p), then compacts the survivors into
	// exact-size tables of the fused program.
	m2w := append([]circuit.Matrix2(nil), p.m2s...)
	m4w := append([]circuit.Matrix4(nil), p.m4s...)
	work := make([]step, 0, len(p.steps))
	// pend[q]: index in work of a 1Q unitary on q that can absorb later
	// unitaries on q; -1 if none. lastU2[q]: index of a 2Q unitary
	// touching q with no later step touching q; -1 if none. Both are
	// invalidated the moment a randomness-consuming step touches q,
	// which is what keeps the commutes exact: every step a unitary is
	// moved across acts on disjoint qubits.
	pend := make([]int, p.nLocal)
	lastU2 := make([]int, p.nLocal)
	for i := range pend {
		pend[i] = -1
		lastU2[i] = -1
	}
	dropped := make([]bool, 0, len(p.steps))
	emit := func(s step) int {
		work = append(work, s)
		dropped = append(dropped, false)
		return len(work) - 1
	}
	clobber := func(q int32) {
		pend[q] = -1
		lastU2[q] = -1
	}

	for _, s := range p.steps {
		switch s.kind {
		case stepU1:
			q := s.q0
			m := m2w[s.idx]
			if j := pend[q]; j >= 0 {
				// Later unitary composes on the left: net = m * old.
				old := &m2w[work[j].idx]
				*old = m.Mul(*old)
				continue
			}
			if j := lastU2[q]; j >= 0 {
				// Fold after the 2Q gate: net = lift(m) * m4.
				old := &m4w[work[j].idx]
				*old = noise.Mul4(lift1Q(m, q, &work[j]), *old)
				continue
			}
			pend[q] = emit(s)
		case stepU2:
			m4 := &m4w[s.idx]
			for _, q := range [2]int32{s.q0, s.q1} {
				if j := pend[q]; j >= 0 {
					// Pending unitary runs first: net = m4 * lift(pend).
					*m4 = noise.Mul4(*m4, lift1Q(m2w[work[j].idx], q, &s))
					dropped[j] = true
					pend[q] = -1
				}
			}
			j := emit(s)
			lastU2[s.q0] = j
			lastU2[s.q1] = j
		case stepPauli2:
			clobber(s.q0)
			clobber(s.q1)
			emit(s)
		case stepPauli1, stepDamp, stepMeasure:
			clobber(s.q0)
			emit(s)
		default:
			emit(s)
		}
	}

	// Compact: drop folded-away steps and near-identity unitaries and tag
	// the survivors with their kernel class, counting what each table
	// needs; then move the survivors and their matrices into tables
	// allocated at exactly that size.
	var nSteps, n2, n4, nd, np int
	for i := range work {
		s := &work[i]
		switch {
		case dropped[i]:
			continue
		case s.kind == stepU1:
			m := &m2w[s.idx]
			if m.NearIdentity(identityTol) {
				dropped[i] = true
				continue
			}
			s.class = classify1Q(m)
			n2++
		case s.kind == stepU2:
			m := &m4w[s.idx]
			if m.NearIdentity(identityTol) {
				dropped[i] = true
				continue
			}
			s.class = classify2Q(m)
			switch s.class {
			case matDiag:
				nd++
			case matPerm:
				np++
			default:
				n4++
			}
		}
		nSteps++
	}
	out := &program{
		nLocal:    p.nLocal,
		numClbits: p.numClbits,
		measPhys:  p.measPhys,
		steps:     make([]step, 0, nSteps),
		m2s:       make([]circuit.Matrix2, 0, n2),
		m4s:       make([]circuit.Matrix4, 0, n4),
		d4s:       make([][4]complex128, 0, nd),
		perms:     make([]statevec.Perm4, 0, np),
		damps:     make([]dampKraus, len(p.damps)),
	}
	copy(out.damps, p.damps)
	for i, s := range work {
		if dropped[i] {
			continue
		}
		switch s.kind {
		case stepU1:
			m := m2w[s.idx]
			s.idx = int32(len(out.m2s))
			out.m2s = append(out.m2s, m)
		case stepU2:
			m := &m4w[s.idx]
			switch s.class {
			case matDiag:
				d, _ := m.DiagonalOf()
				s.idx = int32(len(out.d4s))
				out.d4s = append(out.d4s, d)
			case matPerm:
				pm, _ := statevec.ClassifyPerm4(*m)
				s.idx = int32(len(out.perms))
				out.perms = append(out.perms, pm)
			default:
				s.idx = int32(len(out.m4s))
				out.m4s = append(out.m4s, *m)
			}
		}
		out.steps = append(out.steps, s)
	}
	return out
}

// lift1Q embeds a one-qubit unitary on local qubit q into the 4x4 basis
// of the two-qubit step st (low bit = st.q0).
func lift1Q(m circuit.Matrix2, q int32, st *step) circuit.Matrix4 {
	id := circuit.Matrix2{{1, 0}, {0, 1}}
	if q == st.q0 {
		return noise.Kron(m, id)
	}
	return noise.Kron(id, m)
}

// classify1Q and classify2Q pick a unitary's kernel class once, so
// runTrajectory and ExactDist dispatch without re-inspecting the matrix
// per trial.
func classify1Q(m *circuit.Matrix2) matClass {
	switch {
	case m.IsDiagonal():
		return matDiag
	case m.IsAntiDiagonal():
		return matAnti
	}
	return matGeneral
}

func classify2Q(m *circuit.Matrix4) matClass {
	if _, ok := m.DiagonalOf(); ok {
		return matDiag
	}
	if _, ok := statevec.ClassifyPerm4(*m); ok {
		return matPerm
	}
	return matGeneral
}
