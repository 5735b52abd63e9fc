package backend

import (
	"edm/internal/circuit"
	"edm/internal/dist"
	"edm/internal/rng"
)

// Test-only entry points to the paths Run does not pick on its own. Each
// compiles through the program cache and calls the production runners.

// runLegacy runs exe through the legacy trajectory loop, striped as Run
// stripes it. It is the oracle the byte-identity tests compare the
// default engine against.
func (m *Machine) runLegacy(exe *circuit.Circuit, trials int, r *rng.RNG) (*dist.Counts, error) {
	prog, err := m.getProgram(exe)
	if err != nil {
		return nil, err
	}
	return m.runStriped(prog, nil, trials, r, nil), nil
}

// runStatevector runs exe as Run would with the tableau skipped, so a
// fully-Clifford program runs on the tape-tree statevector engine.
func (m *Machine) runStatevector(exe *circuit.Circuit, trials int, r *rng.RNG) (*dist.Counts, error) {
	prog, err := m.getProgram(exe)
	if err != nil {
		return nil, err
	}
	return m.runProgram(prog, nil, trials, r, nil), nil
}
