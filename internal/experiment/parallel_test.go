package experiment

import (
	"reflect"
	"runtime"
	"testing"
)

// TestRunPoliciesDeterministicAcrossWorkers is the bit-identical contract
// of the parallel sweep: the policy tables must not depend on GOMAXPROCS
// or on scheduling order between two runs at the same parallelism.
func TestRunPoliciesDeterministicAcrossWorkers(t *testing.T) {
	s := tiny()
	names := []string{"greycode-6", "qaoa-5"}
	set := policySet{postExec: true, wedm: true}

	prev := runtime.GOMAXPROCS(1)
	serial := RunPolicies(s, names, set)
	runtime.GOMAXPROCS(4)
	par1 := RunPolicies(s, names, set)
	par2 := RunPolicies(s, names, set)
	runtime.GOMAXPROCS(prev)

	if !reflect.DeepEqual(serial, par1) {
		t.Fatalf("parallel sweep differs from serial:\nserial: %+v\npar:    %+v", serial, par1)
	}
	if !reflect.DeepEqual(par1, par2) {
		t.Fatalf("two parallel sweeps differ:\n1: %+v\n2: %+v", par1, par2)
	}
}
