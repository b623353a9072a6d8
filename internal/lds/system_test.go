package lds_test

import (
	"testing"

	"gpureach/internal/core"
	"gpureach/internal/lds"
	"gpureach/internal/workloads"
)

// A Baseline machine never puts an LDS segment into Tx-mode, so none of
// its LDSs may build Tx-mode arrays, through construction or a full
// run. The same run under ic+lds builds them, so the check can fail.
func TestBaselineSystemBuildsNoTxArrays(t *testing.T) {
	w, _ := workloads.ByName("ATAX")
	built := func(scheme core.Scheme) int {
		s := core.NewSystem(core.DefaultConfig(scheme))
		if _, err := s.Run(w.Name, w.Build(s.Space, 0.05)); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, l := range s.LDSs {
			if lds.TxAllocated(l) {
				n++
			}
		}
		return n
	}
	if n := built(core.Baseline()); n != 0 {
		t.Errorf("baseline: %d LDSs built Tx arrays, want 0", n)
	}
	if n := built(core.Combined()); n == 0 {
		t.Error("ic+lds: no LDS built Tx arrays")
	}
}
