package core

import (
	"testing"

	"gpureach/internal/sim"
	"gpureach/internal/workloads"
)

// TestGoldenSmallRuns pins exact end-to-end numbers for small runs.
// The engine rework (calendar queue + allocation-free scheduling) was
// proven byte-identical to the original container/heap engine on full
// experiment output; these constants freeze that behaviour. Any future
// change to the event queue, scheduling order, or memory-path
// sequencing that shifts science — even by one cycle — fails here
// loudly instead of silently skewing every figure.
//
// If a change *intends* to alter science (a modelling fix), re-record
// these values in the same commit and say so in its message.
func TestGoldenSmallRuns(t *testing.T) {
	cases := []struct {
		app, scheme string
		cycles      sim.Time
		walks       uint64
		l2miss      uint64
	}{
		{"ATAX", "baseline", 497081, 26952, 27631},
		{"ATAX", "ic+lds", 438457, 1024, 1024},
		{"ATAX", "ic+lds+ducati", 446840, 896, 896},
		{"NW", "ic+lds", 127829, 64, 64},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.app+"/"+tc.scheme, func(t *testing.T) {
			scheme, ok := SchemeByName(tc.scheme)
			if !ok {
				t.Fatalf("unknown scheme %q", tc.scheme)
			}
			w, ok := workloads.ByName(tc.app)
			if !ok {
				t.Fatalf("unknown app %q", tc.app)
			}
			r := mustRun(t, DefaultConfig(scheme), w, smokeScale)
			if r.Cycles != tc.cycles || r.PageWalks != tc.walks || r.L2TLBMisses != tc.l2miss {
				t.Errorf("science drift: got cycles=%d walks=%d l2miss=%d, pinned cycles=%d walks=%d l2miss=%d",
					r.Cycles, r.PageWalks, r.L2TLBMisses, tc.cycles, tc.walks, tc.l2miss)
			}
		})
	}
}
