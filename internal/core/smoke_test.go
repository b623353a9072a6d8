package core

import (
	"testing"

	"gpureach/internal/sample"
	"gpureach/internal/workloads"
)

// smokeScale keeps unit-test runs to a fraction of a second per app.
const smokeScale = 0.1

// mustRun is Run that fails the test on a simulation error.
func mustRun(t *testing.T, cfg Config, w workloads.Workload, scale float64) Results {
	t.Helper()
	r, err := Run(cfg, w, scale)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runSampled is Run in sampled-execution mode under sc: the returned
// Results carry the extrapolated cycle count, and the Estimate rides
// alongside. A disabled sc runs at full detail with a nil Estimate.
func runSampled(t *testing.T, cfg Config, w workloads.Workload, scale float64, sc sample.Config) (Results, *sample.Estimate) {
	t.Helper()
	sc = sc.Normalize()
	s := NewSystem(cfg)
	kernels := w.Build(s.Space, scale)
	var ctrl *sample.Controller
	if sc.Enabled() {
		ctrl = s.ArmSampling(sc, kernels)
	}
	r, err := s.Run(w.Name, kernels)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl == nil {
		return r, nil
	}
	est := ctrl.Estimate()
	ApplyEstimate(&r, est)
	return r, est
}

func TestSmokeAllAppsBaseline(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			r := mustRun(t, DefaultConfig(Baseline()), w, smokeScale)
			if r.Cycles == 0 {
				t.Fatal("no cycles simulated")
			}
			if r.ThreadInstrs == 0 {
				t.Fatal("no instructions executed")
			}
			t.Logf("%v", r)
		})
	}
}

func TestSmokeCombinedScheme(t *testing.T) {
	w, _ := workloads.ByName("ATAX")
	base := mustRun(t, DefaultConfig(Baseline()), w, smokeScale)
	comb := mustRun(t, DefaultConfig(Combined()), w, smokeScale)
	t.Logf("baseline: %v", base)
	t.Logf("combined: %v", comb)
	t.Logf("speedup: %.3f", comb.Speedup(base))
	if comb.LDSTxHits+comb.ICTxHits == 0 {
		t.Error("combined scheme produced no victim hits on ATAX")
	}
}
