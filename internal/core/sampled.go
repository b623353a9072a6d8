package core

import (
	"math"

	"gpureach/internal/gpu"
	"gpureach/internal/sample"
	"gpureach/internal/sim"
)

// ArmSampling installs a sampling controller over the kernels about to
// run: the controller schedules its measurement windows over the launch
// sequence's total wave-instruction count and the machine consults it
// through the gpu.Sampler contract. The hooks give the controller the
// engine clock, the IOMMU walk counter, and the port-backlog relax at
// every fast-forward → detailed transition (fast-forward drives shared
// ports without consuming time, so their grant schedules must be
// clamped to "now" before detailed timing resumes).
//
// In a sampled run, instruction counts stay exact, but content-level
// event counters (walks, hit totals, victim hits) cover only the warmed
// and detailed spans; use the Estimate's per-window rates for full-run
// translation metrics. Ratios such as hit rates stay representative
// because both sides are truncated together.
func (s *System) ArmSampling(sc sample.Config, kernels []*gpu.Kernel) *sample.Controller {
	ctrl := sample.NewController(gpu.TotalWaveInstrs(kernels), sc, sample.Hooks{
		Now:           s.Eng.Now,
		Walks:         func() uint64 { return s.IOMMU.Stats().Walks },
		Idle:          func() uint64 { return s.GPU.LaunchIdle },
		OnDetailStart: s.Eng.RelaxPorts,
	})
	s.GPU.Sampler = ctrl
	return ctrl
}

// ApplyEstimate folds a sampling estimate into measured Results: the
// cycle count becomes the extrapolated mean (rounded), and PTW-PKI the
// window-mean walk rate — the two headline metrics whose raw sampled
// values would otherwise mix partial event counters with full
// instruction counts. The estimate's walk rate is per kilo
// wave-instruction; Results report walks per kilo thread-instruction,
// so the (exactly counted) wave/thread ratio converts. Everything else
// is left as measured.
func ApplyEstimate(res *Results, est *sample.Estimate) {
	if est.Cycles.Mean > 0 {
		res.Cycles = sim.Time(math.Round(est.Cycles.Mean))
	}
	if est.WalkPKI.N > 0 && res.ThreadInstrs > 0 {
		res.PTWPKI = est.WalkPKI.Mean * float64(res.WaveInstrs) / float64(res.ThreadInstrs)
	}
}
