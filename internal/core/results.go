package core

import (
	"fmt"

	"gpureach/internal/sim"
	"gpureach/internal/workloads"
)

// Results are the measurements of one application run — every number a
// figure or table in the paper needs.
type Results struct {
	App    string
	Scheme string

	Cycles       sim.Time
	WaveInstrs   uint64
	ThreadInstrs uint64
	KernelsRun   int

	// Translation-path counters. PageWalks counts page-table walks the
	// IOMMU actually performed (after its device TLBs — Table 1's
	// 32/256-entry IOMMU TLBs absorb the rest); L2TLBMisses counts
	// translations that missed every GPU-side structure.
	PageWalks     uint64
	L2TLBMisses   uint64
	PTWPKI        float64 // walks per kilo thread-instructions (Table 2)
	L1TLBHitRate  float64
	L2TLBHitRate  float64
	LDSTxHits     uint64
	ICTxHits      uint64
	VictimLookups uint64
	DucatiHits    uint64
	// MidflightInvalidated counts victim-path probes that hit at issue
	// but whose entry was shot down or reclaimed before the array read
	// completed — the §7.1 "dead on arrival" hazard the robustness
	// scorecard tracks per scheme under adversarial campaigns.
	MidflightInvalidated uint64

	// DRAM activity and energy (Fig 13c).
	DRAMReads    uint64
	DRAMWrites   uint64
	DRAMEnergyPJ float64

	// Structure utilization (Figs 4, 5, 11, 15).
	ICUtilSamples  []float64
	LDSReqBytes    sim.Summary
	ICPortIdle     sim.Summary
	LDSPortIdle    sim.Summary
	PeakTxResident int
	FreeTxCapacity int

	// Cross-CU duplication (Fig 14a): mean fraction of resident
	// translations present in more than one CU's private structures.
	SharedTxFraction float64

	CompressionRejects uint64
}

// Speedup returns baseline.Cycles / r.Cycles — the paper's performance
// metric (relative performance over the 512-entry baseline).
func (r Results) Speedup(baseline Results) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

// NormalizedWalks returns r.PageWalks / baseline.PageWalks (Fig 14b),
// or 0 when the baseline incurred none (SRAD's ~0-walk case).
func (r Results) NormalizedWalks(baseline Results) float64 {
	if baseline.PageWalks == 0 {
		return 0
	}
	return float64(r.PageWalks) / float64(baseline.PageWalks)
}

// NormalizedEnergy returns r.DRAMEnergyPJ / baseline.DRAMEnergyPJ
// (Fig 13c).
func (r Results) NormalizedEnergy(baseline Results) float64 {
	if baseline.DRAMEnergyPJ == 0 {
		return 0
	}
	return r.DRAMEnergyPJ / baseline.DRAMEnergyPJ
}

// MeanICUtil averages the per-kernel Equation 1 samples.
func (r Results) MeanICUtil() float64 {
	if len(r.ICUtilSamples) == 0 {
		return 0
	}
	sum := 0.0
	for _, u := range r.ICUtilSamples {
		sum += u
	}
	return sum / float64(len(r.ICUtilSamples))
}

func (r Results) String() string {
	return fmt.Sprintf("%s[%s]: %d cycles, %d walks (PKI %.2f), L1 %.1f%%, L2 %.1f%%, victim hits LDS=%d IC=%d",
		r.App, r.Scheme, r.Cycles, r.PageWalks, r.PTWPKI,
		100*r.L1TLBHitRate, 100*r.L2TLBHitRate, r.LDSTxHits, r.ICTxHits)
}

// collect assembles Results from the system's counters after a run.
func (s *System) collect(app string, cycles sim.Time) Results {
	total := s.GPU.TotalStats()

	var l1Hits, l1Misses uint64
	var ldsHits, icHits, lookups, midflight uint64
	var rejects uint64
	for i := range s.CUs {
		st := s.Xlats[i].L1().Stats()
		l1Hits += st.Hits
		l1Misses += st.Misses
		ps := s.Paths[i].Stats()
		ldsHits += ps.LDSHits
		icHits += ps.ICHits
		lookups += ps.Lookups
		midflight += ps.MidflightInvalidated
	}
	for _, l := range s.LDSs {
		rejects += l.Stats().CompressionRejects
	}
	freeCap := 0
	for _, l := range s.LDSs {
		freeCap += l.FreeTxCapacity()
	}
	for _, ic := range s.ICaches {
		rejects += ic.Stats().CompressionRejects
		freeCap += ic.FreeTxCapacity()
	}

	l2Stats := s.L2TLB.TLB.Stats()
	dstats := s.DRAM.Stats()

	var shared float64
	if len(s.SharedSamples) > 0 {
		for _, f := range s.SharedSamples {
			shared += f
		}
		shared /= float64(len(s.SharedSamples))
	}

	r := Results{
		App:                  app,
		Scheme:               s.Cfg.Scheme.Name,
		Cycles:               cycles,
		WaveInstrs:           total.WaveInstrs,
		ThreadInstrs:         total.ThreadInstrs,
		KernelsRun:           s.GPU.KernelsRun,
		PageWalks:            s.IOMMU.Stats().Walks,
		L2TLBMisses:          s.L2TLB.PageWalksStarted,
		L1TLBHitRate:         ratio(l1Hits, l1Hits+l1Misses),
		L2TLBHitRate:         l2Stats.HitRate(),
		LDSTxHits:            ldsHits,
		ICTxHits:             icHits,
		VictimLookups:        lookups,
		MidflightInvalidated: midflight,
		DucatiHits:           s.L2TLB.DucatiHits,
		DRAMReads:            dstats.Reads,
		DRAMWrites:           dstats.Writes,
		DRAMEnergyPJ:         s.DRAM.TotalEnergyPJ(cycles),
		ICUtilSamples:        s.ICUtilSamples,
		LDSReqBytes:          s.GPU.LDSRequestBytes.Summarize(),
		ICPortIdle:           s.ICaches[0].Port().IdleGaps().Summarize(),
		LDSPortIdle:          s.LDSs[0].Port().IdleGaps().Summarize(),
		PeakTxResident:       s.PeakTxResident,
		FreeTxCapacity:       freeCap,
		SharedTxFraction:     shared,
		CompressionRejects:   rejects,
	}
	if total.ThreadInstrs > 0 {
		r.PTWPKI = float64(r.PageWalks) / (float64(total.ThreadInstrs) / 1000)
	}
	return r
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Run builds a system with cfg, instantiates workload w at the given
// scale, and executes it end-to-end. Structured simulation failures
// (sim.SimError: page fault, deadlock, watchdog, invariant violation)
// are returned, not panicked.
func Run(cfg Config, w workloads.Workload, scale float64) (Results, error) {
	s := NewSystem(cfg)
	kernels := w.Build(s.Space, scale)
	return s.Run(w.Name, kernels)
}
