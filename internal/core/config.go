// Package core assembles the full simulated system of Table 1 — GPU,
// TLB hierarchy, reconfigurable LDS and I-cache, data caches, IOMMU and
// DRAM — runs workloads on it end-to-end, and reports the measurements
// every figure and table in the paper is built from.
package core

import (
	"gpureach/internal/cache"
	"gpureach/internal/dram"
	"gpureach/internal/gpu"
	"gpureach/internal/icache"
	"gpureach/internal/lds"
	"gpureach/internal/sim"
	"gpureach/internal/vm"
	"gpureach/internal/walker"
)

// Scheme selects which reconfigurable structures cache translations —
// the design axes of Figure 13.
type Scheme struct {
	Name string
	// UseLDS enables the reconfigurable LDS victim store (§4.2).
	UseLDS bool
	// UseIC enables the reconfigurable I-cache victim store (§4.3).
	UseIC bool
	// ICTxPerLine: 1 = the basic one-translation-per-way design
	// (Figure 8b), 8 = the packed design (Figure 8c).
	ICTxPerLine int
	// ICPolicy selects naive vs instruction-aware replacement (§4.3.2).
	ICPolicy icache.Policy
	// ICFlush enables the kernel-boundary instruction flush (§4.3.3).
	ICFlush bool
	// Ducati adds the §6.3.4 in-memory translation store.
	Ducati bool
	// Prefetch reorganizes the reconfigurable structures as a next-page
	// prefetch buffer instead of a victim cache — the §4.1 alternative
	// the paper rejects, kept here as an ablation.
	Prefetch bool
}

// The schemes evaluated across Figures 13 and 16.
func Baseline() Scheme { return Scheme{Name: "baseline"} }
func LDSOnly() Scheme  { return Scheme{Name: "lds", UseLDS: true} }
func ICOneTx() Scheme {
	return Scheme{Name: "ic-1tx", UseIC: true, ICTxPerLine: 1, ICPolicy: icache.PolicyInstrAware}
}
func ICNaive() Scheme {
	return Scheme{Name: "ic-naive", UseIC: true, ICTxPerLine: 8, ICPolicy: icache.PolicyNaive}
}
func ICAware() Scheme {
	return Scheme{Name: "ic-aware", UseIC: true, ICTxPerLine: 8, ICPolicy: icache.PolicyInstrAware}
}
func ICAwareFlush() Scheme {
	s := ICAware()
	s.Name = "ic-aware+flush"
	s.ICFlush = true
	return s
}
func Combined() Scheme {
	return Scheme{Name: "ic+lds", UseLDS: true, UseIC: true, ICTxPerLine: 8,
		ICPolicy: icache.PolicyInstrAware, ICFlush: true}
}
func DucatiOnly() Scheme { return Scheme{Name: "ducati", Ducati: true} }

// PrefetchBuffer is the §4.1 ablation: same structures, prefetch
// organization instead of victim organization.
func PrefetchBuffer() Scheme {
	s := Combined()
	s.Name = "ic+lds-prefetch"
	s.Prefetch = true
	return s
}
func CombinedDucati() Scheme {
	s := Combined()
	s.Name = "ic+lds+ducati"
	s.Ducati = true
	return s
}

// Config is the full simulated system configuration (Table 1 defaults
// via DefaultConfig).
type Config struct {
	GPU      gpu.Config
	PageSize vm.PageSize
	// PhysBytes sizes the physical memory backing the frame allocator.
	PhysBytes uint64

	L2TLBEntries int
	L2TLBWays    int
	L2TLBLatency sim.Time
	// PerfectL2TLB makes the L2 TLB always hit (Fig 2/3 upper bound).
	PerfectL2TLB bool

	L1D  cache.Config
	L2   cache.Config
	DRAM dram.Config

	IOMMU  walker.Config
	ICache icache.Config
	// ICSharers is how many CUs share one I-cache (Table 1: 4;
	// Figure 16a sweeps 1→8). Must divide GPU.NumCUs.
	ICSharers int
	LDS       lds.Config

	Scheme        Scheme
	DucatiEntries int

	// Wire-latency sensitivity knobs (§6.3.3), added on top of the
	// Table 1 structure latencies.
	WireLatencyIC  sim.Time
	WireLatencyLDS sim.Time

	// Watchdog bounds every engine run (sim.RunGuarded). Scalar fields
	// only, so Config stays comparable and Canonical covers every knob.
	Watchdog sim.GuardConfig
}

// DefaultConfig returns the Table 1 system with the given scheme.
func DefaultConfig(s Scheme) Config {
	return Config{
		GPU:          gpu.DefaultConfig(),
		PageSize:     vm.Page4K,
		PhysBytes:    8 << 30,
		L2TLBEntries: 512,
		L2TLBWays:    16,
		L2TLBLatency: 188,
		L1D: cache.Config{
			Name: "l1d", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8,
			HitLatency: 32, PortInterval: 1,
		},
		L2: cache.Config{
			Name: "l2", SizeBytes: 4 << 20, LineBytes: 64, Ways: 16,
			HitLatency: 128, PortInterval: 1,
		},
		DRAM:          dram.DefaultConfig(),
		IOMMU:         walker.DefaultConfig(),
		ICache:        icache.DefaultConfig(),
		ICSharers:     4,
		LDS:           lds.DefaultConfig(),
		Scheme:        s,
		DucatiEntries: 256 << 10,
		// Livelock detection only: full-scale runs execute billions of
		// events and span billions of cycles, but no legitimate workload
		// executes millions of events without the clock ever advancing.
		Watchdog: sim.GuardConfig{NoProgressEvents: 5_000_000},
	}
}
