package core

import (
	"errors"
	"fmt"

	"gpureach/internal/gpu"
	"gpureach/internal/sim"
	"gpureach/internal/vm"
	"gpureach/internal/workloads"
)

// MultiAppResult reports one co-running application's outcome in the
// §7.2 multi-application scenario.
type MultiAppResult struct {
	App        string
	FinishedAt sim.Time
	KernelsRun int
}

// ValidateMultiApp checks the §7.2 preset shape before any engine
// exists: at least one application, at most the four the 2-bit VM-ID
// can distinguish, and an even CU partition. These are experiment-shape
// errors, not simulation faults, so they return like
// ResolveApps/ExpOptions.Validate errors do — listing what would be
// valid — instead of panicking.
func ValidateMultiApp(cfg Config, apps []workloads.Workload) error {
	if len(apps) == 0 {
		return errors.New("core: multi-app run needs at least one application")
	}
	if len(apps) > 4 {
		return fmt.Errorf("core: %d concurrent applications exceed the 2-bit VM-ID limit of 4", len(apps))
	}
	if cfg.GPU.NumCUs%len(apps) != 0 {
		return fmt.Errorf("core: %d CUs do not partition evenly across %d applications (use 1, 2 or 4)",
			cfg.GPU.NumCUs, len(apps))
	}
	return nil
}

// MultiAppRun is a prepared but not yet executed §7.2 co-run. The
// system is fully wired and the workloads built, so callers can attach
// a Checker or arm a chaos injector against Sys before calling Run —
// the hook the adversarial sweep campaigns use.
type MultiAppRun struct {
	Sys  *System
	apps []workloads.Workload
	ctxs []*gpu.Context
}

// PrepareMultiApp builds one GPU with the named workloads as concurrent
// tenants, each in its own address space (distinct VM-ID) on an even
// partition of the CUs — the CU-level isolation the paper assumes for
// security (§7.2). The system's Spaces are exactly the tenant spaces
// (VM-IDs 0..n-1), so invariant probes and fault injectors see every
// tenant's page table and nothing else.
func PrepareMultiApp(cfg Config, apps []workloads.Workload, scale float64) (*MultiAppRun, error) {
	if err := ValidateMultiApp(cfg, apps); err != nil {
		return nil, err
	}
	s := NewSystem(cfg)

	cusPerApp := cfg.GPU.NumCUs / len(apps)
	var ctxs []*gpu.Context
	s.Spaces = s.Spaces[:0]
	for i, w := range apps {
		space := vm.NewAddrSpace(vm.SpaceID{VMID: uint8(i)}, s.Frames, cfg.PageSize)
		s.Spaces = append(s.Spaces, space)
		kernels := w.Build(space, scale)
		var cuIDs []int
		for c := i * cusPerApp; c < (i+1)*cusPerApp; c++ {
			cuIDs = append(cuIDs, c)
		}
		ctxs = append(ctxs, &gpu.Context{Space: space, Kernels: kernels, CUIDs: cuIDs})
	}
	// The single-app primary space is unused here; point it at the first
	// tenant so anything targeting "the" space (chaos fallbacks, GPU
	// wiring) targets a live page table.
	s.Space = s.Spaces[0]
	return &MultiAppRun{Sys: s, apps: apps, ctxs: ctxs}, nil
}

// Run executes the prepared co-run to completion. Structured simulation
// failures — page faults, deadlock, watchdog trips, invariant
// violations found by an attached Checker — come back as a
// *sim.SimError, mirroring System.Run.
func (m *MultiAppRun) Run() (per []MultiAppResult, res Results, err error) {
	defer sim.RecoverSimError(&err)
	end := m.Sys.GPU.RunContexts(m.ctxs)
	m.Sys.sample("")

	for i, ctx := range m.ctxs {
		per = append(per, MultiAppResult{
			App:        m.apps[i].Name,
			FinishedAt: ctx.FinishedAt,
			KernelsRun: ctx.KernelsRun,
		})
	}
	res = m.Sys.collect("multi", end)
	if m.Sys.Checker != nil {
		err = m.Sys.Checker.Err()
	}
	return per, res, err
}
