// Chaos-driven system tests: the §7.1 shootdown flow exercised under
// load by the fault injector, and the panic-free failure contract of
// System.Run (structured SimErrors for page faults and livelock).
//
// This file is package core_test — internal/chaos imports core, so
// these tests must sit outside the core package to avoid a cycle.
package core_test

import (
	"errors"
	"strings"
	"testing"

	"gpureach/internal/chaos"
	"gpureach/internal/check"
	"gpureach/internal/core"
	"gpureach/internal/gpu"
	"gpureach/internal/sim"
	"gpureach/internal/vm"
	"gpureach/internal/workloads"
)

// TestShootdownUnderLoad promotes examples/shootdown into a real test:
// ATAX runs on the full IC+LDS+DUCATI machine while the injector fires
// driver shootdowns at hot pages. The after-fault shootdown-coverage
// probe asserts — at the instant of every shootdown — that the VPN is
// gone from all L1 TLBs, every LDS and I-cache victim store, the L2
// TLB, the IOMMU device TLBs and the DUCATI region; any survivor is a
// violation that fails the run.
func TestShootdownUnderLoad(t *testing.T) {
	w, ok := workloads.ByName("ATAX")
	if !ok {
		t.Fatal("ATAX workload missing")
	}
	cfg := core.DefaultConfig(core.CombinedDucati())
	const scale = 0.05

	clean, err := core.Run(cfg, w, scale)
	if err != nil {
		t.Fatalf("fault-free run failed: %v", err)
	}

	s := core.NewSystem(cfg)
	s.Checker = check.NewChecker()
	inj := chaos.New(s, chaos.Config{Seed: 42, Rate: 0.02, ShootdownWeight: 1})
	inj.Arm()
	kernels := w.Build(s.Space, scale)
	res, err := s.Run(w.Name, kernels)
	if err != nil {
		t.Fatalf("shootdown-under-load run failed: %v", err)
	}

	st := inj.Stats()
	if st.Shootdowns == 0 {
		t.Fatal("injector fired no shootdowns")
	}
	if st.Migrations+st.Reclaims+st.Stalls != 0 {
		t.Errorf("shootdown-only weights injected other faults: %+v", st)
	}
	if n := len(s.Checker.Violations); n != 0 {
		t.Errorf("%d invariant violations: %v", n, s.Checker.Violations)
	}
	if s.Checker.Runs() == 0 {
		t.Error("checker never ran")
	}

	// The work performed is timing-independent: shootdowns slow the run
	// down but must not change what executed.
	if res.KernelsRun != clean.KernelsRun || res.ThreadInstrs != clean.ThreadInstrs {
		t.Errorf("chaos changed the executed work: kernels %d→%d, thread instrs %d→%d",
			clean.KernelsRun, res.KernelsRun, clean.ThreadInstrs, res.ThreadInstrs)
	}
	if res.Cycles < clean.Cycles {
		t.Errorf("run under %d shootdowns finished faster than clean (%d < %d cycles)",
			st.Shootdowns, res.Cycles, clean.Cycles)
	}
}

// TestUnmappedPageAccessReturnsSimError: a kernel touching a guard page
// must come back from System.Run as a structured page-fault SimError —
// not a panic.
func TestUnmappedPageAccessReturnsSimError(t *testing.T) {
	s := core.NewSystem(core.DefaultConfig(core.Baseline()))
	buf := s.Space.Alloc("data", 4096)
	guard := buf.Base + vm.VA(4096) // the guard page Alloc leaves unmapped

	k := &gpu.Kernel{
		Name: "wild", NumWorkgroups: 1, WavesPerWG: 1,
		CodeBytes: 256, InstrPerWave: 8, MemEvery: 2,
		Mem: func(wg, wave, i int, out []vm.VA) []vm.VA {
			return append(out, guard)
		},
	}
	_, err := s.Run("wild", []*gpu.Kernel{k})
	if err == nil {
		t.Fatal("unmapped access returned nil error")
	}
	var se *sim.SimError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *sim.SimError: %v", err, err)
	}
	if se.Kind != sim.ErrPageFault {
		t.Errorf("Kind = %q, want %q", se.Kind, sim.ErrPageFault)
	}
	if !strings.Contains(se.Error(), "page fault") {
		t.Errorf("message does not mention the fault: %q", se.Error())
	}
}

// TestLivelockTripsWatchdog: an artificial same-cycle self-rearming
// event starves forward progress; the watchdog must convert it into a
// SimError carrying a queue snapshot instead of spinning forever.
func TestLivelockTripsWatchdog(t *testing.T) {
	cfg := core.DefaultConfig(core.Baseline())
	cfg.Watchdog.NoProgressEvents = 10_000
	s := core.NewSystem(cfg)
	w, _ := workloads.ByName("GUPS")
	kernels := w.Build(s.Space, 0.01)

	var spin func()
	spin = func() { s.Eng.At(s.Eng.Now(), spin) }
	s.Eng.After(100, spin)

	_, err := s.Run(w.Name, kernels)
	if err == nil {
		t.Fatal("livelocked run returned nil error")
	}
	var se *sim.SimError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *sim.SimError: %v", err, err)
	}
	if se.Kind != sim.ErrWatchdog {
		t.Errorf("Kind = %q, want %q", se.Kind, sim.ErrWatchdog)
	}
	if se.Queue.Pending == 0 {
		t.Error("snapshot shows an empty queue during a livelock")
	}
	if len(se.Queue.NextTimes) == 0 {
		t.Error("snapshot lists no upcoming events during a livelock")
	}
	if !strings.Contains(err.Error(), "no forward progress") {
		t.Errorf("message does not explain the trip: %q", err.Error())
	}
}
