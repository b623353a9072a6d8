package core

import (
	"strings"
	"testing"

	"gpureach/internal/workloads"
)

// runMultiApp prepares and runs a §7.2 co-run, returning preset-shape
// and simulation errors alike.
func runMultiApp(cfg Config, apps []workloads.Workload, scale float64) ([]MultiAppResult, Results, error) {
	m, err := PrepareMultiApp(cfg, apps, scale)
	if err != nil {
		return nil, Results{}, err
	}
	return m.Run()
}

func TestRunMultiAppPartitionsAndCompletes(t *testing.T) {
	mvt, _ := workloads.ByName("MVT")
	srad, _ := workloads.ByName("SRAD")
	per, all, err := runMultiApp(DefaultConfig(Baseline()), []workloads.Workload{mvt, srad}, smokeScale)
	if err != nil {
		t.Fatalf("co-run: %v", err)
	}
	if len(per) != 2 {
		t.Fatalf("got %d per-app results", len(per))
	}
	for _, p := range per {
		if p.FinishedAt == 0 {
			t.Errorf("%s never finished", p.App)
		}
		if p.KernelsRun == 0 {
			t.Errorf("%s ran no kernels", p.App)
		}
	}
	if all.Cycles < per[0].FinishedAt || all.Cycles < per[1].FinishedAt {
		t.Error("system end time earlier than a tenant's finish")
	}
	if all.KernelsRun != per[0].KernelsRun+per[1].KernelsRun {
		t.Errorf("kernel accounting: %d vs %d+%d", all.KernelsRun, per[0].KernelsRun, per[1].KernelsRun)
	}
}

func TestRunMultiAppSchemeHelpsWithoutHarm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-app comparison skipped in -short")
	}
	mvt, _ := workloads.ByName("MVT")
	srad, _ := workloads.ByName("SRAD")
	pair := []workloads.Workload{mvt, srad}
	basePer, _, err := runMultiApp(DefaultConfig(Baseline()), pair, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	combPer, _, err := runMultiApp(DefaultConfig(Combined()), pair, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	mvtSpeed := float64(basePer[0].FinishedAt) / float64(combPer[0].FinishedAt)
	sradSpeed := float64(basePer[1].FinishedAt) / float64(combPer[1].FinishedAt)
	if mvtSpeed < 1.0 {
		t.Errorf("IC+LDS slowed the translation-bound tenant: %.3f", mvtSpeed)
	}
	if sradSpeed < 0.95 {
		t.Errorf("IC+LDS harmed the TLB-insensitive tenant: %.3f", sradSpeed)
	}
}

// TestRunMultiAppValidation: preset-shape problems come back as errors
// that name the constraint, not panics.
func TestRunMultiAppValidation(t *testing.T) {
	w, _ := workloads.ByName("SRAD")
	cases := []struct {
		name string
		apps []workloads.Workload
		want string
	}{
		{"no apps", nil, "at least one"},
		{"too many apps", []workloads.Workload{w, w, w, w, w}, "VM-ID limit"},
		{"non-dividing partition", []workloads.Workload{w, w, w}, "partition"},
	}
	for _, c := range cases {
		_, err := PrepareMultiApp(DefaultConfig(Baseline()), c.apps, 1)
		if err == nil {
			t.Errorf("%s: PrepareMultiApp accepted invalid preset", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestMultiAppSpacesAreTenantSpaces: the prepared system's address
// spaces are exactly the tenant spaces with distinct VM-IDs, so
// invariant probes and fault injectors see every tenant's page table.
func TestMultiAppSpacesAreTenantSpaces(t *testing.T) {
	mvt, _ := workloads.ByName("MVT")
	srad, _ := workloads.ByName("SRAD")
	m, err := PrepareMultiApp(DefaultConfig(Baseline()), []workloads.Workload{mvt, srad}, smokeScale)
	if err != nil {
		t.Fatalf("PrepareMultiApp: %v", err)
	}
	if len(m.Sys.Spaces) != 2 {
		t.Fatalf("system has %d spaces, want 2 tenant spaces", len(m.Sys.Spaces))
	}
	seen := map[uint8]bool{}
	for _, sp := range m.Sys.Spaces {
		if seen[sp.ID.VMID] {
			t.Errorf("duplicate VMID %d across tenant spaces", sp.ID.VMID)
		}
		seen[sp.ID.VMID] = true
	}
	if m.Sys.Space != m.Sys.Spaces[0] {
		t.Error("primary Space does not point at a live tenant space")
	}
}
