package core

import (
	"strings"
	"testing"
)

func TestCanonicalEqualConfigsEqualForms(t *testing.T) {
	a := DefaultConfig(Combined())
	b := DefaultConfig(Combined())
	if a.Canonical() != b.Canonical() {
		t.Fatal("identical configs produced different canonical forms")
	}
}

func TestCanonicalSeparatesEveryKnob(t *testing.T) {
	base := DefaultConfig(Baseline())
	mutations := []func(*Config){
		func(c *Config) { c.L2TLBEntries = 8192 },
		func(c *Config) { c.PageSize = 2 << 20 },
		func(c *Config) { c.Scheme = Combined() },
		func(c *Config) { c.ICSharers = 8 },
		func(c *Config) { c.LDS.SegmentBytes = 64 },
		func(c *Config) { c.WireLatencyIC = 100 },
		func(c *Config) { c.Watchdog.NoProgressEvents = 1 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig(Baseline())
		mutate(&cfg)
		if cfg.Canonical() == base.Canonical() {
			t.Errorf("mutation %d not visible in canonical form", i)
		}
	}
}

func TestCanonicalNamesFields(t *testing.T) {
	c := DefaultConfig(Baseline()).Canonical()
	for _, want := range []string{"L2TLBEntries=512", "GPU.", "Scheme.Name=baseline", "LDS."} {
		if !strings.Contains(c, want) {
			t.Errorf("canonical form missing %q:\n%s", want, c)
		}
	}
}

func TestResolveAppsErrors(t *testing.T) {
	ws, err := ResolveApps(nil)
	if err != nil || len(ws) != 10 {
		t.Fatalf("ResolveApps(nil) = %d apps, err %v; want all ten", len(ws), err)
	}
	ws, err = ResolveApps([]string{"ATAX", "HAL9000"})
	if err == nil {
		t.Fatal("unknown app accepted")
	}
	for _, want := range []string{"HAL9000", "ATAX", "GUPS"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q (unknown name + valid list)", err, want)
		}
	}
	if len(ws) != 1 || ws[0].Name != "ATAX" {
		t.Fatalf("resolvable subset = %v, want [ATAX]", ws)
	}
	// A repeated name would weigh its app twice in every geomean.
	if _, err = ResolveApps([]string{"GUPS", "GUPS", "SRAD"}); err == nil || !strings.Contains(err.Error(), "GUPS named more than once") {
		t.Fatalf("repeated app: err %v, want it named", err)
	}
}

func TestSchemeAndPageSizeRegistries(t *testing.T) {
	if len(Schemes()) != len(SchemeNames()) {
		t.Fatal("Schemes/SchemeNames length mismatch")
	}
	for _, name := range SchemeNames() {
		s, ok := SchemeByName(name)
		if !ok || s.Name != name {
			t.Errorf("SchemeByName(%q) = %v, %v", name, s, ok)
		}
	}
	if _, ok := SchemeByName("warp-drive"); ok {
		t.Error("unknown scheme resolved")
	}
	for _, name := range PageSizeNames() {
		ps, ok := PageSizeByName(name)
		if !ok {
			t.Errorf("PageSizeByName(%q) failed", name)
		}
		if PageSizeName(ps) != name {
			t.Errorf("PageSizeName(%v) = %q, want %q", ps, PageSizeName(ps), name)
		}
	}
	if _, ok := PageSizeByName("1G"); ok {
		t.Error("unknown page size resolved")
	}
}
