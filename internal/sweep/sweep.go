// Package sweep is the campaign engine: it expands a declarative
// experiment matrix (apps × translation schemes × scale × L2-TLB sizes
// × page sizes × chaos seeds) into run descriptors and executes them on
// a bounded worker pool, with a content-addressed result cache, a JSONL
// journal that makes killed campaigns resumable, retry-with-backoff for
// structured simulation failures, and an aggregation stage that emits
// the Figure 13/14-shaped speedup and page-walk tables.
//
// The paper's headline results (Figures 13–15) come from exactly such a
// matrix — ten workloads × schemes × sensitivity points — and every run
// is an independent, bit-deterministic simulation, so a campaign with
// procs=N produces byte-identical aggregates to the serial campaign.
package sweep

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"gpureach/internal/chaos"
	"gpureach/internal/core"
	"gpureach/internal/sample"
	"gpureach/internal/sim"
	"gpureach/internal/workloads"
)

// Spec is the declarative campaign matrix. Empty axes mean "the
// default": all ten apps, the baseline scheme only, scale 1.0, the
// Table 1 512-entry L2 TLB, 4K pages, no chaos, no co-tenants.
// Normalize fills the defaults and guarantees the baseline scheme and
// the fault-free chaos rate are present (speedups are relative to the
// former, robustness slowdowns to the latter).
type Spec struct {
	Apps      []string `json:"apps,omitempty"`
	Schemes   []string `json:"schemes,omitempty"`
	Scale     float64  `json:"scale,omitempty"`
	L2TLB     []int    `json:"l2tlb,omitempty"`
	PageSizes []string `json:"pagesizes,omitempty"`
	// Tenancy lists §7.2 multi-application co-run mixes, each a
	// "+"-joined workload list ("MVT+SRAD"). Every mix becomes one more
	// row of the app axis, simulated on an even CU partition with one
	// address space (distinct VM-ID) per tenant.
	Tenancy []string `json:"tenancy,omitempty"`
	// ChaosRates is the adversarial-condition ladder: expected fault
	// injections per cycle (§7.1 faults via internal/chaos). Rate 0 —
	// the fault-free anchor every robustness metric is measured
	// against — is always present after Normalize; each non-zero rate
	// is simulated once per chaos seed.
	ChaosRates []float64 `json:"chaos_rates,omitempty"`
	// ChaosSeeds are the per-rate trial seeds. Seed 0 is reserved for
	// the fault-free cell, so every listed seed must be non-zero.
	// Empty means seeds 1..Trials.
	ChaosSeeds []uint64 `json:"chaos_seeds,omitempty"`
	// Trials is sugar for ChaosSeeds: with no explicit seed list,
	// Trials=T runs each non-zero chaos rate at seeds 1..T (default 1).
	// Ignored when ChaosSeeds is set, and meaningless without a
	// non-zero rate (the fault-free cell is one deterministic run).
	Trials int `json:"trials,omitempty"`
	// SampleWindows > 0 switches every run of the campaign to sampled
	// execution (internal/sample) with that many measurement windows:
	// cycle counts in the journal and aggregates become extrapolated
	// estimates, with the full per-window Estimate (mean ± 95% CI)
	// journaled alongside. Sampling composes with neither chaos
	// injection (faults target timed machinery that fast-forward skips)
	// nor tenancy mixes (windows are scheduled over a single
	// launch sequence) — Validate rejects both combinations.
	SampleWindows int `json:"sample_windows,omitempty"`
	// SampleDetailFrac is the detailed fraction of each window;
	// Normalize fills sample.DefaultDetailFrac when unset.
	SampleDetailFrac float64 `json:"sample_detail_frac,omitempty"`
	// SampleSeed jitters the window schedule.
	SampleSeed uint64 `json:"sample_seed,omitempty"`
}

// SampleConfig assembles the spec's sampling axis as the sample
// package's config type.
func (s Spec) SampleConfig() sample.Config {
	return sample.Config{Windows: s.SampleWindows, DetailFrac: s.SampleDetailFrac, Seed: s.SampleSeed}
}

// Normalize returns the spec with defaults filled in: all apps if
// neither apps nor tenancy mixes are named, the baseline scheme
// prepended (and deduplicated) so every point has its speedup
// reference, the fault-free chaos rate prepended (and the ladder
// deduplicated) so every robustness point has its slowdown anchor,
// scale 1.0 when unset (only 0 counts as unset: Validate rejects
// negative and non-finite scales), and singleton default axes
// elsewhere.
func (s Spec) Normalize() Spec {
	n := s
	if len(n.Apps) == 0 && len(n.Tenancy) == 0 {
		for _, w := range workloads.All() {
			n.Apps = append(n.Apps, w.Name)
		}
	}
	schemes := []string{core.Baseline().Name}
	seen := map[string]bool{core.Baseline().Name: true}
	for _, name := range n.Schemes {
		if !seen[name] {
			seen[name] = true
			schemes = append(schemes, name)
		}
	}
	n.Schemes = schemes
	if n.Scale == 0 {
		n.Scale = 1.0
	}
	if len(n.L2TLB) == 0 {
		n.L2TLB = []int{core.DefaultConfig(core.Baseline()).L2TLBEntries}
	}
	if len(n.PageSizes) == 0 {
		n.PageSizes = []string{"4K"}
	}
	rates := []float64{0}
	seenRate := map[float64]bool{0: true}
	for _, r := range n.ChaosRates {
		if !seenRate[r] {
			seenRate[r] = true
			rates = append(rates, r)
		}
	}
	n.ChaosRates = rates
	if n.SampleWindows > 0 {
		sc := n.SampleConfig().Normalize()
		n.SampleDetailFrac = sc.DetailFrac
	}
	if len(rates) > 1 && len(n.ChaosSeeds) == 0 {
		trials := n.Trials
		if trials <= 0 {
			trials = 1
		}
		for t := 1; t <= trials; t++ {
			n.ChaosSeeds = append(n.ChaosSeeds, uint64(t))
		}
	}
	return n
}

// SplitTenants resolves a "+"-joined tenancy mix into its workloads,
// with errors that list the valid names.
func SplitTenants(mix string) ([]workloads.Workload, error) {
	var names []string
	for _, p := range strings.Split(mix, "+") {
		if p = strings.TrimSpace(p); p != "" {
			names = append(names, p)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("empty tenancy mix %q", mix)
	}
	return core.ResolveApps(names)
}

// unit is one row of the app axis: a solo workload, or a tenancy mix
// (named by its "+"-joined tenant list, with tenants set).
type unit struct {
	app     string
	tenants string
}

// units enumerates the app-axis rows in spec order: solo workloads
// first, then tenancy mixes.
func (s Spec) units() []unit {
	var us []unit
	for _, app := range s.Apps {
		us = append(us, unit{app: app})
	}
	for _, mix := range s.Tenancy {
		us = append(us, unit{app: mix, tenants: mix})
	}
	return us
}

// chaosCell is one chaos coordinate of the matrix: an injection rate
// and the schedule seed for one trial at that rate.
type chaosCell struct {
	rate float64
	seed uint64
}

// chaosCells enumerates the chaos coordinates in deterministic spec
// order: the fault-free anchor (rate 0, seed 0) first, then every
// non-zero rate × trial seed.
func (s Spec) chaosCells() []chaosCell {
	cells := []chaosCell{{0, 0}}
	for _, r := range s.ChaosRates {
		if r == 0 {
			continue
		}
		for _, seed := range s.ChaosSeeds {
			cells = append(cells, chaosCell{r, seed})
		}
	}
	return cells
}

// Validate rejects unknown apps, schemes, page sizes and tenancy
// mixes with errors that list the valid names, and with errors that
// name the rule: a repeated app, tenancy mix, L2 TLB size or page size
// (it would weigh twice in the geomeans), NaN, infinite or negative
// scales, L2 TLB sizes that are not a positive multiple of its
// associativity, and malformed chaos dimensions (NaN/negative/
// super-unity rates, the reserved seed 0, seeds without a rate to pair
// with).
// It expects a Normalized spec but also works on a raw one.
func (s Spec) Validate() error {
	if _, err := core.ResolveApps(s.Apps); err != nil {
		return fmt.Errorf("sweep spec: %w", err)
	}
	if err := core.ValidateScale(s.Scale); err != nil {
		return fmt.Errorf("sweep spec: %w", err)
	}
	if err := errors.Join(distinct("tenancy mix", s.Tenancy),
		distinct("L2 TLB size", s.L2TLB), distinct("page size", s.PageSizes)); err != nil {
		return err
	}
	for _, name := range s.Schemes {
		if _, ok := core.SchemeByName(name); !ok {
			return fmt.Errorf("sweep spec: unknown scheme %q (valid: %s)",
				name, strings.Join(core.SchemeNames(), ", "))
		}
	}
	for _, ps := range s.PageSizes {
		if _, ok := core.PageSizeByName(ps); !ok {
			return fmt.Errorf("sweep spec: unknown page size %q (valid: %s)",
				ps, strings.Join(core.PageSizeNames(), ", "))
		}
	}
	for _, e := range s.L2TLB {
		if err := core.ValidateL2TLB(e); err != nil {
			return fmt.Errorf("sweep spec: %w", err)
		}
	}
	for _, mix := range s.Tenancy {
		apps, err := SplitTenants(mix)
		if err != nil {
			return fmt.Errorf("sweep spec: tenancy: %w", err)
		}
		if err := core.ValidateMultiApp(core.DefaultConfig(core.Baseline()), apps); err != nil {
			return fmt.Errorf("sweep spec: tenancy %q: %w", mix, err)
		}
	}
	hasChaos := false
	for _, r := range s.ChaosRates {
		if err := chaos.ValidateRate(r); err != nil {
			return fmt.Errorf("sweep spec: chaos rate: %w", err)
		}
		if r > 0 {
			hasChaos = true
		}
	}
	for _, seed := range s.ChaosSeeds {
		if seed == 0 {
			return fmt.Errorf("sweep spec: chaos seed 0 is reserved for the fault-free cell")
		}
	}
	if len(s.ChaosSeeds) > 0 && !hasChaos {
		return fmt.Errorf("sweep spec: chaos seeds %v given without a non-zero chaos rate", s.ChaosSeeds)
	}
	if s.Trials < 0 {
		return fmt.Errorf("sweep spec: negative trials %d", s.Trials)
	}
	if err := s.SampleConfig().Validate(); err != nil {
		return fmt.Errorf("sweep spec: %w", err)
	}
	if s.SampleWindows > 0 {
		if hasChaos {
			return fmt.Errorf("sweep spec: sampling and chaos injection are mutually exclusive (faults target timed machinery that fast-forward skips)")
		}
		if len(s.Tenancy) > 0 {
			return fmt.Errorf("sweep spec: sampling and tenancy mixes are mutually exclusive (windows are scheduled over a single launch sequence)")
		}
	}
	return nil
}

// distinct rejects a spec axis that names a value twice.
func distinct[T comparable](axis string, xs []T) error {
	seen := map[T]bool{}
	for _, x := range xs {
		if seen[x] {
			return fmt.Errorf("sweep spec: %s %v named more than once", axis, x)
		}
		seen[x] = true
	}
	return nil
}

// Expand enumerates the matrix into run descriptors in deterministic
// nested order: app-axis unit (solo workloads, then tenancy mixes) ×
// scheme × L2-TLB × page size × chaos cell (fault-free first, then
// rate × seed). Aggregation, the robustness scorecard and the
// determinism tests rely on this order being a pure function of the
// spec.
func (s Spec) Expand() []Run {
	var runs []Run
	for _, u := range s.units() {
		for _, scheme := range s.Schemes {
			for _, l2 := range s.L2TLB {
				for _, ps := range s.PageSizes {
					for _, cell := range s.chaosCells() {
						runs = append(runs, s.run(u, scheme, l2, ps, cell))
					}
				}
			}
		}
	}
	return runs
}

// run is the matrix cell of unit u under scheme at one L2-TLB size,
// page size and chaos cell.
func (s Spec) run(u unit, scheme string, l2 int, ps string, cell chaosCell) Run {
	return Run{
		App: u.app, Tenants: u.tenants,
		Scheme: scheme, Scale: s.Scale,
		L2TLB: l2, PageSize: ps,
		ChaosSeed: cell.seed, ChaosRate: cell.rate,
		SampleWindows:    s.SampleWindows,
		SampleDetailFrac: s.SampleDetailFrac,
		SampleSeed:       s.SampleSeed,
	}
}

// Run is one fully-determined simulation: a point of the campaign
// matrix. Its canonical form (and hence digest) is a content address
// for the run's results.
type Run struct {
	App string `json:"app"`
	// Tenants is the "+"-joined co-run mix for a §7.2 multi-tenant run;
	// empty for solo runs. Tenancy runs repeat the mix string in App so
	// rows label naturally, and the field stays a string (not a slice)
	// so Run remains comparable — the resume/robustness indexes and the
	// determinism tests rely on Run values as map keys.
	Tenants   string  `json:"tenants,omitempty"`
	Scheme    string  `json:"scheme"`
	Scale     float64 `json:"scale"`
	L2TLB     int     `json:"l2tlb"`
	PageSize  string  `json:"pagesize"`
	ChaosSeed uint64  `json:"chaos_seed,omitempty"`
	ChaosRate float64 `json:"chaos_rate,omitempty"`
	// ChaosMax stops injecting after this many faults (0 = no cap). No
	// Spec axis sets it; the single-run CLI's -chaos max=M does.
	ChaosMax uint64 `json:"chaos_max,omitempty"`
	// SampleWindows/SampleDetailFrac/SampleSeed select sampled
	// execution for this run (0 windows = full detail). Scalar fields,
	// not a nested struct, so Run stays comparable — the resume and
	// robustness indexes use Run values as map keys.
	SampleWindows    int     `json:"sample_windows,omitempty"`
	SampleDetailFrac float64 `json:"sample_detail_frac,omitempty"`
	SampleSeed       uint64  `json:"sample_seed,omitempty"`
	// The sensitivity knobs of the paper experiments, which no Spec
	// axis sweeps. Zero means the Table 1 default. PerfectL2TLB is the
	// Fig 2 bound; ICSharers is the Fig 16a sharing degree at constant
	// total I-cache capacity; the wire latencies are the Fig 16b extra
	// cycles; LDSSegmentBytes is the §6.3.1 segment size.
	PerfectL2TLB    bool     `json:"perfect_l2tlb,omitempty"`
	ICSharers       int      `json:"ic_sharers,omitempty"`
	WireLatencyIC   sim.Time `json:"wire_latency_ic,omitempty"`
	WireLatencyLDS  sim.Time `json:"wire_latency_lds,omitempty"`
	LDSSegmentBytes int      `json:"lds_segment_bytes,omitempty"`
}

// SampleConfig assembles the run's sampling coordinate.
func (r Run) SampleConfig() sample.Config {
	return sample.Config{Windows: r.SampleWindows, DetailFrac: r.SampleDetailFrac, Seed: r.SampleSeed}
}

// Config materializes the core configuration for this run.
func (r Run) Config() (core.Config, error) {
	scheme, ok := core.SchemeByName(r.Scheme)
	if !ok {
		return core.Config{}, fmt.Errorf("sweep: unknown scheme %q", r.Scheme)
	}
	ps, ok := core.PageSizeByName(r.PageSize)
	if !ok {
		return core.Config{}, fmt.Errorf("sweep: unknown page size %q", r.PageSize)
	}
	if err := core.ValidateL2TLB(r.L2TLB); err != nil {
		return core.Config{}, fmt.Errorf("sweep: %w", err)
	}
	cfg := core.DefaultConfig(scheme)
	cfg.L2TLBEntries = r.L2TLB
	cfg.PageSize = ps
	cfg.PerfectL2TLB = r.PerfectL2TLB
	if r.ICSharers != 0 {
		if r.ICSharers < 0 || cfg.GPU.NumCUs%r.ICSharers != 0 {
			return core.Config{}, fmt.Errorf("sweep: %d I-cache sharers do not divide %d CUs", r.ICSharers, cfg.GPU.NumCUs)
		}
		total := cfg.ICache.SizeBytes * (cfg.GPU.NumCUs / cfg.ICSharers)
		cfg.ICSharers = r.ICSharers
		cfg.ICache.SizeBytes = total / (cfg.GPU.NumCUs / r.ICSharers)
	}
	cfg.WireLatencyIC += r.WireLatencyIC
	cfg.WireLatencyLDS += r.WireLatencyLDS
	if r.LDSSegmentBytes != 0 {
		cfg.LDS.SegmentBytes = r.LDSSegmentBytes
	}
	return cfg, nil
}

// Canonical returns the canonical serialization of the complete run
// configuration: the core config's canonical form plus the run-level
// fields (app, scale, chaos schedule) that the config alone does not
// capture. Equal canonical forms mean bit-identical simulations.
func (r Run) Canonical() string {
	var b strings.Builder
	cfg, err := r.Config()
	if err != nil {
		// An unresolvable run still needs a stable identity so the
		// failure is cacheable/journalable; embed the error itself.
		fmt.Fprintf(&b, "invalid=%v\n", err)
	} else {
		b.WriteString(cfg.Canonical())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "run.App=%s\n", r.App)
	fmt.Fprintf(&b, "run.Scale=%v\n", r.Scale)
	fmt.Fprintf(&b, "run.ChaosSeed=%d\n", r.ChaosSeed)
	fmt.Fprintf(&b, "run.ChaosRate=%v\n", r.ChaosRate)
	// Written only for tenancy runs so every solo run's canonical form
	// — and hence its cache digest — is unchanged from before the
	// tenancy dimension existed.
	if r.Tenants != "" {
		fmt.Fprintf(&b, "run.Tenants=%s\n", r.Tenants)
	}
	// Same rule for the sampling coordinate: a sampled run's estimate
	// must never be served from (or overwrite) the full-detail cache
	// slot, and full-detail digests predating the sampling dimension
	// stay valid.
	if r.SampleWindows > 0 {
		fmt.Fprintf(&b, "run.SampleWindows=%d\n", r.SampleWindows)
		fmt.Fprintf(&b, "run.SampleDetailFrac=%v\n", r.SampleDetailFrac)
		fmt.Fprintf(&b, "run.SampleSeed=%d\n", r.SampleSeed)
	}
	// And for the injection cap: uncapped chaos runs keep their slots.
	if r.ChaosMax != 0 {
		fmt.Fprintf(&b, "run.ChaosMax=%d\n", r.ChaosMax)
	}
	return b.String()
}

// Digest is the FNV-1a 64-bit digest of the canonical run
// configuration — the key of the content-addressed result cache.
func (r Run) Digest() uint64 {
	h := fnv.New64a()
	h.Write([]byte(r.Canonical()))
	return h.Sum64()
}

// DigestHex is Digest as the fixed-width hex string used for cache
// file names and journal records.
func (r Run) DigestHex() string { return fmt.Sprintf("%016x", r.Digest()) }

// String identifies the run in progress lines.
func (r Run) String() string {
	app := r.App
	if r.Tenants != "" {
		app = "co-run " + r.Tenants
	}
	s := fmt.Sprintf("%s/%s l2tlb=%d page=%s scale=%g", app, r.Scheme, r.L2TLB, r.PageSize, r.Scale)
	if r.ChaosSeed != 0 {
		s += fmt.Sprintf(" chaos=%d@%g", r.ChaosSeed, r.ChaosRate)
	}
	if r.ChaosMax != 0 {
		s += fmt.Sprintf(" chaos-max=%d", r.ChaosMax)
	}
	if r.SampleWindows > 0 {
		s += " sampled " + r.SampleConfig().String()
	}
	if r.PerfectL2TLB {
		s += " perfect-l2tlb"
	}
	if r.ICSharers != 0 {
		s += fmt.Sprintf(" ic-sharers=%d", r.ICSharers)
	}
	if r.WireLatencyIC != 0 || r.WireLatencyLDS != 0 {
		s += fmt.Sprintf(" wire=+%d/+%d", r.WireLatencyIC, r.WireLatencyLDS)
	}
	if r.LDSSegmentBytes != 0 {
		s += fmt.Sprintf(" lds-seg=%dB", r.LDSSegmentBytes)
	}
	return s
}

// sortedKeys returns the sorted keys of a string-keyed float map —
// shared by the aggregation and CSV writers for deterministic output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
