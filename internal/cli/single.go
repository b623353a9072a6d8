package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gpureach/internal/chaos"
	"gpureach/internal/core"
	"gpureach/internal/sample"
	"gpureach/internal/sweep"
	"gpureach/internal/workloads"
)

// RunSingle runs the default gpureach command: one application (or one
// -tenants co-run mix) on one configuration, printed as a stats block.
// The flags become one sweep.Run, executed by sweep.ExecuteRun like
// every campaign, server and experiment run. It returns a process exit
// code: 0 on success, 1 when the simulation failed, 2 on usage errors.
func RunSingle(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpureach", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "ATAX", "workload name (see -list)")
	tenants := fs.String("tenants", "", "'+'-joined co-run mix (e.g. MVT+SRAD): run the §7.2 multi-tenant scenario instead of -app")
	scheme := fs.String("scheme", "baseline", "translation scheme: "+strings.Join(core.SchemeNames(), ", "))
	scale := fs.Float64("scale", 1.0, "footprint/instruction scale factor")
	l2tlb := fs.Int("l2tlb", 512, "L2 TLB entries")
	pageSize := fs.String("pagesize", "4K", "page size: "+strings.Join(core.PageSizeNames(), ", "))
	chaosSpec := fs.String("chaos", "", "fault injection: seed=N,rate=R[,max=M] — deterministic shootdowns, migrations, LDS reclaims and walker stalls with live invariant checks")
	sampleSpec := fs.String("sample", "", "sampled execution, e.g. windows=8,frac=0.05,seed=1 — cycles become an extrapolated mean ± 95% CI (empty: full detail)")
	list := fs.Bool("list", false, "list workloads, schemes and page sizes, then exit")
	listJSON := fs.Bool("json", false, "with -list: print the machine-readable catalog (what API clients feed into sweep specs)")
	prof := AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q (subcommands: sweep, serve, exp)\n", fs.Arg(0))
		return 2
	}
	if err := prof.Start(stderr); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer prof.Stop(stderr)

	if *list {
		if *listJSON {
			return printCatalogJSON(stdout, stderr)
		}
		printList(stdout)
		return 0
	}
	if *listJSON {
		fmt.Fprintln(stderr, "-json only applies to -list")
		return 2
	}

	// The flags describe one cell of a campaign matrix: validate it as a
	// one-cell spec and expand it into the Run a campaign would execute
	// (one value per axis and no chaos seeds expand to exactly one Run).
	// The chaos seed stays out of the spec, because -chaos allows the
	// seed 0 that campaigns reserve for their fault-free cell.
	spec := sweep.Spec{
		Schemes: []string{*scheme}, Scale: *scale,
		L2TLB: []int{*l2tlb}, PageSizes: []string{*pageSize},
	}
	if *tenants != "" {
		spec.Tenancy = []string{*tenants}
	} else {
		spec.Apps = []string{*app}
	}
	if *sampleSpec != "" {
		sc, err := sample.ParseSpec(*sampleSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		spec.SampleWindows, spec.SampleDetailFrac, spec.SampleSeed = sc.Windows, sc.DetailFrac, sc.Seed
	}
	var cc chaos.Config
	if *chaosSpec != "" {
		var err error
		if cc, err = chaos.ParseSpec(*chaosSpec); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		spec.ChaosRates = []float64{cc.Rate}
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	run := spec.Expand()[0]
	run.ChaosSeed, run.ChaosRate, run.ChaosMax = cc.Seed, cc.Rate, cc.MaxInjections

	rr, err := sweep.ExecuteRun(run)
	if err != nil {
		fmt.Fprintf(stderr, "simulation failed: %v\n", err)
		return 1
	}
	if run.Tenants != "" {
		printTenancy(stdout, run, rr)
	} else {
		printSolo(stdout, run, rr)
	}
	if c := rr.Chaos; c != nil {
		digest, _ := strconv.ParseUint(c.ScheduleDigest, 16, 64) // hex by construction
		st := c.Stats
		fmt.Fprintf(stdout, "chaos          %d injections (shootdown=%d migrate=%d reclaim=%d stall=%d vmshoot=%d migstorm=%d), digest %#016x\n",
			st.Injections, st.Shootdowns, st.Migrations, st.Reclaims, st.Stalls,
			st.VMShootdowns, st.MigStorms, digest)
		fmt.Fprintf(stdout, "invariants     %d probe runs, %d violations\n", c.ProbeRuns, st.Violations)
	}
	return 0
}

// printSolo prints the stats block of a single-application run.
func printSolo(stdout io.Writer, run sweep.Run, rr sweep.RunResult) {
	w, _ := workloads.ByName(run.App) // validated by the spec
	r := rr.Results
	fmt.Fprintf(stdout, "app            %s (%s, category %s)\n", w.Name, w.Suite, w.Category)
	fmt.Fprintf(stdout, "scheme         %s\n", r.Scheme)
	if est := rr.Sampled; est != nil {
		fmt.Fprintf(stdout, "cycles         %d ± %.0f (95%% CI, extrapolated from %d windows: %s)\n",
			r.Cycles, est.Cycles.CI95, est.Cycles.N, run.SampleConfig())
		fmt.Fprintf(stdout, "sampled        measured %d of %d wave instrs; CPI %.3f ± %.3f, IPC %.3f ± %.3f\n",
			est.MeasuredInstrs, est.TotalInstrs, est.CPI.Mean, est.CPI.CI95, est.IPC.Mean, est.IPC.CI95)
	} else {
		fmt.Fprintf(stdout, "cycles         %d\n", r.Cycles)
	}
	fmt.Fprintf(stdout, "kernels        %d\n", r.KernelsRun)
	fmt.Fprintf(stdout, "wave instrs    %d (thread instrs %d)\n", r.WaveInstrs, r.ThreadInstrs)
	fmt.Fprintf(stdout, "page walks     %d (PTW-PKI %.2f, L2-TLB misses %d)\n", r.PageWalks, r.PTWPKI, r.L2TLBMisses)
	fmt.Fprintf(stdout, "L1 TLB hit     %.1f%%\n", 100*r.L1TLBHitRate)
	fmt.Fprintf(stdout, "L2 TLB hit     %.1f%%\n", 100*r.L2TLBHitRate)
	fmt.Fprintf(stdout, "victim hits    LDS=%d IC=%d (of %d post-L1 lookups, %d invalidated mid-flight)\n",
		r.LDSTxHits, r.ICTxHits, r.VictimLookups, r.MidflightInvalidated)
	if r.DucatiHits > 0 {
		fmt.Fprintf(stdout, "DUCATI hits    %d\n", r.DucatiHits)
	}
	fmt.Fprintf(stdout, "DRAM           %d reads, %d writes, %.2f mJ\n", r.DRAMReads, r.DRAMWrites, r.DRAMEnergyPJ/1e9)
	fmt.Fprintf(stdout, "peak Tx gained %d entries\n", r.PeakTxResident)
	fmt.Fprintf(stdout, "Tx shared      %.1f%% across CUs\n", 100*r.SharedTxFraction)
}

// printTenancy prints the stats block of a §7.2 co-run: one line per
// tenant, then the shared system's end-to-end counters.
func printTenancy(stdout io.Writer, run sweep.Run, rr sweep.RunResult) {
	r := rr.Results
	cus := core.DefaultConfig(core.Baseline()).GPU.NumCUs / len(rr.PerApp)
	fmt.Fprintf(stdout, "tenants        %s (%d CUs each, separate VM-IDs)\n", run.Tenants, cus)
	fmt.Fprintf(stdout, "scheme         %s\n", r.Scheme)
	for _, p := range rr.PerApp {
		fmt.Fprintf(stdout, "  %-8s finished at %d cycles, %d kernels\n", p.App, p.FinishedAt, p.KernelsRun)
	}
	fmt.Fprintf(stdout, "cycles         %d (system end-to-end)\n", r.Cycles)
	fmt.Fprintf(stdout, "page walks     %d (PTW-PKI %.2f, L2-TLB misses %d)\n", r.PageWalks, r.PTWPKI, r.L2TLBMisses)
	fmt.Fprintf(stdout, "victim hits    LDS=%d IC=%d (of %d post-L1 lookups, %d invalidated mid-flight)\n",
		r.LDSTxHits, r.ICTxHits, r.VictimLookups, r.MidflightInvalidated)
}

// printList shows everything a sweep spec can name: the ten Table 2
// workloads, every translation scheme, and the supported page sizes.
func printList(stdout io.Writer) {
	fmt.Fprintln(stdout, "workloads (Table 2):")
	for _, w := range workloads.All() {
		fmt.Fprintf(stdout, "  %-5s %-10s category=%s usesLDS=%v b2bKernels=%v\n",
			w.Name, w.Suite, w.Category, w.UsesLDS, w.B2B)
	}
	fmt.Fprintln(stdout, "\nschemes (Figure 13/16 design points):")
	for _, name := range core.SchemeNames() {
		fmt.Fprintf(stdout, "  %-15s %s\n", name, SchemeDescription(name))
	}
	fmt.Fprintln(stdout, "\npage sizes (§6.2):")
	fmt.Fprintf(stdout, "  %s\n", strings.Join(core.PageSizeNames(), ", "))
}

// printCatalogJSON is the -list -json form: the same vocabulary as a
// machine-readable document (identical to the serve API's GET
// /catalog), so clients can build sweep specs without scraping text.
func printCatalogJSON(stdout, stderr io.Writer) int {
	data, err := json.MarshalIndent(BuildCatalog(), "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
