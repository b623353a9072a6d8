// Command gpureach runs the simulated GPU: one application on one
// configuration, or (with the sweep subcommand) a whole cached,
// resumable campaign over the configuration matrix.
//
// Examples:
//
//	gpureach -app ATAX                      # baseline
//	gpureach -app ATAX -scheme ic+lds       # the paper's full design
//	gpureach -app GUPS -scheme lds -scale 0.25
//	gpureach -app BICG -l2tlb 8192 -pagesize 2M
//	gpureach -app ATAX -scheme ic+lds -chaos seed=1,rate=0.01
//	gpureach -list
//
//	gpureach sweep -schemes lds,ic+lds -scale 0.1 -procs 8 -out sweep-out
//	gpureach sweep -resume -out sweep-out   # pick up a killed campaign
//	gpureach sweep -scale 1.0 -workers 8    # shard runs across 8 worker processes
//	gpureach worker -listen :9123           # contribute this machine to a fleet
//
//	gpureach serve -addr 127.0.0.1:8787     # campaign server (HTTP/JSON API)
//	gpureach serve -executor shard -workers 8
//	gpureach -list -json                    # machine-readable spec vocabulary
//
//	gpureach exp -list                      # paper tables/figures by ID
//	gpureach exp -exp F13b -scale 0.25
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"gpureach/internal/chaos"
	"gpureach/internal/check"
	"gpureach/internal/cli"
	"gpureach/internal/core"
	"gpureach/internal/sample"
	"gpureach/internal/sweep"
	"gpureach/internal/workloads"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sweep":
			runSweep(os.Args[2:])
			return
		case "serve":
			runServe(os.Args[2:])
			return
		case "worker":
			runWorker(os.Args[2:])
			return
		case "exp":
			os.Exit(cli.RunExp(os.Args[2:], os.Stdout, os.Stderr))
		}
	}

	app := flag.String("app", "ATAX", "workload name (see -list)")
	tenants := flag.String("tenants", "", "'+'-joined co-run mix (e.g. MVT+SRAD): run the §7.2 multi-tenant scenario instead of -app")
	scheme := flag.String("scheme", "baseline", "translation scheme: "+strings.Join(core.SchemeNames(), ", "))
	scale := flag.Float64("scale", 1.0, "footprint/instruction scale factor")
	l2tlb := flag.Int("l2tlb", 512, "L2 TLB entries")
	pageSize := flag.String("pagesize", "4K", "page size: "+strings.Join(core.PageSizeNames(), ", "))
	chaosSpec := flag.String("chaos", "", "fault injection: seed=N,rate=R[,max=M] — deterministic shootdowns, migrations, LDS reclaims and walker stalls with live invariant checks")
	sampleSpec := flag.String("sample", "", "sampled execution, e.g. windows=8,frac=0.05,seed=1 — cycles become an extrapolated mean ± 95% CI (empty: full detail)")
	list := flag.Bool("list", false, "list workloads, schemes and page sizes, then exit")
	listJSON := flag.Bool("json", false, "with -list: print the machine-readable catalog (what API clients feed into sweep specs)")
	prof := cli.AddProfileFlags(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer prof.Stop(os.Stderr)

	if *list {
		if *listJSON {
			printCatalogJSON()
		} else {
			printList()
		}
		return
	}
	if *listJSON {
		fmt.Fprintln(os.Stderr, "-json only applies to -list")
		os.Exit(2)
	}
	if err := core.ValidateScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "-scale: %v\n", err)
		os.Exit(2)
	}

	var sampleCfg sample.Config
	if *sampleSpec != "" {
		var err error
		if sampleCfg, err = sample.ParseSpec(*sampleSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *chaosSpec != "" {
			fmt.Fprintln(os.Stderr, "-sample and -chaos are mutually exclusive: faults target timed machinery that fast-forward skips")
			os.Exit(2)
		}
		if *tenants != "" {
			fmt.Fprintln(os.Stderr, "-sample and -tenants are mutually exclusive: windows are scheduled over a single launch sequence")
			os.Exit(2)
		}
	}

	if *tenants != "" {
		runCoTenants(*tenants, *scheme, *l2tlb, *pageSize, *scale, *chaosSpec)
		return
	}

	w, ok := workloads.ByName(*app)
	if !ok {
		if _, err := core.ResolveApps([]string{*app}); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
	s, ok := core.SchemeByName(*scheme)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scheme %q (options: %s)\n", *scheme, strings.Join(core.SchemeNames(), ", "))
		os.Exit(2)
	}
	ps, ok := core.PageSizeByName(*pageSize)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown page size %q (options: %s)\n", *pageSize, strings.Join(core.PageSizeNames(), ", "))
		os.Exit(2)
	}

	cfg := core.DefaultConfig(s)
	cfg.L2TLBEntries = *l2tlb
	cfg.PageSize = ps

	var injector *chaos.Injector
	sys := core.NewSystem(cfg)
	if *chaosSpec != "" {
		ccfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sys.Checker = check.NewChecker()
		injector = chaos.New(sys, ccfg)
		injector.Arm()
	}
	kernels := w.Build(sys.Space, *scale)
	var ctrl *sample.Controller
	if sampleCfg.Enabled() {
		ctrl = sys.ArmSampling(sampleCfg, kernels)
	}
	r, err := sys.Run(w.Name, kernels)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulation failed: %v\n", err)
		os.Exit(1)
	}
	var est *sample.Estimate
	if ctrl != nil {
		est = ctrl.Estimate()
		core.ApplyEstimate(&r, est)
	}
	fmt.Printf("app            %s (%s, category %s)\n", w.Name, w.Suite, w.Category)
	fmt.Printf("scheme         %s\n", r.Scheme)
	if est != nil {
		fmt.Printf("cycles         %d ± %.0f (95%% CI, extrapolated from %d windows: %s)\n",
			r.Cycles, est.Cycles.CI95, est.Cycles.N, sampleCfg)
		fmt.Printf("sampled        measured %d of %d wave instrs; CPI %.3f ± %.3f, IPC %.3f ± %.3f\n",
			est.MeasuredInstrs, est.TotalInstrs, est.CPI.Mean, est.CPI.CI95, est.IPC.Mean, est.IPC.CI95)
	} else {
		fmt.Printf("cycles         %d\n", r.Cycles)
	}
	fmt.Printf("kernels        %d\n", r.KernelsRun)
	fmt.Printf("wave instrs    %d (thread instrs %d)\n", r.WaveInstrs, r.ThreadInstrs)
	fmt.Printf("page walks     %d (PTW-PKI %.2f, L2-TLB misses %d)\n", r.PageWalks, r.PTWPKI, r.L2TLBMisses)
	fmt.Printf("L1 TLB hit     %.1f%%\n", 100*r.L1TLBHitRate)
	fmt.Printf("L2 TLB hit     %.1f%%\n", 100*r.L2TLBHitRate)
	fmt.Printf("victim hits    LDS=%d IC=%d (of %d post-L1 lookups, %d invalidated mid-flight)\n",
		r.LDSTxHits, r.ICTxHits, r.VictimLookups, r.MidflightInvalidated)
	if r.DucatiHits > 0 {
		fmt.Printf("DUCATI hits    %d\n", r.DucatiHits)
	}
	fmt.Printf("DRAM           %d reads, %d writes, %.2f mJ\n", r.DRAMReads, r.DRAMWrites, r.DRAMEnergyPJ/1e9)
	fmt.Printf("peak Tx gained %d entries\n", r.PeakTxResident)
	fmt.Printf("Tx shared      %.1f%% across CUs\n", 100*r.SharedTxFraction)
	if injector != nil {
		printChaos(injector, sys.Checker)
	}
}

func printChaos(injector *chaos.Injector, checker *check.Checker) {
	st := injector.Stats()
	fmt.Printf("chaos          %d injections (shootdown=%d migrate=%d reclaim=%d stall=%d vmshoot=%d migstorm=%d), digest %#016x\n",
		st.Injections, st.Shootdowns, st.Migrations, st.Reclaims, st.Stalls,
		st.VMShootdowns, st.MigStorms, injector.Digest())
	fmt.Printf("invariants     %d probe runs, %d violations\n", checker.Runs(), len(checker.Violations))
}

// runCoTenants is the -tenants path: the §7.2 multi-application
// scenario as a single CLI invocation, with optional chaos injection
// covering every tenant's address space. Preset-shape mistakes (bad
// names, too many tenants, an uneven CU partition) come back as
// ordinary errors and a usage exit, not panics.
func runCoTenants(mix, scheme string, l2tlb int, pageSize string, scale float64, chaosSpec string) {
	apps, err := sweep.SplitTenants(mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s, ok := core.SchemeByName(scheme)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scheme %q (options: %s)\n", scheme, strings.Join(core.SchemeNames(), ", "))
		os.Exit(2)
	}
	ps, ok := core.PageSizeByName(pageSize)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown page size %q (options: %s)\n", pageSize, strings.Join(core.PageSizeNames(), ", "))
		os.Exit(2)
	}
	cfg := core.DefaultConfig(s)
	cfg.L2TLBEntries = l2tlb
	cfg.PageSize = ps

	m, err := core.PrepareMultiApp(cfg, apps, scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var injector *chaos.Injector
	if chaosSpec != "" {
		ccfg, err := chaos.ParseSpec(chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		m.Sys.Checker = check.NewChecker()
		injector = chaos.New(m.Sys, ccfg)
		injector.Arm()
	}
	per, r, err := m.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulation failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("tenants        %s (%d CUs each, separate VM-IDs)\n", mix, cfg.GPU.NumCUs/len(apps))
	fmt.Printf("scheme         %s\n", r.Scheme)
	for _, p := range per {
		fmt.Printf("  %-8s finished at %d cycles, %d kernels\n", p.App, p.FinishedAt, p.KernelsRun)
	}
	fmt.Printf("cycles         %d (system end-to-end)\n", r.Cycles)
	fmt.Printf("page walks     %d (PTW-PKI %.2f, L2-TLB misses %d)\n", r.PageWalks, r.PTWPKI, r.L2TLBMisses)
	fmt.Printf("victim hits    LDS=%d IC=%d (of %d post-L1 lookups, %d invalidated mid-flight)\n",
		r.LDSTxHits, r.ICTxHits, r.VictimLookups, r.MidflightInvalidated)
	if injector != nil {
		printChaos(injector, m.Sys.Checker)
	}
}

// printList shows everything a sweep spec can name: the ten Table 2
// workloads, every translation scheme, and the supported page sizes.
func printList() {
	fmt.Println("workloads (Table 2):")
	for _, w := range workloads.All() {
		fmt.Printf("  %-5s %-10s category=%s usesLDS=%v b2bKernels=%v\n",
			w.Name, w.Suite, w.Category, w.UsesLDS, w.B2B)
	}
	fmt.Println("\nschemes (Figure 13/16 design points):")
	for _, name := range core.SchemeNames() {
		fmt.Printf("  %-15s %s\n", name, cli.SchemeDescription(name))
	}
	fmt.Println("\npage sizes (§6.2):")
	fmt.Printf("  %s\n", strings.Join(core.PageSizeNames(), ", "))
}

// printCatalogJSON is the -list -json form: the same vocabulary as a
// machine-readable document (identical to the serve API's GET
// /catalog), so clients can build sweep specs without scraping text.
func printCatalogJSON() {
	data, err := json.MarshalIndent(cli.BuildCatalog(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("%s\n", data)
}
