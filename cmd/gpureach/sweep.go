package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gpureach/internal/cli"
	"gpureach/internal/sample"
	"gpureach/internal/sweep"
)

// runSweep is the `gpureach sweep` subcommand: expand a campaign
// matrix, execute it on a worker pool with caching/journaling, and
// write the aggregated artifacts.
func runSweep(args []string) {
	fs := flag.NewFlagSet("gpureach sweep", flag.ExitOnError)
	apps := fs.String("apps", "", "comma-separated workloads (default: all ten)")
	schemes := fs.String("schemes", "", "comma-separated schemes (default: baseline only; baseline is always included)")
	scale := fs.Float64("scale", 1.0, "footprint/instruction scale factor")
	l2tlb := fs.String("l2tlb", "", "comma-separated L2 TLB entry counts (default: 512)")
	pageSizes := fs.String("pagesizes", "", "comma-separated page sizes: 4K, 64K, 2M (default: 4K)")
	tenancy := fs.String("tenancy", "", "comma-separated co-run mixes, each '+'-joined (e.g. MVT+SRAD,GEV+SSSP)")
	chaosRates := fs.String("chaos-rates", "", "comma-separated chaos injection rates per cycle; the fault-free rate 0 is always included")
	seeds := fs.String("chaos-seeds", "", "comma-separated non-zero chaos trial seeds (default: 1..trials)")
	trials := fs.Int("trials", 0, "trials per non-zero chaos rate when -chaos-seeds is empty (default: 1)")
	sampleSpec := fs.String("sample", "", "sampled execution for every run, e.g. windows=6,frac=0.25,seed=1 (empty: full detail; journals mean ± 95% CI)")
	procs := fs.Int("procs", 0, "worker pool size (default: GOMAXPROCS)")
	out := fs.String("out", "sweep-out", "campaign directory (cache/, journal.jsonl, aggregate.json/csv)")
	resume := fs.Bool("resume", false, "resume a killed campaign from its journal")
	retries := fs.Int("retries", 3, "max attempts per run on simulation errors")
	quiet := fs.Bool("quiet", false, "suppress per-run progress lines")
	noTables := fs.Bool("no-tables", false, "skip printing aggregate tables to stdout")
	prof := cli.AddProfileFlags(fs)
	fs.Parse(args)
	if err := prof.Start(os.Stderr); err != nil {
		fatalf("%v", err)
	}
	// fatalf exits without unwinding, so the deferred Stop only covers
	// successful campaigns — exactly the runs worth profiling.
	defer prof.Stop(os.Stderr)

	spec := sweep.Spec{Scale: *scale, Trials: *trials}
	spec.Apps = splitList(*apps)
	spec.Schemes = splitList(*schemes)
	spec.PageSizes = splitList(*pageSizes)
	spec.Tenancy = splitList(*tenancy)
	for _, s := range splitList(*l2tlb) {
		v, err := strconv.Atoi(s)
		if err != nil {
			fatalf("bad -l2tlb entry %q: %v", s, err)
		}
		spec.L2TLB = append(spec.L2TLB, v)
	}
	for _, s := range splitList(*chaosRates) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			fatalf("bad -chaos-rates entry %q: %v", s, err)
		}
		spec.ChaosRates = append(spec.ChaosRates, v)
	}
	for _, s := range splitList(*seeds) {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			fatalf("bad -chaos-seeds entry %q: %v", s, err)
		}
		spec.ChaosSeeds = append(spec.ChaosSeeds, v)
	}
	if *sampleSpec != "" {
		sc, err := sample.ParseSpec(*sampleSpec)
		if err != nil {
			fatalf("%v", err)
		}
		spec.SampleWindows = sc.Windows
		spec.SampleDetailFrac = sc.DetailFrac
		spec.SampleSeed = sc.Seed
	}
	if err := spec.Normalize().Validate(); err != nil {
		fatalf("%v", err)
	}

	opts := sweep.Options{
		Procs:       *procs,
		OutDir:      *out,
		Resume:      *resume,
		MaxAttempts: *retries,
	}
	if !*quiet {
		opts.Progress = func(p sweep.Progress) {
			status := "ran"
			switch {
			case p.Record.Failed():
				status = "FAILED"
			case p.Record.Cached:
				status = "cache"
			case p.Record.Attempts == 0:
				status = "journal"
			}
			line := fmt.Sprintf("[%d/%d] %-7s %s", p.Completed, p.Total, status, p.Record.Run)
			if p.Record.Attempts > 1 {
				line += fmt.Sprintf(" (attempts=%d)", p.Record.Attempts)
			}
			line += fmt.Sprintf("  [cache %d, journal %d, retries %d, failed %d]",
				p.CacheHits, p.JournalHits, p.Retries, p.Failed)
			fmt.Fprintln(os.Stderr, line)
		}
	}

	campaign, err := sweep.Execute(spec, opts)
	if err != nil {
		fatalf("sweep failed: %v", err)
	}

	art, err := campaign.WriteArtifacts(*out)
	if err != nil {
		fatalf("%v", err)
	}
	if !*noTables {
		for _, t := range art.Aggregate.Tables() {
			t.Render(os.Stdout)
		}
		for _, t := range art.Robustness.Tables() {
			t.Render(os.Stdout)
		}
	}

	st := campaign.Stats
	fmt.Printf("sweep: %d runs (%d executed, %d cache hits, %d journal hits, %d retries, %d failed) in %.1fs\n",
		st.Total, st.Executed, st.CacheHits, st.JournalHits, st.Retries, st.Failed, st.WallMS/1000)
	artifacts := "aggregate.json, aggregate.csv, journal.jsonl, cache/"
	if art.RobJSON != nil {
		artifacts = "aggregate.json/csv, robustness.json/csv, journal.jsonl, cache/"
	}
	fmt.Printf("sweep: artifacts in %s (%s)\n", *out, artifacts)
	// Failure policy: a chaos cell that dies under injected faults is a
	// *measurement* — it degrades the scorecard's completion rate, and
	// the campaign still succeeds. A fault-free run failing means the
	// simulator itself is broken, and that stays fatal.
	faultFreeFailed := 0
	for _, rec := range campaign.Records {
		if rec.Failed() && rec.Run.ChaosRate == 0 {
			faultFreeFailed++
		}
	}
	if faultFreeFailed > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d fault-free run(s) failed\n", faultFreeFailed)
		prof.Stop(os.Stderr)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
