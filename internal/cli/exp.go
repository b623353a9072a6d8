// Package cli holds the command-line front ends shared between the
// gpureach binary's subcommands and the legacy single-purpose
// binaries that now shim onto them.
//
// The package is deliberately outside the detclock analyzer's scope
// (see internal/analysis.DefaultSuite): progress and elapsed-time
// reporting may read the wall clock here, but only onto stderr —
// stdout carries experiment tables and must be byte-identical across
// invocations.
package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"gpureach/internal/metrics"
	"gpureach/internal/sample"
	"gpureach/internal/sweep"
)

// RunExp runs the experiment subcommand (`gpureach exp ...`): it
// regenerates the paper's tables and figures by artifact ID. The
// selected experiments first declare their runs; the union, each
// digest once, is submitted at once to one sweep engine (GOMAXPROCS
// workers). Each experiment's tables print in selection order once its
// runs are done, and are identical at any worker count. It returns a
// process exit code: 0 on success, 1 when a simulation failed (stderr
// names the run), 2 on usage errors. Tables go to stdout, diagnostics
// and timing to stderr.
//
// Examples:
//
//	gpureach exp -list                     # show available experiments
//	gpureach exp -exp F13b                 # the headline Figure 13b
//	gpureach exp -exp T2 -apps ATAX,SRAD   # restrict the app set
//	gpureach exp -exp all -scale 0.25      # everything, fast and small
//	gpureach exp calibrate-sampling        # sampled-vs-full cross-validation
func RunExp(args []string, stdout, stderr io.Writer) int {
	return runExp(args, stdout, stderr, sweep.EngineOptions{})
}

// runExp is RunExp on an engine configured by eng (tests inject a
// failing RunFn here).
func runExp(args []string, stdout, stderr io.Writer, eng sweep.EngineOptions) int {
	if len(args) > 0 && args[0] == "calibrate-sampling" {
		return RunCalibrateSampling(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "", "experiment ID (see -list), or 'all'")
	scale := fs.Float64("scale", 1.0, "footprint/instruction scale factor")
	apps := fs.String("apps", "", "comma-separated workload subset (default: all ten)")
	sampleSpec := fs.String("sample", "", "sampled execution for every run, e.g. windows=6,frac=0.25,seed=1 (empty: full detail)")
	list := fs.Bool("list", false, "list experiments and exit")
	prof := AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := prof.Start(stderr); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer prof.Stop(stderr)

	if *list || *exp == "" {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range sweep.Experiments() {
			fmt.Fprintf(stdout, "  %-5s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}

	opts := sweep.ExpOptions{Scale: *scale}
	if *apps != "" {
		opts.Apps = strings.Split(*apps, ",")
	}
	if *sampleSpec != "" {
		sc, err := sample.ParseSpec(*sampleSpec)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		opts.Sampling = sc
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var selected []sweep.Experiment
	if *exp == "all" {
		selected = sweep.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := sweep.ExperimentByID(id)
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	start := time.Now()
	err := sweep.RunExperiments(selected, opts, eng, func(e sweep.Experiment, tables []*metrics.Table) {
		for _, t := range tables {
			t.Render(stdout)
		}
		// Elapsed time is wall-clock-dependent, so it goes to stderr:
		// stdout must be identical from run to run (the same contract
		// the sweep engine keeps for its artifacts).
		fmt.Fprintf(stderr, "[%s done at %s]\n", e.ID, time.Since(start).Round(time.Millisecond))
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
