package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"gpureach/internal/sample"
	"gpureach/internal/sweep"
)

// RunCalibrateSampling runs `gpureach exp calibrate-sampling`: the
// statistical cross-validation harness for sampled execution. Every
// cell of an app × scheme matrix is simulated both in full detail and
// sampled, and the resulting error table proves (or refutes) that
// sampled speedups track full-detail speedups within the error budget
// and that the 95% confidence intervals cover the truth.
//
// Exit code 0 means the table passed; 1 means at least one cell
// violated the budget or escaped its interval (the offending cells are
// listed on stderr); 2 is a usage error.
func RunCalibrateSampling(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("exp calibrate-sampling", flag.ContinueOnError)
	fs.SetOutput(stderr)
	apps := fs.String("apps", "", "comma-separated workloads (default: the stock six-cell matrix)")
	schemes := fs.String("schemes", "", "comma-separated schemes crossed with -apps (default: the stock matrix)")
	scale := fs.Float64("scale", 0.05, "footprint/instruction scale factor for every cell")
	spec := fs.String("sample", "windows=6,frac=0.25,seed=1", "sampling config under calibration")
	maxErr := fs.Float64("max-err", 0.05, "maximum tolerated relative speedup error per cell")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	sc, err := sample.ParseSpec(*spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sc = sc.Normalize()
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	pairs := sample.CalibrationPairs
	if *apps != "" || *schemes != "" {
		if *apps == "" || *schemes == "" {
			fmt.Fprintln(stderr, "-apps and -schemes must be given together (their cross product is the matrix)")
			return 2
		}
		pairs = nil
		for _, a := range strings.Split(*apps, ",") {
			for _, s := range strings.Split(*schemes, ",") {
				pairs = append(pairs, sample.Pair{App: strings.TrimSpace(a), Scheme: strings.TrimSpace(s)})
			}
		}
	}

	start := time.Now()
	rep, err := sweep.Calibrate(pairs, *scale, sc)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprint(stdout, rep.Table())
	fmt.Fprintf(stderr, "[calibrate-sampling: %d cells at scale %g, %s, in %s]\n",
		len(rep.Rows), *scale, sc, time.Since(start).Round(time.Millisecond))
	if err := rep.Check(*maxErr); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
