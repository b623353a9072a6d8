// Command perfbench is the repository benchmark. It drives the gpureach
// simulator through three named workloads from the outside, calling the
// same public functions a user of the packages calls, checks that every
// simulated output is correct, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload xlat-heavy --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh compare <results-dir-A> <results-dir-B>
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workDir holds everything a run writes: result records, traces and
// the campaign workload's scratch directories.
const workDir = ".bench_build/perfbench"

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Options select one benchmark run.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Scale multiplies the scale of every simulation. The command
	// always runs at 1; only the self-test sets a tiny value.
	Scale float64
	// Dir is the working directory for results and scratch files.
	Dir string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rec, err := Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	path, err := rec.save(opts.Dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("host %s\n", rec.Host)
	fmt.Printf("record %s\n", path)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (Options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := Options{Scale: 1, Dir: workDir}
	fs.StringVar(&o.Workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&o.Seed, "seed", 1, "input seed")
	fs.Float64Var(&o.Seconds, "seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if o.Seconds < 0 {
		return o, errors.New("--seconds must be >= 0")
	}
	o.Trace = *trace == 1
	return o, nil
}

// Record is everything one run leaves on file: the result, the inputs
// that produced it, the host it ran on, each iteration's raw values,
// the failed checks, and (traced runs) the spans and CPU profile.
type Record struct {
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Started    string               `json:"started_utc"`
	Host       Fingerprint          `json:"host"`
	Result     Result               `json:"result"`
	Iterations []map[string]float64 `json:"iterations"`
	// SetupProbes are the set-up times setup_s is the median of, in s.
	SetupProbes []float64 `json:"setup_probes"`
	Failures    []string  `json:"failures,omitempty"`
	Spans       []Span    `json:"spans,omitempty"`
	// Profile is the traced run's CPU profile, for `go tool pprof`.
	Profile string `json:"profile,omitempty"`
}

func (r *Record) save(dir string) (string, error) {
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", r.Workload, r.Seed, boolInt(r.Trace),
		time.Now().UTC().Format("20060102T150405.000000000"))
	path := filepath.Join(dir, "results", name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
