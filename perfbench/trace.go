package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one simulation or request
// share a Key (the case, run digest or campaign ID).
type Span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	Key     string  `json:"key,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps spans in memory; they are written with the run record
// when the run ends. A nil tracer records nothing, which is how
// untraced iterations run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name, key string, parent int) int {
	if t == nil {
		return 0
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, StartUS: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.DurUS = now - s.StartUS
}

// hostModules are the packages whose share of CPU samples the traced
// run reports. Samples are attributed to the package of their leaf
// frame; everything else (vm, bdc, core, the standard library, the
// benchmark itself) is "other".
var hostModules = []string{
	"sim", "gpu", "tlb", "victim", "lds", "icache", "walker", "cache", "dram",
	"sample", "sweep", "serve", "runtime", "other",
}

// leafShares splits the CPU profile at path by the package of each
// sample's leaf frame — the flat column of `go tool pprof -top`, summed
// by module — and returns host.<module>_share for every module in
// hostModules.
func leafShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ns",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	flat, err := parseTop(string(top))
	if err != nil {
		return nil, err
	}
	byModule := map[string]float64{}
	var total float64
	for _, fn := range sortedKeys(flat) {
		byModule[moduleOf(fn)] += flat[fn]
		total += flat[fn]
	}
	out := map[string]float64{}
	for _, m := range hostModules {
		out["host."+m+"_share"] = ratio(byModule[m], total)
	}
	return out, nil
}

// parseTop reads the rows of `go tool pprof -top -unit=ns` output —
// flat, flat%, sum%, cum, cum%, function — into flat nanoseconds by
// function name.
func parseTop(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	rows := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof -top: bad row %q", line)
		}
		flat[strings.Join(f[5:], " ")] += ns
	}
	if !rows {
		return nil, errors.New("go tool pprof -top: no table in the output")
	}
	return flat, nil
}

// moduleOf maps a fully qualified function name such as
// "gpureach/internal/tlb.(*TLB).Lookup" to its hostModules entry.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, "gpureach/internal/"); ok {
		for _, m := range hostModules {
			if rest == m {
				return m
			}
		}
	}
	return "other"
}
