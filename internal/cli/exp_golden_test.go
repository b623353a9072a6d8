package cli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gpureach/internal/core"
	"gpureach/internal/sim"
	"gpureach/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/")

// stubRun returns synthetic Results derived from the run's
// coordinates alone, so the golden moves only when the experiments'
// reduction or rendering does. SRAD's baseline never walks.
func stubRun(r sweep.Run) (sweep.RunResult, error) {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%s/%s/%d", r.App, r.Scheme, r.PageSize, r.ICSharers)
	v := uint64(h.Sum32())
	res := core.Results{
		Cycles:       sim.Time(20000 + v%20000),
		PageWalks:    100 + v%900,
		DRAMEnergyPJ: float64(1000 + v%1000),
	}
	if r.App == "SRAD" && r.Scheme == "baseline" {
		res.PageWalks = 0
	}
	return sweep.RunResult{Results: res}, nil
}

// TestExpSchemeMatricesGolden pins the scheme-matrix experiments byte
// for byte on stubbed runs over a High (GUPS), a Medium (NW) and a Low
// app (SRAD, whose baseline never walks).
func TestExpSchemeMatricesGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := runExp([]string{"-exp", "F13a,F13b,F13c,F14b,F14c,F16a,F16c,ABLPF", "-scale", "0.05", "-apps", "GUPS,NW,SRAD"},
		&stdout, &stderr, sweep.EngineOptions{RunFn: stubRun})
	if code != 0 {
		t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
	}
	path := filepath.Join("testdata", "exp_scheme_matrices.golden")
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout differs from the golden\n got:\n%s\nwant:\n%s", stdout.String(), want)
	}
}

// TestExpSubmitsDeclaredRunSet pins the executor under the experiments
// on stubbed runs. Over -exp all no digest reaches RunFn twice: runs
// shared between experiments dedup across them. On two workers,
// F2F3's runs are all submitted before any is awaited, so two are in
// flight at once: each run holds at a barrier until a second joins it
// (or, if none ever does, until a timeout releases every run).
func TestExpSubmitsDeclaredRunSet(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	counting := func(r sweep.Run) (sweep.RunResult, error) {
		mu.Lock()
		seen[r.DigestHex()]++
		mu.Unlock()
		return stubRun(r)
	}
	var stdout, stderr bytes.Buffer
	if code := runExp([]string{"-exp", "all", "-scale", "0.05"}, &stdout, &stderr,
		sweep.EngineOptions{RunFn: counting}); code != 0 {
		t.Fatalf("exp all exited %d; stderr:\n%s", code, stderr.String())
	}
	for digest, n := range seen {
		if n > 1 {
			t.Errorf("digest %s simulated %d times", digest, n)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	inFlight, peak := 0, 0
	paired := make(chan struct{})
	barrier := func(r sweep.Run) (sweep.RunResult, error) {
		mu.Lock()
		if inFlight++; inFlight > peak {
			if peak = inFlight; peak == 2 {
				close(paired)
			}
		}
		mu.Unlock()
		select {
		case <-paired:
		case <-ctx.Done():
		}
		mu.Lock()
		inFlight--
		mu.Unlock()
		return stubRun(r)
	}
	stdout.Reset()
	stderr.Reset()
	if code := runExp([]string{"-exp", "F2F3", "-scale", "0.05", "-apps", "GUPS,SRAD"}, &stdout, &stderr,
		sweep.EngineOptions{Procs: 2, RunFn: barrier}); code != 0 {
		t.Fatalf("exp F2F3 exited %d; stderr:\n%s", code, stderr.String())
	}
	if peak != 2 {
		t.Errorf("at most %d F2F3 runs in flight on 2 workers, want 2", peak)
	}
}
