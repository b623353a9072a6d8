package cli

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gpureach/internal/sweep"
)

// TestExpFailedRunExitsOne: a run that fails inside the engine makes
// `gpureach exp` exit 1 with stderr naming the run, instead of
// panicking. The experiment that needed the run prints nothing; the
// others still print.
func TestExpFailedRunExitsOne(t *testing.T) {
	bad := sweep.Run{App: "SRAD", Scheme: "baseline", Scale: 0.05, L2TLB: 512, PageSize: "4K"}
	stub := func(r sweep.Run) (sweep.RunResult, error) {
		if r.DigestHex() == bad.DigestHex() {
			return sweep.RunResult{}, errors.New("injected failure")
		}
		return sweep.RunResult{}, nil
	}
	var stdout, stderr bytes.Buffer
	code := runExp([]string{"-exp", "T2,F4", "-scale", "0.05", "-apps", "ATAX,SRAD"},
		&stdout, &stderr, sweep.EngineOptions{RunFn: stub})
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr.String())
	}
	for _, want := range []string{"experiment T2", bad.String(), bad.DigestHex(), "injected failure"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr does not name %q:\n%s", want, stderr.String())
		}
	}
	if strings.Contains(stdout.String(), "Table 2") {
		t.Errorf("failed experiment T2 printed its table:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "Figure 4a") {
		t.Errorf("independent experiment F4 was not printed:\n%s", stdout.String())
	}
}
