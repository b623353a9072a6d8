package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSingleGolden pins the single-run command: stdout is compared
// byte for byte with goldens captured from the command before it ran on
// the sweep engine (cycles, sampled CIs, chaos digests and probe-run
// counts included), and flag errors exit 2 with a message naming the
// rule. Regenerate a golden only for an intended output change, with
// `go run ./cmd/gpureach <args> > internal/cli/testdata/<name>.golden`.
func TestRunSingleGolden(t *testing.T) {
	cases := []struct {
		name   string
		args   string
		golden string // exit 0 and this stdout, when set
		stderr string // otherwise exit 2 and stderr containing this
	}{
		{"atax", "-app ATAX -scheme ic+lds -scale 0.05", "single_atax_iclds", ""},
		{"bicg-2m", "-app BICG -l2tlb 8192 -pagesize 2M -scale 0.05", "single_bicg_l2tlb8192_2m", ""},
		{"gups-sampled", "-app GUPS -scheme ic+lds -scale 0.05 -sample windows=6,frac=0.25,seed=1", "single_gups_sampled", ""},
		{"atax-chaos-max", "-app ATAX -scheme ic+lds -scale 0.05 -chaos seed=1,rate=0.05,max=5", "single_atax_chaos_max5", ""},
		{"tenants-chaos", "-tenants MVT+SRAD -scheme ic+lds -scale 0.05 -chaos seed=1,rate=0.01", "single_tenants_chaos", ""},
		{"unknown-scheme", "-app ATAX -scheme warp-drive -scale 0.05", "", `"warp-drive"`},
		{"sample-chaos", "-app ATAX -scale 0.05 -sample windows=6 -chaos seed=1,rate=0.01", "", "mutually exclusive"},
		{"sample-tenants", "-tenants MVT+SRAD -scale 0.05 -sample windows=6", "", "mutually exclusive"},
		{"negative-scale", "-app ATAX -scale -1", "", "negative scale"},
		{"l2tlb-geometry", "-app ATAX -scale 0.05 -l2tlb 24", "", "positive multiple of 16"},
		{"stray-argument", "worker -listen :9123", "", `unexpected argument "worker"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := RunSingle(strings.Fields(c.args), &stdout, &stderr)
			if c.golden == "" {
				if code != 2 {
					t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
				}
				if !strings.Contains(stderr.String(), c.stderr) {
					t.Errorf("stderr does not name %q:\n%s", c.stderr, stderr.String())
				}
				return
			}
			if code != 0 {
				t.Fatalf("exit %d, want 0; stderr:\n%s", code, stderr.String())
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s.golden\n got:\n%s\nwant:\n%s", c.golden, stdout.String(), want)
			}
		})
	}
}
