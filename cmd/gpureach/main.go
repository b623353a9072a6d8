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
//
//	gpureach serve -addr 127.0.0.1:8787     # campaign server (HTTP/JSON API)
//	gpureach -list -json                    # machine-readable spec vocabulary
//
//	gpureach exp -list                      # paper tables/figures by ID
//	gpureach exp -exp F13b -scale 0.25
package main

import (
	"os"

	"gpureach/internal/cli"
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
		case "exp":
			os.Exit(cli.RunExp(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(cli.RunSingle(os.Args[1:], os.Stdout, os.Stderr))
}
