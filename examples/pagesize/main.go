// Pagesize: reproduce the §6.2 observation interactively — large pages
// shrink but do not eliminate the translation-reach problem. Runs BICG
// under 4KB, 64KB and 2MB pages, baseline vs IC+LDS.
//
//	go run ./examples/pagesize
package main

import (
	"fmt"
	"log"

	"gpureach/internal/core"
	"gpureach/internal/vm"
	"gpureach/internal/workloads"
)

func main() {
	w, _ := workloads.ByName("BICG")
	const scale = 0.5
	run := func(s core.Scheme, ps vm.PageSize) core.Results {
		cfg := core.DefaultConfig(s)
		cfg.PageSize = ps
		r, err := core.Run(cfg, w, scale)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}

	fmt.Println("BICG: baseline vs IC+LDS across page granularities (§6.2)")
	fmt.Println()
	fmt.Printf("%-8s %12s %12s %10s %12s\n", "pages", "base-walks", "ic+lds-walks", "speedup", "base-cycles")
	for _, ps := range []vm.PageSize{vm.Page4K, vm.Page64K, vm.Page2M} {
		base := run(core.Baseline(), ps)
		r := run(core.Combined(), ps)

		fmt.Printf("%-8s %12d %12d %9.3fx %12d\n",
			name(ps), base.PageWalks, r.PageWalks, r.Speedup(base), base.Cycles)
	}
	fmt.Println()
	fmt.Println("larger pages cut the page count and the walk rate, yet the")
	fmt.Println("victim structures still help — the paper measures +30.1%/+18.4%/+5.6%")
	fmt.Println("at 4KB/64KB/2MB (Figure 14c)")
}

func name(ps vm.PageSize) string {
	switch ps {
	case vm.Page4K:
		return "4KB"
	case vm.Page64K:
		return "64KB"
	default:
		return "2MB"
	}
}
