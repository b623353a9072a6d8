// Quickstart: build the Table 1 system twice — baseline and the paper's
// full IC+LDS reconfigurable design — run one TLB-thrashing workload on
// each, and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gpureach/internal/core"
	"gpureach/internal/workloads"
)

func main() {
	// Pick ATAX, the paper's flagship translation-bound application
	// (Table 2: High, 37.7 page walks per kilo-instruction).
	atax, ok := workloads.ByName("ATAX")
	if !ok {
		panic("ATAX workload missing")
	}

	// A modest scale keeps this demo to a couple of seconds; pass 1.0
	// for the full experiment footprint.
	const scale = 0.5

	run := func(s core.Scheme) core.Results {
		r, err := core.Run(core.DefaultConfig(s), atax, scale)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	baseline := run(core.Baseline())
	combined := run(core.Combined())

	fmt.Println("ATAX on the Table 1 GPU (8 CUs, 32-entry L1 TLBs, 512-entry L2 TLB)")
	fmt.Println()
	fmt.Printf("%-22s %15s %15s\n", "", "baseline", "IC+LDS victim")
	fmt.Printf("%-22s %15d %15d\n", "cycles", baseline.Cycles, combined.Cycles)
	fmt.Printf("%-22s %15d %15d\n", "page walks", baseline.PageWalks, combined.PageWalks)
	fmt.Printf("%-22s %14.1f%% %14.1f%%\n", "L1 TLB hit rate", 100*baseline.L1TLBHitRate, 100*combined.L1TLBHitRate)
	fmt.Printf("%-22s %15d %15d\n", "LDS victim hits", baseline.LDSTxHits, combined.LDSTxHits)
	fmt.Printf("%-22s %15d %15d\n", "I-cache victim hits", baseline.ICTxHits, combined.ICTxHits)
	fmt.Println()
	fmt.Printf("speedup: %.2fx — idle LDS segments and I-cache lines acting as a\n", combined.Speedup(baseline))
	fmt.Println("TLB victim cache between the L1 and L2 TLBs (paper §4.4, Figure 12)")
}
