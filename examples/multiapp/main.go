// Multiapp: the §7.2 scenario — two applications co-resident on one
// GPU, partitioned across disjoint CU sets, each with its own address
// space (VM-ID). A translation-bound tenant (MVT) runs next to a
// TLB-insensitive one (SRAD); the reconfigurable IC+LDS design should
// speed up the former without disturbing the latter.
//
//	go run ./examples/multiapp
package main

import (
	"fmt"
	"log"

	"gpureach/internal/sweep"
)

func main() {
	const scale = 0.5
	coRun := func(scheme string) sweep.RunResult {
		rr, err := sweep.ExecuteRun(sweep.Run{
			App: "MVT+SRAD", Tenants: "MVT+SRAD", Scheme: scheme,
			Scale: scale, L2TLB: 512, PageSize: "4K",
		})
		if err != nil {
			log.Fatal(err)
		}
		return rr
	}
	base, comb := coRun("baseline"), coRun("ic+lds")
	basePer, combPer := base.PerApp, comb.PerApp

	fmt.Println("MVT (High PTW) + SRAD (Low PTW), 4 CUs each, separate VM-IDs")
	fmt.Println()
	fmt.Printf("%-8s %16s %16s %10s\n", "app", "baseline-finish", "ic+lds-finish", "speedup")
	for i := range basePer {
		sp := float64(basePer[i].FinishedAt) / float64(combPer[i].FinishedAt)
		fmt.Printf("%-8s %16d %16d %9.3fx\n",
			basePer[i].App, basePer[i].FinishedAt, combPer[i].FinishedAt, sp)
	}
	fmt.Println()
	fmt.Printf("system page walks: %d → %d\n", base.Results.PageWalks, comb.Results.PageWalks)
	fmt.Println()
	fmt.Println("each tenant's translations stay in its own CUs' L1 TLBs and LDS")
	fmt.Println("segments; only the I-cache is shared across the partition (§7.2)")
}
