// Customworkload: define your own GPU kernel against the public kernel
// API — a pointer-chasing traversal that is not one of the paper's ten
// benchmarks — and measure how much translation reach it needs.
//
// This is the path a downstream user takes to evaluate the paper's
// mechanism on their own access patterns: describe the kernel shape,
// give it a Mem pattern, and run it on any scheme.
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"

	"gpureach/internal/core"
	"gpureach/internal/gpu"
	"gpureach/internal/vm"
	"gpureach/internal/workloads"
)

// mix is SplitMix64, a stateless hash for reproducible pseudo-random
// chains.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func main() {
	// A linked structure of 24MB: each step hashes to the next node, the
	// memory behaviour of graph and pointer-heavy workloads the paper's
	// introduction motivates.
	pointerChase := workloads.Workload{
		Name:     "CHASE",
		Suite:    "custom",
		Category: workloads.High,
		Build: func(space *vm.AddrSpace, scale float64) []*gpu.Kernel {
			bytes := uint64(float64(24<<20) * scale)
			if bytes < 1<<20 {
				bytes = 1 << 20
			}
			heap := space.Alloc("heap", bytes)
			nodes := bytes / 16 // 16-byte nodes

			return []*gpu.Kernel{{
				Name:          "chase_kernel",
				NumWorkgroups: 8,
				WavesPerWG:    4,
				CodeBytes:     1024,
				InstrPerWave:  512,
				MemEvery:      2, // every other instruction dereferences
				Mem: func(wg, wave, k int, out []vm.VA) []vm.VA {
					for lane := 0; lane < 64; lane++ {
						// Each lane walks its own deterministic chain:
						// node k is a hash of (lane seed, k).
						seed := uint64(wg)<<20 | uint64(wave)<<10 | uint64(lane)
						node := mix(seed+uint64(k)*0x10001) % nodes
						out = append(out, heap.At(node*16))
					}
					return out
				},
			}}
		},
	}

	fmt.Println("pointer-chase kernel, 24MB heap, 64 independent chains per wave")
	fmt.Println()
	run := func(s core.Scheme) core.Results {
		r, err := core.Run(core.DefaultConfig(s), pointerChase, 1.0)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	base := run(core.Baseline())
	fmt.Printf("baseline: %d cycles, %d page walks (PKI %.1f)\n",
		base.Cycles, base.PageWalks, base.PTWPKI)

	for _, mk := range []func() core.Scheme{core.LDSOnly, core.ICAwareFlush, core.Combined} {
		s := mk()
		r := run(s)
		fmt.Printf("%-15s %.3fx speedup, walks %d → %d, victim hits LDS=%d IC=%d\n",
			s.Name+":", r.Speedup(base), base.PageWalks, r.PageWalks, r.LDSTxHits, r.ICTxHits)
	}
	fmt.Println()
	fmt.Println("victim reach helps exactly to the extent the chain working set")
	fmt.Println("fits the reclaimed SRAM — compare with GUPS, whose uniformly")
	fmt.Println("random table defeats any victim cache (paper §6.1.3)")
}
