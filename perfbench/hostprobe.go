package main

import (
	"math/rand"
	"time"
)

// hostProbe is a fixed reference workload owned by the benchmark. Its
// duration depends only on how fast the host runs this process at the
// moment, never on the simulator's code. On a shared VM the same binary
// ran up to 40% slower in one run than in another minutes apart, so
// run_s scales each iteration's time by the probes' time around it.
type hostProbe struct {
	chain []uint32
	table map[uint32]uint32
	sink  uint64
}

// probeChainLen makes the pointer-chase working set 8 MB: larger than
// a core's private caches, so the chase depends on the shared
// last-level cache and memory that neighbours on a shared host contend
// for, as the simulator's cache and TLB models do.
const probeChainLen = 1 << 21

// probeNominal is the probe's median duration, in seconds, on the
// 2-vCPU Intel Xeon VM (Go 1.24) the benchmark was calibrated on:
// run_s is reported at that host's speed.
const probeNominal = 0.09

// probeElasticity is, per workload, the power of the probe's slowdown
// that run_s divides by. A probe slowed by a factor s went with a
// single-threaded simulation slowed by about s² (relative slowdowns
// about twice the probe's, in 367 probe-bracketed iterations across
// both xlat workloads), but with a campaign iteration, whose two
// workers keep both vCPUs busy, slowed by about s. With these powers
// run_s spread between ten-run sets by 5–8% (quartile distance over
// median), against 10–24% for raw lower-quartile wall time.
var probeElasticity = map[string]float64{"xlat-heavy": 2, "xlat-light": 2, "campaign": 1}

func newHostProbe() *hostProbe {
	r := rand.New(rand.NewSource(1))
	chain := make([]uint32, probeChainLen)
	for i := range chain {
		chain[i] = uint32(i)
	}
	// Sattolo's shuffle: a single cycle through every entry.
	for i := len(chain) - 1; i > 0; i-- {
		j := r.Intn(i)
		chain[i], chain[j] = chain[j], chain[i]
	}
	table := make(map[uint32]uint32, 1<<16)
	for i := uint32(0); i < 1<<16; i++ {
		table[i*2654435761] = i
	}
	return &hostProbe{chain: chain, table: table}
}

// run times one pass: a dependent pointer chase, a dependent integer
// hash and pseudo-random map lookups, the three kinds of work the
// simulator's hot loops do.
func (p *hostProbe) run() time.Duration {
	t0 := time.Now()
	cur := uint32(p.sink) % probeChainLen
	for i := 0; i < 400_000; i++ {
		cur = p.chain[cur]
	}
	x := p.sink + uint64(cur) | 1
	for i := 0; i < 8_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x9e3779b97f4a7c15
	}
	k, hits := uint32(x)|1, uint32(0)
	for i := 0; i < 600_000; i++ {
		k ^= k << 13
		k ^= k >> 17
		k ^= k << 5
		hits += p.table[(k&0xffff)*2654435761]
	}
	p.sink = x + uint64(hits)
	return time.Since(t0)
}
