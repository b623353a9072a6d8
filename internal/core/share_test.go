package core

import (
	"math/rand"
	"slices"
	"testing"

	"gpureach/internal/gpu"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
	"gpureach/internal/workloads"
)

// refSharing is the sharing count as it was before shareTable: sort
// and compact each CU's keys, concatenate, sort again, and read each
// run of equal keys as one key held by as many CUs as the run is long.
// It is the reference the tests below hold shareTable to.
func refSharing(perCU [][]tlb.Key) (distinct, shared int) {
	var all []tlb.Key
	for _, keys := range perCU {
		cu := slices.Clone(keys)
		slices.Sort(cu)
		all = append(all, slices.Compact(cu)...)
	}
	slices.Sort(all)
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j] == all[i] {
			j++
		}
		distinct++
		if j-i > 1 {
			shared++
		}
		i = j
	}
	return distinct, shared
}

// TestShareTableMatchesReference: random per-CU key sets — drawn from
// pools small enough that CUs overlap, with some keys listed twice by
// one CU as its L1 TLB and its LDS both would — must give the
// reference's distinct and shared counts, also when one table is
// reused across samples of growing and shrinking size.
func TestShareTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tab shareTable
	for trial := 0; trial < 300; trial++ {
		cus := 1 + rng.Intn(16)
		pool := 1 + rng.Intn(4000)
		stride := uint64(1 + rng.Intn(4096)) // strided VPNs must hash apart too
		perCU := make([][]tlb.Key, cus)
		for c := range perCU {
			n := rng.Intn(1200)
			for k := 0; k < n; k++ {
				vpn := vm.VPN(uint64(rng.Intn(pool)) * stride)
				key := tlb.MakeKey(vm.SpaceID{VMID: uint8(1 + rng.Intn(2))}, vpn)
				perCU[c] = append(perCU[c], key)
				if rng.Intn(8) == 0 { // the same CU's LDS holds it too
					perCU[c] = append(perCU[c], key)
				}
			}
			rng.Shuffle(len(perCU[c]), func(i, j int) {
				perCU[c][i], perCU[c][j] = perCU[c][j], perCU[c][i]
			})
		}
		tab.reset(rng.Intn(2000)) // a size hint, sometimes too small
		for _, keys := range perCU {
			for _, k := range keys {
				tab.add(k)
			}
			tab.endCU()
		}
		wantD, wantS := refSharing(perCU)
		if tab.distinct != wantD || tab.shared != wantS {
			t.Fatalf("trial %d (%d CUs, pool %d): distinct %d shared %d, reference %d and %d",
				trial, cus, pool, tab.distinct, tab.shared, wantD, wantS)
		}
	}
}

// TestSharingSampleMatchesReference: at every kernel boundary of a
// real ic+lds run, the System's one-pass count over its L1 TLBs and
// LDSs must equal the reference count over the same structures, and at
// least one boundary must see keys shared across CUs.
func TestSharingSampleMatchesReference(t *testing.T) {
	w, _ := workloads.ByName("NW")
	s := NewSystem(DefaultConfig(Combined()))
	kernels := w.Build(s.Space, 0.25)
	sawShared := false
	s.GPU.OnKernelBoundary = func(next *gpu.Kernel) {
		perCU := make([][]tlb.Key, len(s.CUs))
		for i := range s.CUs {
			collect := func(e tlb.Entry) { perCU[i] = append(perCU[i], e.Key()) }
			s.Xlats[i].L1().ForEach(collect)
			s.LDSs[i].ForEachTx(collect)
		}
		d, sh := s.sharing()
		wantD, wantS := refSharing(perCU)
		if d != wantD || sh != wantS {
			t.Fatalf("before kernel %s: distinct %d shared %d, reference %d and %d", next.Name, d, sh, wantD, wantS)
		}
		sawShared = sawShared || sh > 0
		s.sample(next.Name)
	}
	if _, err := s.Run(w.Name, kernels); err != nil {
		t.Fatal(err)
	}
	if !sawShared {
		t.Fatal("no boundary saw a shared key; the run no longer exercises the shared count")
	}
}
