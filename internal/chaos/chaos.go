// Package chaos injects hostile mid-run events into a live core.System
// from a deterministic seeded schedule — the fault model §7.1 obliges
// the design to survive:
//
//   - TLB shootdowns of hot pages (the PM4-style invalidation packet
//     that must reach the reconfigured LDS/I-cache victim stores too);
//   - page migrations: remap a VPN to a fresh frame, then shoot down
//     the stale translation everywhere;
//   - work-group LDS allocations that reclaim Tx-mode segments while
//     translations are resident (§4.2.3's instant reclaim);
//   - stalled page-table walker pipelines (delayed walk completions).
//
// Every fault is followed by the internal/check after-fault probes, so
// a coherence bug surfaces at the injection that caused it, not as a
// corrupted statistic minutes later. The schedule derives entirely from
// Config.Seed and the (deterministic) machine state, so one seed
// reproduces one injection history, byte for byte — Digest() proves it.
package chaos

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gpureach/internal/check"
	"gpureach/internal/core"
	"gpureach/internal/sim"
	"gpureach/internal/tlb"
	"gpureach/internal/vm"
)

// Config parameterizes an injection schedule. The zero value is inert
// (Rate 0 injects nothing); New fills unset weights with defaults.
type Config struct {
	// Seed drives the deterministic PRNG behind the schedule.
	Seed uint64
	// Rate is the expected number of injections per cycle (0.01 ≈ one
	// fault every 100 cycles). Rate <= 0 disables injection.
	Rate float64
	// MaxInjections stops injecting after this many faults (0 = no cap).
	MaxInjections uint64

	// Relative weights of the six fault kinds; all-zero selects the
	// default 4/2/2/1/2/1 mix. VMShoot and MigStorm are the §7.2
	// multi-tenant faults: a shootdown storm against one VM-ID's pages,
	// and a migration sweep touching every live address space. On a
	// single-app system they degrade to multi-page variants of the
	// primary-space faults, so the weights need no tenancy awareness.
	ShootdownWeight int
	MigrationWeight int
	ReclaimWeight   int
	StallWeight     int
	VMShootWeight   int
	MigStormWeight  int
}

// The fixed sizes of the injected faults.
const (
	// stallCycles is how long one walker stall lasts.
	stallCycles sim.Time = 500
	// reclaimBytes is the LDS reservation size of one injected
	// work-group allocation: a quarter of a Table 1 LDS.
	reclaimBytes = 4 << 10
	// reclaimHold is how long an injected reservation is held before
	// release, in cycles.
	reclaimHold sim.Time = 5000
	// stormPages bounds how many pages a single VM-ID-targeted
	// shootdown storm invalidates.
	stormPages = 4
)

func (c Config) withDefaults() Config {
	if c.ShootdownWeight == 0 && c.MigrationWeight == 0 && c.ReclaimWeight == 0 &&
		c.StallWeight == 0 && c.VMShootWeight == 0 && c.MigStormWeight == 0 {
		c.ShootdownWeight, c.MigrationWeight, c.ReclaimWeight, c.StallWeight = 4, 2, 2, 1
		c.VMShootWeight, c.MigStormWeight = 2, 1
	}
	return c
}

// ValidateRate rejects injection rates that no schedule can honour:
// NaN, negative, or above one injection per cycle. Zero is a valid
// fault-free rate — the sweep engine's chaos-rate ladder anchors on it
// — so callers that additionally require activity (ParseSpec) must
// check for rate > 0 themselves. Shared with sweep.Spec.Validate so a
// campaign spec and a -chaos flag reject the same garbage.
func ValidateRate(r float64) error {
	if math.IsNaN(r) {
		return fmt.Errorf("rate is NaN")
	}
	if r < 0 {
		return fmt.Errorf("negative rate %g", r)
	}
	if r > 1 {
		return fmt.Errorf("rate %g exceeds one injection per cycle", r)
	}
	return nil
}

// parseKeys are the -chaos flag's valid keys, in the order help text
// and errors list them.
const parseKeys = "seed, rate, max"

// ParseSpec parses the cmd/gpureach -chaos flag syntax:
// "seed=1,rate=0.01[,max=N]".
func ParseSpec(spec string) (Config, error) {
	var c Config
	c.Rate = -1
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return c, fmt.Errorf("chaos: %q is not key=value (valid keys: %s)", part, parseKeys)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseUint(v, 0, 64)
		case "rate":
			c.Rate, err = strconv.ParseFloat(v, 64)
		case "max":
			c.MaxInjections, err = strconv.ParseUint(v, 0, 64)
		default:
			return c, fmt.Errorf("chaos: unknown key %q (valid keys: %s)", k, parseKeys)
		}
		if err != nil {
			return c, fmt.Errorf("chaos: bad %s: %v", k, err)
		}
	}
	if c.Rate == -1 || c.Rate == 0 {
		return c, fmt.Errorf("chaos: spec %q needs rate=R with R > 0", spec)
	}
	if err := ValidateRate(c.Rate); err != nil {
		return c, fmt.Errorf("chaos: spec %q: %v", spec, err)
	}
	return c, nil
}

// Event is one injected fault, recorded for reproducibility checks.
type Event struct {
	At    sim.Time
	Kind  string
	Space vm.SpaceID
	VPN   vm.VPN
	CU    int // reclaim target CU (-1 otherwise)
}

func (e Event) String() string {
	if e.Kind == "reclaim" {
		return fmt.Sprintf("@%d %s cu%d", e.At, e.Kind, e.CU)
	}
	return fmt.Sprintf("@%d %s %s vpn=%#x", e.At, e.Kind, e.Space, uint64(e.VPN))
}

// Stats summarizes one injection campaign.
type Stats struct {
	Ticks        uint64
	Injections   uint64
	Shootdowns   uint64
	Migrations   uint64
	Reclaims     uint64
	Stalls       uint64
	VMShootdowns uint64
	MigStorms    uint64
	// StormPagesShot counts individual pages invalidated by VM-ID
	// shootdown storms; StormPagesMoved counts pages remapped by
	// cross-space migration storms.
	StormPagesShot  uint64
	StormPagesMoved uint64
	// Skipped ticks: no translation resident anywhere to target, the
	// physical-frame budget would not cover another migration, the
	// target CU already held an injected reservation, or the walkers
	// were already inside a stall window.
	SkippedNoTarget    uint64
	SkippedFrameLimit  uint64
	SkippedReclaimBusy uint64
	SkippedStallOpen   uint64
	// Violations found by the after-fault probes (0 on a healthy
	// system; the run's Checker keeps the details).
	Violations int
}

// Injector drives one injection schedule against one system. Create
// with New, call Arm before System.Run, read Stats/Log/Digest after.
type Injector struct {
	sys     *core.System
	cfg     Config
	rng     *sim.Rand
	stats   Stats
	log     []Event
	holds   map[int]bool // CUs with a live injected LDS reservation
	holdSeq int
}

// New prepares an injector for sys. Arm must be called before the run
// for the schedule to fire.
func New(sys *core.System, cfg Config) *Injector {
	return &Injector{
		sys:   sys,
		cfg:   cfg.withDefaults(),
		rng:   sim.NewRand(cfg.Seed),
		holds: make(map[int]bool),
	}
}

// Stats returns a copy of the campaign counters.
func (in *Injector) Stats() Stats { return in.stats }

// Log returns the injection history in order.
func (in *Injector) Log() []Event { return in.log }

// Digest folds the injection history into one FNV-1a hash: two runs
// with the same seed and workload must produce the same digest.
func (in *Injector) Digest() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime
			v >>= 8
		}
	}
	for _, e := range in.log {
		mix(uint64(e.At))
		mix(uint64(len(e.Kind)))
		for i := 0; i < len(e.Kind); i++ {
			mix(uint64(e.Kind[i]))
		}
		mix(uint64(e.Space.Pack()))
		mix(uint64(e.VPN))
		mix(uint64(int64(e.CU)))
	}
	return h
}

// Arm schedules the first injection tick. Call after building the
// system (and workload) but before System.Run; ticks re-arm themselves
// until the GPU goes idle so the event queue can always drain.
func (in *Injector) Arm() {
	if in.cfg.Rate <= 0 {
		return
	}
	in.sys.Eng.After(in.gap(), in.tick)
}

// gap draws the next inter-injection interval: uniform over
// [1, 2/Rate], mean ≈ 1/Rate.
func (in *Injector) gap() sim.Time {
	span := int(2 / in.cfg.Rate)
	if span < 1 {
		span = 1
	}
	return sim.Time(1 + in.rng.Intn(span))
}

func (in *Injector) tick() {
	if !in.sys.GPU.Busy() {
		return // run finished: stop re-arming, let the queue drain
	}
	in.stats.Ticks++
	if in.cfg.MaxInjections > 0 && in.stats.Injections >= in.cfg.MaxInjections {
		return
	}
	in.inject()
	in.sys.Eng.After(in.gap(), in.tick)
}

func (in *Injector) inject() {
	c := in.cfg
	total := c.ShootdownWeight + c.MigrationWeight + c.ReclaimWeight + c.StallWeight +
		c.VMShootWeight + c.MigStormWeight
	r := in.rng.Intn(total)
	switch {
	case r < c.ShootdownWeight:
		in.shootdown()
	case r < c.ShootdownWeight+c.MigrationWeight:
		in.migrate()
	case r < c.ShootdownWeight+c.MigrationWeight+c.ReclaimWeight:
		in.reclaim()
	case r < c.ShootdownWeight+c.MigrationWeight+c.ReclaimWeight+c.StallWeight:
		in.stall()
	case r < c.ShootdownWeight+c.MigrationWeight+c.ReclaimWeight+c.StallWeight+c.VMShootWeight:
		in.vmShootdown()
	default:
		in.migrationStorm()
	}
}

// pickHotPage selects a victim translation, preferring pages resident
// in some L1 TLB (the "hot page" a driver-initiated shootdown would
// target); with no L1 residency it falls back to a random mapped page
// of the primary space.
func (in *Injector) pickHotPage() (*vm.AddrSpace, vm.VPN, bool) {
	var cands []tlb.Entry
	for _, x := range in.sys.Xlats {
		x.L1().ForEach(func(e tlb.Entry) { cands = append(cands, e) })
	}
	if len(cands) > 0 {
		e := cands[in.rng.Intn(len(cands))]
		if sp := in.spaceByID(e.Space); sp != nil {
			return sp, e.VPN, true
		}
	}
	// No L1 residency anywhere: fall back to a random mapped page of a
	// random live address space, so multi-tenant systems see pressure
	// on every VM-ID, not just the primary.
	sp := in.sys.Spaces[in.rng.Intn(len(in.sys.Spaces))]
	vpn, ok := in.pickPageOf(sp)
	return sp, vpn, ok
}

// pickPageOf selects one page of the given space: an L1-resident
// translation of that space when one exists (the hot page a VM-ID-
// targeted invalidation would chase), otherwise a random page of one of
// the space's buffers.
func (in *Injector) pickPageOf(sp *vm.AddrSpace) (vm.VPN, bool) {
	var cands []vm.VPN
	for _, x := range in.sys.Xlats {
		x.L1().ForEach(func(e tlb.Entry) {
			if e.Space == sp.ID {
				cands = append(cands, e.VPN)
			}
		})
	}
	if len(cands) > 0 {
		return cands[in.rng.Intn(len(cands))], true
	}
	bufs := sp.Buffers()
	if len(bufs) == 0 {
		return 0, false
	}
	b := bufs[in.rng.Intn(len(bufs))]
	pages := int(b.Size / uint64(sp.PageSize()))
	if pages < 1 {
		pages = 1
	}
	return sp.VPN(b.Base) + vm.VPN(in.rng.Intn(pages)), true
}

func (in *Injector) spaceByID(id vm.SpaceID) *vm.AddrSpace {
	for _, sp := range in.sys.Spaces {
		if sp.ID == id {
			return sp
		}
	}
	return nil
}

func (in *Injector) record(kind string, space vm.SpaceID, vpn vm.VPN, cu int) {
	in.stats.Injections++
	in.log = append(in.log, Event{At: in.sys.Eng.Now(), Kind: kind, Space: space, VPN: vpn, CU: cu})
}

// shootdown delivers the §7.1 invalidation packet for one hot page and
// verifies it reached every structure.
func (in *Injector) shootdown() {
	sp, vpn, ok := in.pickHotPage()
	if !ok {
		in.stats.SkippedNoTarget++
		return
	}
	in.sys.ShootdownAll(sp.ID, vpn)
	in.stats.Shootdowns++
	in.record("shootdown", sp.ID, vpn, -1)
	in.stats.Violations += in.sys.Check(check.AfterFault, "chaos:shootdown", tlb.MakeKey(sp.ID, vpn))
}

// migrate remaps one mapped page to a fresh physical frame and shoots
// the stale translation down everywhere — the OS page-migration flow.
// The remap and the shootdown are atomic within one engine event, as a
// driver holding the page lock would make them.
func (in *Injector) migrate() {
	sp, vpn, ok := in.pickHotPage()
	if !ok {
		in.stats.SkippedNoTarget++
		return
	}
	if !in.migratePage(sp, vpn) {
		return
	}
	in.stats.Migrations++
	in.record("migrate", sp.ID, vpn, -1)
	in.stats.Violations += in.sys.Check(check.AfterFault, "chaos:migrate", tlb.MakeKey(sp.ID, vpn))
}

// migratePage remaps one mapped page of sp to a fresh frame and shoots
// the stale translation down everywhere, accounting the skip reasons.
// It reports whether the migration actually happened.
func (in *Injector) migratePage(sp *vm.AddrSpace, vpn vm.VPN) bool {
	pt := sp.PageTable()
	if _, mapped := pt.Lookup(vpn); !mapped {
		in.stats.SkippedNoTarget++
		return false
	}
	// Migrations consume fresh frames from the data half of physical
	// memory; leave headroom so kernel-code allocations never starve.
	// Under oversubscribed multi-tenant footprints this limit bites
	// early — the skip counter is the oversubscription signal.
	const headroom = 64 << 20
	pageBytes := uint64(sp.PageSize())
	if in.sys.Frames.DataBytesAllocated()+pageBytes+headroom > in.sys.Cfg.PhysBytes/2 {
		in.stats.SkippedFrameLimit++
		return false
	}
	newPFN := vm.PFN(uint64(in.sys.Frames.AllocData(sp.PageSize())) >> sp.PageSize().Bits())
	pt.Map(vpn, newPFN)
	in.sys.ShootdownAll(sp.ID, vpn)
	return true
}

// vmShootdown is the §7.2 multi-tenant invalidation storm: it picks one
// VM-ID and delivers shootdowns for up to stormPages of that space's
// pages in a single engine event — the burst a driver tearing down or
// trimming one tenant's mappings would issue. Every page is verified by
// the after-fault probes, so a shootdown that leaks into (or skips)
// another tenant's structures surfaces at the injection.
func (in *Injector) vmShootdown() {
	sp := in.sys.Spaces[in.rng.Intn(len(in.sys.Spaces))]
	seen := make(map[vm.VPN]bool)
	var keys []tlb.Key
	for len(keys) < stormPages {
		vpn, ok := in.pickPageOf(sp)
		if !ok || seen[vpn] {
			break // space empty, or the hot set is smaller than the storm
		}
		seen[vpn] = true
		in.sys.ShootdownAll(sp.ID, vpn)
		in.record("vmshoot", sp.ID, vpn, -1)
		in.stats.StormPagesShot++
		keys = append(keys, tlb.MakeKey(sp.ID, vpn))
	}
	if len(keys) == 0 {
		in.stats.SkippedNoTarget++
		return
	}
	in.stats.VMShootdowns++
	in.stats.Violations += in.sys.Check(check.AfterFault, "chaos:vmshoot", keys...)
}

// migrationStorm migrates one page of every live address space in a
// single engine event — the cross-tenant burst of an OS rebalancing
// oversubscribed physical memory. Each remap+shootdown is atomic per
// page; the probes then verify no structure anywhere holds a stale
// translation for any of the moved pages.
func (in *Injector) migrationStorm() {
	var keys []tlb.Key
	for _, sp := range in.sys.Spaces {
		vpn, ok := in.pickPageOf(sp)
		if !ok {
			continue
		}
		if !in.migratePage(sp, vpn) {
			continue // skip reason already accounted
		}
		in.record("migstorm", sp.ID, vpn, -1)
		in.stats.StormPagesMoved++
		keys = append(keys, tlb.MakeKey(sp.ID, vpn))
	}
	if len(keys) == 0 {
		return // every space was empty or frame-limited; counters show why
	}
	in.stats.MigStorms++
	in.stats.Violations += in.sys.Check(check.AfterFault, "chaos:migstorm", keys...)
}

// reclaim performs a work-group LDS allocation on one CU, instantly
// reclaiming any Tx-mode segments in its way (§4.2.3), holds it for
// reclaimHold cycles, then frees it and kicks the dispatcher. Injected
// reservations use negative tokens so they can never collide with the
// scheduler's work-group tokens.
func (in *Injector) reclaim() {
	cu := in.rng.Intn(len(in.sys.LDSs))
	if in.holds[cu] {
		in.stats.SkippedReclaimBusy++
		return
	}
	ldsUnit := in.sys.LDSs[cu]
	in.holdSeq++
	token := -in.holdSeq
	if !ldsUnit.AllocWorkgroup(token, reclaimBytes) {
		in.stats.SkippedNoTarget++ // LDS too full even for chaos
		return
	}
	in.holds[cu] = true
	in.sys.Eng.After(reclaimHold, func() {
		ldsUnit.FreeWorkgroup(token)
		delete(in.holds, cu)
		in.sys.GPU.Kick()
	})
	in.stats.Reclaims++
	in.record("reclaim", vm.SpaceID{}, 0, cu)
	in.stats.Violations += in.sys.Check(check.AfterFault, "chaos:reclaim")
}

// stall freezes walk starts for stallCycles — walks issued in the
// window begin only when it closes. A stall landing while a window is
// already open is the same stall, not a fresh one: extending the window
// every time would let high injection rates keep the walkers stalled
// forever, turning a finite workload into a non-terminating run the
// livelock watchdog cannot see (the clock still advances).
func (in *Injector) stall() {
	if in.sys.IOMMU.WalkersStalled() {
		in.stats.SkippedStallOpen++
		return
	}
	in.sys.IOMMU.StallWalkers(stallCycles)
	in.stats.Stalls++
	in.record("stall", vm.SpaceID{}, 0, -1)
	in.stats.Violations += in.sys.Check(check.AfterFault, "chaos:stall")
}
