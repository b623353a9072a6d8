// Package dram models the paper's main memory (Table 1: DDR3-1600 at
// 800MHz, 2 channels, 2 ranks per channel, 16 banks per rank) with a
// row-buffer-aware bank timing model and a DRAMPower-style energy
// estimator. Energy bookkeeping matters because Figure 13c reports the
// DRAM energy saved when victim-cache hits eliminate page-walk memory
// traffic; the model charges activate/precharge, read, write, and
// background energy per command so that a traffic delta produces a
// faithful energy delta.
package dram

import (
	"gpureach/internal/sim"
	"gpureach/internal/vm"
)

// Config sets geometry and timing. Timings are in GPU cycles. With the
// GPU at 2GHz and DDR3-1600 memory at 800MHz the clock ratio is 2.5 GPU
// cycles per DRAM cycle, which the defaults below bake in (tCL = tRCD =
// tRP = 11 DRAM cycles ≈ 28 GPU cycles; 4-cycle burst ≈ 10 GPU cycles).
type Config struct {
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	RowBytes        int
	LineBytes       int

	TCas   sim.Time // column access (row-buffer hit cost)
	TRcd   sim.Time // row activate
	TRp    sim.Time // precharge
	TBurst sim.Time // data transfer on the channel bus

	// JitterMask bounds the deterministic per-address completion jitter
	// (0 disables it). See Access for why it exists.
	JitterMask uint64

	// Energy per event, picojoules; plus background power in watts and
	// the GPU clock for converting cycles to seconds.
	ActPrePJ    float64
	ReadPJ      float64
	WritePJ     float64
	BackgroundW float64
	GPUClockHz  float64
}

// DefaultConfig returns the Table 1 DDR3-1600 configuration with energy
// constants in the range DRAMPower reports for 2Gb DDR3-1600 devices.
func DefaultConfig() Config {
	return Config{
		Channels:        2,
		RanksPerChannel: 2,
		BanksPerRank:    16,
		RowBytes:        2048,
		LineBytes:       64,
		TCas:            28,
		TRcd:            28,
		TRp:             28,
		TBurst:          10,
		JitterMask:      63,
		ActPrePJ:        2000, // 2.0 nJ per activate/precharge pair
		ReadPJ:          1500, // per 64B burst
		WritePJ:         1700,
		BackgroundW:     0.5,
		GPUClockHz:      2e9,
	}
}

// Stats reports DRAM activity and energy.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64

	ActPrePJ float64
	ReadPJ   float64
	WritePJ  float64
}

// CommandEnergyPJ returns the dynamic (non-background) energy.
func (s Stats) CommandEnergyPJ() float64 { return s.ActPrePJ + s.ReadPJ + s.WritePJ }

// RowHitRate returns rowHits/(rowHits+rowMisses), or 0 when idle.
func (s Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMisses
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

type bank struct {
	openRow  uint64
	rowOpen  bool
	nextFree sim.Time
}

// DRAM is the memory device. It implements the same asynchronous access
// interface as the caches (cache.Memory) so it can terminate the
// hierarchy.
type DRAM struct {
	eng   *sim.Engine
	cfg   Config
	banks []bank // [channel][rank][bank] flattened
	buses []*sim.Port
	stats Stats
}

// New builds the device on engine eng.
func New(eng *sim.Engine, cfg Config) *DRAM {
	if cfg.Channels <= 0 || cfg.RanksPerChannel <= 0 || cfg.BanksPerRank <= 0 {
		panic("dram: bad geometry")
	}
	d := &DRAM{
		eng:   eng,
		cfg:   cfg,
		banks: make([]bank, cfg.Channels*cfg.RanksPerChannel*cfg.BanksPerRank),
	}
	for i := 0; i < cfg.Channels; i++ {
		d.buses = append(d.buses, sim.NewPort(eng, cfg.TBurst))
	}
	return d
}

// decode splits a physical address into channel, flat bank index, and
// row. Lines interleave across channels, then banks, then rows — the
// usual throughput-oriented mapping.
func (d *DRAM) decode(addr vm.PA) (channel, bankIdx int, row uint64) {
	la := uint64(addr) / uint64(d.cfg.LineBytes)
	channel = int(la % uint64(d.cfg.Channels))
	la /= uint64(d.cfg.Channels)
	banksPerChannel := d.cfg.RanksPerChannel * d.cfg.BanksPerRank
	bankInChan := int(la % uint64(banksPerChannel))
	la /= uint64(banksPerChannel)
	row = la / (uint64(d.cfg.RowBytes) / uint64(d.cfg.LineBytes))
	bankIdx = channel*banksPerChannel + bankInChan
	return
}

// AccessEvent services a read or write of the line containing addr
// (cache.Memory): h(ctx) runs at completion time.
func (d *DRAM) AccessEvent(addr vm.PA, write bool, h sim.Handler, ctx any) {
	channel, bi, row := d.decode(addr)
	b := &d.banks[bi]
	now := d.eng.Now()

	start := now
	if b.nextFree > start {
		start = b.nextFree
	}

	var ready sim.Time
	if b.rowOpen && b.openRow == row {
		d.stats.RowHits++
		ready = start + d.cfg.TCas
	} else {
		d.stats.RowMisses++
		d.stats.ActPrePJ += d.cfg.ActPrePJ
		penalty := d.cfg.TRcd + d.cfg.TCas
		if b.rowOpen {
			penalty += d.cfg.TRp // close the old row first
		}
		ready = start + penalty
		b.rowOpen = true
		b.openRow = row
	}
	b.nextFree = ready

	busGrant := d.buses[channel].AcquireAt(ready)
	finish := busGrant + d.cfg.TBurst
	// Deterministic per-address jitter stands in for the latency
	// variance real controllers exhibit (FR-FCFS reordering, refresh,
	// rank-to-rank turnarounds). Besides realism, it keeps lockstep
	// SIMT wavefronts from re-synchronizing into surge/stall convoys
	// that uniform service times would sustain forever.
	finish += sim.Time((uint64(addr)/64*0x9E3779B97F4A7C15)>>58) & sim.Time(d.cfg.JitterMask)

	if write {
		d.stats.Writes++
		d.stats.WritePJ += d.cfg.WritePJ
	} else {
		d.stats.Reads++
		d.stats.ReadPJ += d.cfg.ReadPJ
	}
	d.eng.AtEvent(finish, h, ctx)
}

// Stats returns a copy of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// TotalEnergyPJ returns command energy plus background energy accrued
// over `elapsed` GPU cycles.
func (d *DRAM) TotalEnergyPJ(elapsed sim.Time) float64 {
	seconds := float64(elapsed) / d.cfg.GPUClockHz
	backgroundPJ := d.cfg.BackgroundW * seconds * 1e12
	return d.stats.CommandEnergyPJ() + backgroundPJ
}

// BusUtilization returns per-channel bus utilization over elapsed cycles.
func (d *DRAM) BusUtilization(elapsed sim.Time) []float64 {
	out := make([]float64, len(d.buses))
	for i, b := range d.buses {
		out[i] = b.Utilization(elapsed)
	}
	return out
}
