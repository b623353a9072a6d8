package sim

// Port models a pipelined hardware port: one new operation may begin
// every Interval cycles. Acquire returns the cycle at which the requested
// operation is granted the port; the caller adds its own access latency
// on top. A port can also record the idle-gap distribution between
// grants (RecordIdle), which is exactly the measurement behind the
// paper's Figures 4b and 5b (idle cycles at an LDS / I-cache port).
// Recording is off by default: only the ports whose distribution is
// reported pay for the samples.
type Port struct {
	eng *Engine
	// Interval is the initiation interval in cycles (1 = fully pipelined,
	// one grant per cycle).
	Interval Time

	nextFree  Time
	lastGrant Time
	grants    uint64
	idle      *Gaps // nil unless RecordIdle was called
}

// NewPort creates a port on engine eng with the given initiation
// interval. An interval of 0 is treated as 1. Every port registers
// with its engine so RelaxPorts can reach it.
func NewPort(eng *Engine, interval Time) *Port {
	if interval == 0 {
		interval = 1
	}
	p := &Port{eng: eng, Interval: interval}
	eng.ports = append(eng.ports, p)
	return p
}

// Acquire reserves the next port slot at or after the current cycle and
// returns the grant time. Consecutive acquisitions are serialized
// Interval cycles apart.
func (p *Port) Acquire() Time { return p.AcquireAt(p.eng.Now()) }

// AcquireAt reserves a slot at or after time t (which must not be in the
// past) and returns the grant time. This lets a component chain port
// acquisitions along a multi-stage path without scheduling intermediate
// events.
func (p *Port) AcquireAt(t Time) Time {
	if t < p.eng.Now() {
		t = p.eng.Now()
	}
	grant := t
	if p.nextFree > grant {
		grant = p.nextFree
	}
	p.nextFree = grant + p.Interval
	if p.idle != nil && p.grants > 0 && grant > p.lastGrant {
		p.idle.Record(uint64(grant - p.lastGrant - p.Interval + 1))
	}
	p.lastGrant = grant
	p.grants++
	return grant
}

// Relax clears any backlog the port has accumulated: the next Acquire
// is granted at the current cycle as if the port had been idle. This
// is the fast-forward drain used by sampled execution — functional
// warming calls the same port-acquiring component methods as detailed
// mode (so state transitions stay identical) while ignoring the
// returned grant times, which lets nextFree run arbitrarily far ahead
// of the slowly-advancing fast-forward clock. Relaxing every port at
// the fast-forward → detailed boundary (Engine.RelaxPorts) prevents
// that fictitious backlog from serializing the first real accesses of
// a measurement window. lastGrant is clamped too so the idle-gap
// distribution never records a negative (wrapped) gap across the
// boundary; the port-utilization statistics of a sampled run are
// warming-polluted either way and are documented as such.
func (p *Port) Relax() {
	now := p.eng.Now()
	if p.nextFree <= now {
		return // no backlog to clear
	}
	// Rewrite history as "the last grant finished just in time": the
	// invariant nextFree == lastGrant + Interval must survive, because
	// the idle-gap arithmetic in Acquire is unsigned and assumes every
	// grant lands at least Interval cycles after the previous one.
	if now >= p.Interval {
		p.nextFree = now
		p.lastGrant = now - p.Interval
		return
	}
	// Within the first Interval cycles of the run there is no
	// invariant-preserving way to free the port at now exactly; a
	// residual backlog of < Interval cycles is negligible.
	p.nextFree = p.Interval
	p.lastGrant = 0
}

// RelaxPorts relaxes every port created on this engine (see
// Port.Relax). Sampled execution calls it when switching from
// fast-forward warming back to detailed measurement.
func (e *Engine) RelaxPorts() {
	for _, p := range e.ports {
		p.Relax()
	}
}

// Grants returns the number of operations the port has served.
func (p *Port) Grants() uint64 { return p.grants }

// RecordIdle turns on idle-gap recording for this port. Grants made
// before the call are not reflected in the distribution.
func (p *Port) RecordIdle() {
	if p.idle == nil {
		p.idle = NewGaps()
	}
}

// IdleGaps returns the recorded distribution of idle cycles between
// consecutive grants, or nil for a port that does not record (see
// RecordIdle).
func (p *Port) IdleGaps() *Gaps { return p.idle }

// Utilization returns grants*Interval / elapsed, the fraction of cycles
// the port was busy, in [0,1]. elapsed of zero yields zero.
func (p *Port) Utilization(elapsed Time) float64 {
	if elapsed == 0 {
		return 0
	}
	busy := float64(p.grants) * float64(p.Interval)
	u := busy / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}
