package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"gpureach/internal/sweep"
)

// State is a campaign's lifecycle position.
type State string

const (
	// StateQueued: admitted, runner not yet dispatching.
	StateQueued State = "queued"
	// StateRunning: runs are being dispatched onto the worker pool.
	StateRunning State = "running"
	// StateDone: every run completed and the aggregate artifacts are
	// written (individual run failures show in Counts.Failed — a
	// chaos cell dying under injected faults is a measurement).
	StateDone State = "done"
	// StateInterrupted: a drain stopped the campaign mid-matrix. The
	// journal holds every completed run; `gpureach sweep -resume -out
	// <campaign dir>` finishes the rest.
	StateInterrupted State = "interrupted"
	// StateFailed: an infrastructure error (unwritable journal,
	// cache or artifact) stopped the campaign.
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateInterrupted || s == StateFailed
}

// Counts are a campaign's live progress totals.
type Counts struct {
	Total     int `json:"total"`
	Completed int `json:"completed"`
	// Executed counts runs this campaign paid for; CacheHits and
	// Coalesced were served by the shared store or by another
	// campaign's in-flight execution.
	Executed  int `json:"executed"`
	CacheHits int `json:"cache_hits"`
	Coalesced int `json:"coalesced"`
	Retries   int `json:"retries"`
	Failed    int `json:"failed"`
}

// Campaign is one submitted matrix: its normalized spec, expansion,
// journal-backed progress log, and (once done) aggregate artifacts.
type Campaign struct {
	ID   string
	Spec sweep.Spec
	Dir  string

	runs []sweep.Run

	mu      sync.Mutex
	state   State
	records []sweep.Record // by expansion index, for aggregation
	have    []bool
	log     []sweep.Record // completion order — mirrors the journal
	subs    map[chan sweep.Record]bool
	counts  Counts
	errMsg  string
	infra   error

	// art holds the artifact bytes, produced exactly as the CLI sweep
	// produces its files (and also written into Dir): the HTTP
	// aggregate IS the CLI aggregate. Nil until the campaign is done.
	art *sweep.Artifacts

	done chan struct{}
}

func newCampaign(id string, spec sweep.Spec, runs []sweep.Run, dir string) *Campaign {
	return &Campaign{
		ID: id, Spec: spec, Dir: dir,
		runs:    runs,
		state:   StateQueued,
		records: make([]sweep.Record, len(runs)),
		have:    make([]bool, len(runs)),
		subs:    map[chan sweep.Record]bool{},
		counts:  Counts{Total: len(runs)},
		done:    make(chan struct{}),
	}
}

func cacheDir(dataDir string) string { return filepath.Join(dataDir, "cache") }
func campaignDir(dataDir, id string) string {
	return filepath.Join(dataDir, "campaigns", id)
}

// start creates the campaign directory and journal and moves the
// campaign to StateRunning.
func (c *Campaign) start() (*sweep.Journal, error) {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	journal, err := sweep.OpenJournal(filepath.Join(c.Dir, "journal.jsonl"), false)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.state = StateRunning
	c.mu.Unlock()
	return journal, nil
}

// complete records one finished run: progress counts, the
// expansion-indexed record for aggregation, the completion-order log,
// and a fan-out to every live event subscriber.
func (c *Campaign) complete(idx int, out sweep.Outcome, infraErr error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.records[idx] = out.Record
	c.have[idx] = true
	c.log = append(c.log, out.Record)
	c.counts.Completed++
	c.counts.Retries += len(out.Record.RetryErrors)
	switch {
	case out.Coalesced:
		c.counts.Coalesced++
	case out.CacheHit:
		c.counts.CacheHits++
	default:
		c.counts.Executed++
	}
	if out.Record.Failed() {
		c.counts.Failed++
	}
	if infraErr != nil && c.infra == nil {
		c.infra = infraErr
	}
	for ch := range c.subs {
		// Capacity is reserved at subscribe time, so this never
		// blocks a worker; a subscriber that somehow stopped draining
		// is skipped rather than stalling the campaign.
		select {
		case ch <- out.Record:
		default:
		}
	}
}

// finalize moves the campaign to its terminal state, building the
// aggregate artifacts for complete campaigns, and closes every event
// stream.
func (c *Campaign) finalize(interrupted bool, infraErr error) {
	c.mu.Lock()
	if infraErr != nil && c.infra == nil {
		c.infra = infraErr
	}
	infra := c.infra
	c.mu.Unlock()

	state := StateDone
	var errMsg string
	switch {
	case infra != nil:
		state, errMsg = StateFailed, infra.Error()
	case interrupted:
		state = StateInterrupted
	default:
		if err := c.buildArtifacts(); err != nil {
			state, errMsg = StateFailed, err.Error()
		}
	}

	c.mu.Lock()
	c.state = state
	c.errMsg = errMsg
	subs := c.subs
	c.subs = map[chan sweep.Record]bool{}
	c.mu.Unlock()
	for ch := range subs {
		close(ch)
	}
	close(c.done)
}

// buildArtifacts aggregates the finished campaign exactly as the CLI
// sweep does — same writer, same bytes — into the campaign directory.
func (c *Campaign) buildArtifacts() error {
	art, err := (&sweep.Campaign{Spec: c.Spec, Records: c.records}).WriteArtifacts(c.Dir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	c.mu.Lock()
	c.art = art
	c.mu.Unlock()
	return nil
}

// State returns the campaign's current lifecycle position.
func (c *Campaign) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Counts returns the live progress totals.
func (c *Campaign) Counts() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts
}

// Err returns the infrastructure error message of a failed campaign.
func (c *Campaign) Err() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errMsg
}

// Done returns a channel closed when the campaign reaches a terminal
// state.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Aggregate returns the aggregate artifact bytes (JSON and CSV) of a
// done campaign; ok is false until then.
func (c *Campaign) Aggregate() (jsonData, csvData []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.art == nil {
		return nil, nil, false
	}
	return c.art.AggJSON, c.art.AggCSV, true
}

// Robustness returns the robustness artifact bytes of a done campaign
// with adversarial cells; ok is false otherwise.
func (c *Campaign) Robustness() (jsonData, csvData []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.art == nil {
		return nil, nil, false
	}
	return c.art.RobJSON, c.art.RobCSV, c.art.RobJSON != nil
}

// Records returns the completed records in expansion order (indexes
// without a completed run are zero Records; see Counts.Completed).
func (c *Campaign) Records() []sweep.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]sweep.Record, 0, len(c.records))
	for i, rec := range c.records {
		if c.have[i] {
			out = append(out, rec)
		}
	}
	return out
}

// subscribe attaches an event stream: a replay of everything already
// journaled plus a live channel for the rest. The channel is nil when
// the campaign is already terminal (the replay is complete); it is
// closed at finalize. cancel detaches early (client disconnect).
func (c *Campaign) subscribe() (replay []sweep.Record, ch chan sweep.Record, cancel func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	replay = append([]sweep.Record(nil), c.log...)
	if c.state.Terminal() {
		return replay, nil, func() {}
	}
	// Reserve room for every remaining run so complete() never drops.
	ch = make(chan sweep.Record, c.counts.Total-len(replay)+1)
	c.subs[ch] = true
	cancel = func() {
		c.mu.Lock()
		delete(c.subs, ch)
		c.mu.Unlock()
	}
	return replay, ch, cancel
}
