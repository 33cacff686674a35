// Package fleet hosts many per-vehicle MCC instances behind one
// long-lived, supervised server — the multi-tenant backend the ROADMAP
// north star asks for. Each vehicle is a bulkhead: its own MCC, its own
// crash budget and its own bound on waiting proposals. A proposal
// decides on its caller's goroutine once the vehicle's turn comes;
// waiting proposals take the turn in arrival order, one at a time. A
// crashed decision (recovered panic or injected fault) is supervised in
// that same call: the vehicle is rebuilt from its committed change
// trajectory, restart-counted with exponential backoff, and permanently
// parked after the configured crash budget — while every other tenant
// keeps deciding. The server starts no goroutine of its own.
//
// Admission is never blocking: a global in-flight budget plus the
// per-vehicle wait bound convert overload into explicit
// RejectedOverload verdicts, and per-request deadline semantics
// (mcc.WithProposalDeadline composed with the request context) bound
// every decision that is admitted. SIGTERM-style shutdown is a graceful
// drain: intake stops, waiting and deciding requests run to a reply,
// the shared analyzer cache is persisted, and the caller gets the
// drained/shed accounting.
//
// All vehicles share one content-addressed cpa.Analyzer: same-model
// vehicles pay each busy-window analysis once fleet-wide (the analyzer's
// single-flight layer coalesces concurrent identical digests). For that
// reason per-vehicle MCCs are built WITHOUT fault injectors — mcc.New
// installs an MCC's injector on its analyzer, which here is shared, so
// one tenant's faults would leak to all. Per-tenant faults go through
// the fleet's own hook points instead, keyed by vehicle ID:
// "fleet.queue" (admission) and "fleet.worker" (decision path).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpa"
	"repro/internal/faultinject"
	"repro/internal/mcc"
	"repro/internal/model"
)

// Verdict classifies the outcome of one Propose call.
type Verdict string

// Verdicts. Only Accepted commits; everything else is an explicit
// rejection — the server never hangs a request to avoid answering.
const (
	// Accepted: the change passed the full acceptance pipeline and is
	// committed (journaled before the reply when a journal is configured).
	Accepted Verdict = "accepted"
	// Rejected: the acceptance pipeline rejected the change; Report
	// carries the findings (deadline expiries land here too, marked
	// Degraded("deadline") on the report).
	Rejected Verdict = "rejected"
	// RejectedJournal: the pipeline accepted the change, but the commit
	// journal could not record it, so it is not committed: the vehicle is
	// rebuilt from its journaled trajectory (parked if that fails) and
	// decides on as a server restarted from the journal would. Report is
	// nil, since the acceptance it would carry was undone.
	RejectedJournal Verdict = "rejected-journal"
	// RejectedOverload: load-shed at admission — the global in-flight
	// budget or the vehicle's wait bound was full. The pipeline never ran.
	RejectedOverload Verdict = "rejected-overload"
	// RejectedDraining: the server is draining and accepts no new work.
	RejectedDraining Verdict = "rejected-draining"
	// RejectedParked: the vehicle exhausted its crash budget and is
	// permanently parked.
	RejectedParked Verdict = "rejected-parked"
	// RejectedUnknown: no such vehicle is registered.
	RejectedUnknown Verdict = "rejected-unknown-vehicle"
)

// Decision is the reply to one Propose call.
type Decision struct {
	Vehicle string
	Verdict Verdict
	// Report is the MCC's integration report for Accepted/Rejected
	// verdicts; nil for admission-level rejections (the pipeline did not
	// run) and for RejectedJournal.
	Report *mcc.Report
}

// Config parameterizes a Server. The zero value gets sane defaults.
type Config struct {
	// QueueDepth bounds the proposals waiting for each vehicle's turn,
	// besides the one deciding (default 16).
	QueueDepth int
	// MaxInFlight bounds admitted-but-undecided requests fleet-wide
	// (default 256). Admission beyond the budget sheds.
	MaxInFlight int
	// MaxRestarts is the per-vehicle crash budget: crash MaxRestarts+1
	// times and the vehicle is parked (default 3).
	MaxRestarts int
	// RestartBackoff is the supervisor's base backoff before a rebuild;
	// it doubles per consecutive crash up to max(2s, RestartBackoff), so
	// a base above 2s is slept as configured and never doubled (default
	// 10ms). Drain skips the remaining backoff.
	RestartBackoff time.Duration
	// ProposalDeadline, when > 0, is installed on every vehicle MCC via
	// mcc.WithProposalDeadline: each admitted request resolves within it.
	ProposalDeadline time.Duration
	// CachePath, when set, warm-starts the shared analyzer from this
	// file at New and persists it at Drain. A torn or corrupt file falls
	// back to a cold cache — never an error.
	CachePath string
	// JournalPath, when set, appends every registration and accepted
	// change to a torn-tail-tolerant commit journal; New replays it to
	// rebuild the fleet's committed state (crash-recovery warm start).
	JournalPath string
	// Injector fires the fleet's per-tenant hook points ("fleet.queue",
	// "fleet.worker"; resource = vehicle ID). It is NOT passed to vehicle
	// MCCs — see the package comment.
	Injector *faultinject.Injector
	// MCCOptions is appended to every vehicle MCC's option list. Do not
	// pass mcc.WithFaultInjector here (shared-analyzer pollution); use
	// Injector instead.
	MCCOptions []mcc.Option
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 3
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 10 * time.Millisecond
	}
	return c
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	Vehicles int
	Parked   int
	// Offered counts Propose calls; Decided the subset that ran the
	// pipeline; Shed the subset load-shed at admission. Accepted and
	// Rejected split Decided by verdict; a RejectedJournal reply counts
	// as rejected.
	Offered  int64
	Decided  int64
	Accepted int64
	Rejected int64
	Shed     int64
	// Crashes counts crashed decisions, Restarts successful rebuilds.
	Crashes  int64
	Restarts int64
	Analyzer cpa.AnalyzerStats
}

// DrainReport summarizes a graceful drain.
type DrainReport struct {
	// Flushed counts requests that were waiting or deciding when the
	// drain began and were still decided.
	Flushed int64
	// Shed is the lifetime load-shed count.
	Shed int64
	// Parked is the number of permanently parked vehicles.
	Parked int
	// CacheSaved reports whether the analyzer cache was persisted.
	CacheSaved bool
}

// Server hosts the fleet. Create with New, register vehicles with
// AddVehicle, submit work with Propose, stop with Drain.
type Server struct {
	cfg      Config
	analyzer *cpa.Analyzer
	journal  *commitJournal

	// mu guards the vehicle map and the draining flag. Propose holds the
	// read lock from its draining check through admitted.Add, and Drain
	// takes the write lock to flip the flag — so once Drain proceeds, no
	// request slips past the closed intake and admitted.Wait sees them all.
	mu       sync.RWMutex
	vehicles map[string]*vehicle
	order    []string
	draining bool

	slots    chan struct{} // global in-flight budget
	stopCh   chan struct{} // closed by Drain: cuts restart backoffs short
	admitted sync.WaitGroup

	drainOnce sync.Once
	drainRep  DrainReport

	warmStart bool // analyzer cache loaded from CachePath

	offered  atomic.Int64
	decided  atomic.Int64
	accepted atomic.Int64
	rejected atomic.Int64
	shed     atomic.Int64
	crashes  atomic.Int64
	restarts atomic.Int64
	parked   atomic.Int64
}

// New builds a server: the shared analyzer is warm-started from
// Config.CachePath when possible (a missing, torn, or corrupt cache file
// falls back to a cold start), and when Config.JournalPath holds a
// previous session's commit journal every recorded vehicle is rebuilt by
// replaying its baseline and accepted changes in commit order.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		analyzer: cpa.NewAnalyzer(),
		vehicles: make(map[string]*vehicle),
		slots:    make(chan struct{}, cfg.MaxInFlight),
		stopCh:   make(chan struct{}),
	}
	if cfg.CachePath != "" {
		switch err := cpa.LoadCacheFile(s.analyzer, cfg.CachePath); {
		case err == nil:
			s.warmStart = true
		case os.IsNotExist(err):
			// First session: cold cache.
		default:
			// Torn or corrupt cache: a pure performance artifact, so fall
			// back to a cold analyzer rather than failing the boot.
			s.analyzer.Reset()
		}
	}
	if cfg.JournalPath != "" {
		j, recovered, order, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("fleet: open journal: %w", err)
		}
		s.journal = j
		for _, id := range order {
			rv := recovered[id]
			if err := s.addVehicle(id, rv.Platform, rv.Baseline, rv.Changes, false); err != nil {
				j.close()
				return nil, fmt.Errorf("fleet: recover vehicle %s: %w", id, err)
			}
		}
	}
	return s, nil
}

// WarmStarted reports whether the analyzer cache was loaded from disk.
func (s *Server) WarmStarted() bool { return s.warmStart }

// Vehicles lists the registered vehicle IDs in registration order.
func (s *Server) Vehicles() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// AddVehicle registers a vehicle: a fresh MCC sharing the fleet
// analyzer, the baseline architecture deployed through the full
// acceptance pipeline. The registration is journaled so a restarted
// server rebuilds the vehicle.
func (s *Server) AddVehicle(id string, p *model.Platform, baseline *model.FunctionalArchitecture) error {
	return s.addVehicle(id, p, baseline, nil, true)
}

func (s *Server) addVehicle(id string, p *model.Platform, baseline *model.FunctionalArchitecture, replay []mcc.Change, journal bool) error {
	if id == "" {
		return errors.New("fleet: empty vehicle id")
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("fleet: server draining")
	}
	if _, dup := s.vehicles[id]; dup {
		s.mu.Unlock()
		return fmt.Errorf("fleet: vehicle %s already registered", id)
	}
	// Reserve the slot under the lock; the expensive build happens after.
	s.vehicles[id] = nil
	s.mu.Unlock()

	v := &vehicle{
		id:       id,
		platform: p,
		baseline: baseline,
		turn:     make(chan struct{}, 1),
	}
	if err := s.buildVehicle(v, replay); err != nil {
		s.mu.Lock()
		delete(s.vehicles, id)
		s.mu.Unlock()
		return err
	}
	if journal && s.journal != nil {
		if err := s.journal.append(journalRecord{
			Vehicle: id, Kind: recBaseline, Platform: p, Baseline: baseline,
		}); err != nil {
			s.mu.Lock()
			delete(s.vehicles, id)
			s.mu.Unlock()
			return fmt.Errorf("fleet: journal baseline: %w", err)
		}
	}
	s.mu.Lock()
	if s.draining {
		delete(s.vehicles, id)
		s.mu.Unlock()
		return errors.New("fleet: server draining")
	}
	s.vehicles[id] = v
	s.order = append(s.order, id)
	s.mu.Unlock()
	return nil
}

// Propose submits one change for a vehicle and blocks until a decision
// (admission rejections return immediately; admitted requests resolve
// within the configured deadline semantics). Safe for unrestricted
// concurrent use. With a journal configured, Accepted is replied only for
// a change the journal holds: a change whose append fails is replied
// RejectedJournal and is not committed.
func (s *Server) Propose(ctx context.Context, id string, c mcc.Change) Decision {
	if ctx == nil {
		ctx = context.Background()
	}
	s.offered.Add(1)
	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		return Decision{Vehicle: id, Verdict: RejectedDraining}
	}
	v := s.vehicles[id]
	if v == nil {
		s.mu.RUnlock()
		return Decision{Vehicle: id, Verdict: RejectedUnknown}
	}
	if v.parked.Load() {
		s.mu.RUnlock()
		return Decision{Vehicle: id, Verdict: RejectedParked}
	}
	// Admission hook: an injected error models a failing admission layer
	// for this tenant — the request sheds instead of entering the system.
	if _, fired, err := s.cfg.Injector.Fire(ctx.Done(), "fleet.queue", id); fired && err != nil {
		s.mu.RUnlock()
		s.shed.Add(1)
		return Decision{Vehicle: id, Verdict: RejectedOverload}
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.mu.RUnlock()
		s.shed.Add(1)
		return Decision{Vehicle: id, Verdict: RejectedOverload}
	}
	if v.pending.Add(1) > int64(s.cfg.QueueDepth)+1 {
		v.pending.Add(-1)
		<-s.slots
		s.mu.RUnlock()
		s.shed.Add(1)
		return Decision{Vehicle: id, Verdict: RejectedOverload}
	}
	s.admitted.Add(1)
	s.mu.RUnlock()
	// An admitted request always gets a reply: deadlines resolve stalled
	// pipelines, a crash is retried on the rebuilt vehicle, and parking
	// resolves every waiting request as RejectedParked.
	d := s.decide(ctx, v, c)
	v.pending.Add(-1)
	<-s.slots
	s.admitted.Done()
	return d
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	n := len(s.order)
	s.mu.RUnlock()
	return Stats{
		Vehicles: n,
		Parked:   int(s.parked.Load()),
		Offered:  s.offered.Load(),
		Decided:  s.decided.Load(),
		Accepted: s.accepted.Load(),
		Rejected: s.rejected.Load(),
		Shed:     s.shed.Load(),
		Crashes:  s.crashes.Load(),
		Restarts: s.restarts.Load(),
		Analyzer: s.analyzer.Stats(),
	}
}

// Analyzer exposes the shared timing analyzer (telemetry, tests).
func (s *Server) Analyzer() *cpa.Analyzer { return s.analyzer }

// Drain gracefully stops the server: intake closes (new Propose calls
// get RejectedDraining), restart backoffs are cut short, every waiting
// and deciding request runs to a reply, the analyzer cache is persisted
// when configured, and the journal is synced and closed. Idempotent;
// callers typically invoke it on SIGTERM. No accepted in-flight decision
// is lost: a request admitted before the drain began always receives its
// reply.
func (s *Server) Drain() DrainReport {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		decided0 := s.decided.Load()
		close(s.stopCh)
		s.admitted.Wait()
		rep := DrainReport{
			Flushed: s.decided.Load() - decided0,
			Shed:    s.shed.Load(),
			Parked:  int(s.parked.Load()),
		}
		if s.cfg.CachePath != "" {
			if err := cpa.SaveCacheFile(s.analyzer, s.cfg.CachePath); err == nil {
				rep.CacheSaved = true
			}
		}
		if s.journal != nil {
			s.journal.close() //nolint:errcheck // drain is best-effort teardown
		}
		s.drainRep = rep
	})
	return s.drainRep
}
