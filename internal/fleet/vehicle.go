package fleet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/mcc"
	"repro/internal/model"
)

// vehicle is one tenant bulkhead: its own MCC, crash budget and wait
// bound, and its committed trajectory. Requests decide on their callers'
// goroutines, one at a time: the MCC, the committed slice and the crash
// count belong to whoever holds the turn (and to the registration path
// before the vehicle is published); nothing else touches them.
type vehicle struct {
	id       string
	platform *model.Platform
	baseline *model.FunctionalArchitecture

	// turn is held by the one request deciding. Waiting requests block
	// on the send, and a channel serves blocked senders in FIFO order, so
	// they decide in arrival order.
	turn chan struct{}
	// pending counts admitted, unreplied requests: at most QueueDepth
	// waiting for the turn plus the one holding it.
	pending atomic.Int64

	m         *mcc.MCC
	committed []mcc.Change // accepted changes since baseline, in order
	crashes   int          // consecutive crashes (supervisor state)

	parked atomic.Bool
}

// buildVehicle constructs the vehicle's MCC sharing the fleet analyzer,
// deploys the baseline through the full acceptance pipeline, and replays
// an optional committed-change trajectory (journal recovery and crash
// rebuilds). Replaying the exact accepted sequence — rather than
// wholesale re-proposing the final architecture — reproduces the
// original placement trajectory, so post-rebuild decisions equal a
// never-restarted oracle's.
func (s *Server) buildVehicle(v *vehicle, replay []mcc.Change) error {
	opts := append([]mcc.Option{mcc.WithAnalyzer(s.analyzer)}, s.cfg.MCCOptions...)
	if s.cfg.ProposalDeadline > 0 {
		opts = append(opts, mcc.WithProposalDeadline(s.cfg.ProposalDeadline))
	}
	m, err := mcc.New(v.platform, opts...)
	if err != nil {
		return fmt.Errorf("fleet: vehicle %s: %w", v.id, err)
	}
	if rep := m.ProposeArchitecture(v.baseline); !rep.Accepted {
		return fmt.Errorf("fleet: vehicle %s: baseline rejected at %s: %v",
			v.id, rep.RejectedAt, rep.Findings)
	}
	v.m = m
	v.committed = v.committed[:0]
	for _, c := range replay {
		rep := proposeChange(context.Background(), m, c)
		if !rep.Accepted {
			// A previously committed change re-deciding differently means
			// the committed state and the journal disagree; surface it
			// rather than silently diverging.
			return fmt.Errorf("fleet: vehicle %s: committed change %s rejected on replay at %s: %v",
				v.id, c, rep.RejectedAt, rep.Findings)
		}
		v.committed = append(v.committed, c)
	}
	return nil
}

// proposeChange dispatches one Change through the MCC's context-bounded
// entry points.
func proposeChange(ctx context.Context, m *mcc.MCC, c mcc.Change) *mcc.Report {
	if c.Update != nil {
		return m.ProposeUpdateContext(ctx, *c.Update)
	}
	return m.ProposeRemovalContext(ctx, c.Remove)
}

// decide runs one admitted request to its reply once the vehicle's
// turn comes, with the supervisor wrapped around it: a crash (recovered
// panic or injected fleet.worker fault) is counted, parks the vehicle
// once the crash budget is spent, and otherwise rebuilds the vehicle
// from its committed trajectory after a backoff and retries the request
// on the rebuilt vehicle. The crash never decided that request: the
// fleet.worker hook fires before the pipeline and the MCC recovers its
// own internal panics, so a crash cannot interrupt a commit. A crash
// during drain skips the rebuild (the server is going away) and resolves
// the request as parked.
func (s *Server) decide(ctx context.Context, v *vehicle, c mcc.Change) Decision {
	v.turn <- struct{}{}
	defer func() { <-v.turn }()
	parked := Decision{Vehicle: v.id, Verdict: RejectedParked}
	if v.parked.Load() {
		return parked
	}
	for {
		d, crashed := s.decideOne(ctx, v, c)
		if !crashed {
			v.crashes = 0
			return d
		}
		v.crashes++
		s.crashes.Add(1)
		select {
		case <-s.stopCh:
			return parked
		default:
		}
		if v.crashes > s.cfg.MaxRestarts {
			s.park(v)
			return parked
		}
		s.backoff(v.crashes)
		if err := s.rebuild(v); err != nil {
			// The rebuild itself failed (e.g. journal/state divergence):
			// treat it as a terminal crash and park.
			s.park(v)
			return parked
		}
		s.restarts.Add(1)
	}
}

// decideOne runs one request through the vehicle's pipeline. It reports
// crashed when the decision crashed (recovered panic or injected
// fleet.worker fault) before the pipeline ran; the caller retries.
func (s *Server) decideOne(ctx context.Context, v *vehicle, c mcc.Change) (d Decision, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			crashed = true
		}
	}()
	// The per-tenant fault hook fires BEFORE the pipeline runs, so a
	// crash here never interrupts a commit: the request is either fully
	// decided or untouched. Stalls are bounded by the request context.
	if _, fired, err := s.cfg.Injector.Fire(ctx.Done(), "fleet.worker", v.id); fired && err != nil {
		return Decision{}, true
	}
	rep := proposeChange(ctx, v.m, c)
	d = Decision{Vehicle: v.id, Verdict: Rejected, Report: rep}
	if rep.Accepted {
		d.Verdict = Accepted
		// Journal before replying: a reply of "accepted" is only sent
		// for changes the journal already holds, so a crash after the
		// reply cannot lose a reported acceptance (a torn tail only
		// drops acceptances nobody heard about).
		if s.journal != nil {
			if err := s.journal.append(journalRecord{Vehicle: v.id, Kind: recChange, Change: &c}); err != nil {
				// The MCC committed a change the journal does not hold:
				// bring the vehicle back to the journaled trajectory,
				// which is what a restart would recover.
				if s.rebuild(v) != nil {
					s.park(v)
				}
				d = Decision{Vehicle: v.id, Verdict: RejectedJournal}
			}
		}
	}
	if d.Verdict == Accepted {
		v.committed = append(v.committed, c)
		s.accepted.Add(1)
	} else {
		s.rejected.Add(1)
	}
	s.decided.Add(1)
	return d, false
}

// park permanently retires a crashed vehicle: every request still
// waiting for its turn resolves as RejectedParked, and future Propose
// calls reject at admission. The rest of the fleet is untouched.
func (s *Server) park(v *vehicle) {
	v.parked.Store(true)
	s.parked.Add(1)
}

// backoff sleeps the supervisor's exponential restart delay; a drain
// cuts it short so shutdown is never held up by a crashing tenant.
func (s *Server) backoff(crashes int) {
	t := time.NewTimer(backoffDelay(s.cfg.RestartBackoff, crashes))
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.stopCh:
	}
}

// maxBackoff caps the doubling of a restart delay whose base is below it.
const maxBackoff = 2 * time.Second

// backoffDelay is the restart delay after the crashes-th consecutive
// crash: base, doubled per crash after the first, capped at
// max(maxBackoff, base) so a configured base is never shortened.
func backoffDelay(base time.Duration, crashes int) time.Duration {
	limit := max(maxBackoff, base)
	d := base
	for i := 1; i < crashes; i++ {
		if d >= limit/2 {
			return limit
		}
		d *= 2
	}
	return d
}

// rebuild reconstructs a crashed vehicle's MCC from its baseline and
// committed trajectory. The shared analyzer stays warm, so the replay
// re-pays only the cheap pipeline stages.
func (s *Server) rebuild(v *vehicle) error {
	replay := append([]mcc.Change(nil), v.committed...)
	return s.buildVehicle(v, replay)
}
