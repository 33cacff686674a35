package mcc

import (
	"context"
	"fmt"

	"repro/internal/mcc/pipeline"
)

// StreamScheduler drives a stream of change requests through the MCC at
// multi-core throughput while keeping every accept/reject decision
// identical to proposing the changes serially in stream order.
//
// The coupling that makes a change stream inherently sequential is shared
// platform capacity: every accepted change shifts processor loads, which
// shifts the best-fit placement — and therefore the task sets and timing
// verdicts — of every later change. The scheduler therefore does not
// reorder decisions. Instead it exploits the cost structure of the accept
// path: placement bookkeeping (validation, mapping, synthesis, monitor
// planning) is diff-proportional and cheap, while the busy-window timing
// analyses of dirty resources dominate. The stream is cut into
// consecutive windows of a fixed number of changes (WithStreamWindow; the
// last window may be shorter). A window may hold any mix of changes —
// updates of one function, a provider and its requirer, removals — because
// every change is decided against the optimistic commits before it and
// every deferred verdict is verified before the window is final. Each
// window is processed in three phases:
//
//  1. Optimistic pass (serial, cheap): every change runs the full
//     incremental pipeline in stream order, but the busy-window timing
//     analyses of dirty resources are deferred (the timing stage still
//     constructs and digests the dirty task sets) and the candidate
//     commits optimistically. Every other stage decides inline — the
//     safety and security checks too, diff-scoped on warm passes and
//     from scratch on cold ones — so their rejections stand as-is.
//  2. Prefetch (concurrent): the window's dirty analyses, deduplicated
//     by task-set digest, fan out over the bounded worker pool through
//     the shared memoizing analyzer. This is where the cores are used:
//     the window's dominant cost runs in parallel.
//  3. Verification (serial, cheap): every deferred verdict is read back
//     in stream order. If all pass, the optimistic pass was exactly the
//     serial execution and the window is final. If any deferred verdict
//     fails (a missed deadline, an analysis error), the window's
//     optimistic commits are tainted: the scheduler rolls the controller
//     back to the window-start snapshot and replays the window serially
//     (the analyzer stays warm, so the replay re-pays only the cheap
//     stages).
//
// Rejections during the optimistic pass (contract violations, infeasible
// mappings, safety and security findings, custom-stage findings) never
// commit anything and are decided against exactly the state the serial
// order would have produced, so they stand as-is. Custom stages registered via WithStage run inside
// the optimistic pass (their verdicts are not deferred); a stage with
// external side effects would observe optimistic (possibly replayed)
// state and should not be combined with the scheduler.
//
// The scheduler owns the MCC for the duration of Run: it is not safe to
// propose changes from other goroutines concurrently.
type StreamScheduler struct {
	m       *MCC
	workers int
	window  int
	stats   StreamStats
}

// StreamOption configures a StreamScheduler.
type StreamOption func(*StreamScheduler)

// WithStreamWorkers bounds the pool that analyzes a window's deferred
// timing jobs concurrently. The default is the MCC's timing worker count
// (GOMAXPROCS unless overridden). Non-positive values clamp to 1 (the
// serial configuration) — never a silent fallback to the default.
func WithStreamWorkers(n int) StreamOption {
	return func(s *StreamScheduler) {
		if n < 1 {
			n = 1
		}
		s.workers = n
	}
}

// WithStreamWindow sets how many consecutive changes one optimistic
// window holds. Larger windows expose more concurrent analyses and pay
// fewer barriers, but widen the replay blast radius when a deferred
// verdict fails.
// Non-positive values clamp to 1 (windows of one change, i.e. serial
// proposals) — never a silent fallback to the default.
func WithStreamWindow(n int) StreamOption {
	return func(s *StreamScheduler) {
		if n < 1 {
			n = 1
		}
		s.window = n
	}
}

// defaultStreamWindow is the optimistic window size when the caller does
// not choose one.
const defaultStreamWindow = 16

// StreamStats reports how a Run spent its effort.
type StreamStats struct {
	// Windows is the number of optimistic windows formed.
	Windows int
	// Speculated counts changes decided by a window whose verification
	// passed (the optimistic pass was the serial execution).
	Speculated int
	// Prefetched counts deduplicated busy-window analyses fanned out
	// over the worker pool ahead of the decision point.
	Prefetched int
	// Replays counts windows whose verification failed and that were
	// re-decided serially from the window-start snapshot.
	Replays int
	// DiscardedPasses counts the optimistic pipeline passes thrown away
	// by replays: the replay re-runs every change of the window, so the
	// true pipeline cost of a replayed window is its serial passes plus
	// these (their per-stage wall clock is dropped with them).
	DiscardedPasses int
	// Conflicts is always 0: windows are fixed-size runs of the stream
	// and no longer break on conflicting changes. It is kept for readers
	// of the stats and in String().
	Conflicts int
	// PanicsRecovered counts panics recovered on the prefetch pool and
	// during verification (each one taints its window, forcing the
	// serial replay). Panics recovered inside a proposal's own pipeline
	// run are counted on that proposal's Report instead.
	PanicsRecovered int
	// RetriedAnalyses counts transient-fault analysis retries spent in
	// the prefetch and verification phases (retries inside a proposal's
	// pipeline run land on its Report).
	RetriedAnalyses int
}

// NewStreamScheduler returns a scheduler driving m. The MCC should run
// its default incremental engine; without the memoizing analyzer
// (WithoutIncremental) the prefetch phase has nowhere to store its
// results and the scheduler degrades to plain serial proposals.
func NewStreamScheduler(m *MCC, opts ...StreamOption) *StreamScheduler {
	s := &StreamScheduler{m: m, workers: m.workers, window: defaultStreamWindow}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Stats returns the effort counters of every Run so far.
func (s *StreamScheduler) Stats() StreamStats { return s.stats }

// Run decides every change in stream order and returns one report per
// change, exactly as serial ProposeUpdate/ProposeRemoval calls would.
func (s *StreamScheduler) Run(changes []Change) []*Report {
	return s.RunContext(context.Background(), changes)
}

// RunContext is Run bounded by ctx: every proposal (optimistic pass and
// serial replay alike) runs under it, composed with the MCC's
// per-proposal deadline when one is configured. An expired context
// resolves remaining proposals as deterministic deadline rejections —
// the stream never hangs on a stalled analysis.
func (s *StreamScheduler) RunContext(ctx context.Context, changes []Change) []*Report {
	reports := make([]*Report, 0, len(changes))
	for lo := 0; lo < len(changes); lo += s.window {
		if ctx.Err() != nil {
			// Stop forming windows: the remaining changes resolve as
			// deterministic deadline rejections without pipeline setup.
			for range changes[lo:] {
				reports = append(reports, s.m.expiredReport(ctx))
			}
			return reports
		}
		reports = append(reports, s.runWindow(ctx, changes[lo:min(lo+s.window, len(changes))])...)
		s.stats.Windows++
	}
	return reports
}

// runWindow decides one window of changes: optimistic pass, concurrent
// prefetch, verification, and — only if a deferred verdict fails — the
// serial replay from the window-start snapshot.
func (s *StreamScheduler) runWindow(gctx context.Context, changes []Change) []*Report {
	m := s.m
	if len(changes) == 1 || !m.incremental || m.quarantined {
		// Nothing to overlap (no memo table to prefetch into, or the
		// controller is quarantined and every proposal takes the pinned
		// from-scratch path anyway): plain serial proposals.
		reports := make([]*Report, 0, len(changes))
		for _, c := range changes {
			if gctx.Err() != nil {
				reports = append(reports, m.expiredReport(gctx))
				continue
			}
			reports = append(reports, m.integrateChangeCtx(gctx, c))
		}
		return reports
	}

	// Rollback point: the start snapshot pointer and a fresh epoch, so the
	// window's commits copy exactly the snapshot parts they write — cost
	// follows the window's footprint, not the platform size.
	j := m.beginWindow()
	type pend struct {
		report *Report
		dt     *deferredChecks
	}
	var pendings []pend
	reports := make([]*Report, 0, len(changes))
	// optimisticPasses counts the pipeline passes the optimistic phase
	// actually ran. Deadline-expired short-circuits never enter the
	// pipeline — their Passes field only mirrors the deterministic
	// deadline report — so they are excluded here, and the replay's
	// discard accounting below cannot inflate DiscardedPasses (and the
	// Evaluations the scenario layer derives from it).
	optimisticPasses := 0

	m.deferChecks = true
	for _, c := range changes {
		if gctx.Err() != nil {
			reports = append(reports, m.expiredReport(gctx))
			continue
		}
		rep := m.integrateChangeCtx(gctx, c)
		reports = append(reports, rep)
		optimisticPasses += rep.Passes
		if rep.Accepted && m.att.deferred != nil {
			pendings = append(pendings, pend{rep, m.att.deferred})
		}
	}
	m.deferChecks = false

	// Concurrent phase: run the window's dirty busy-window analyses on
	// the pool, deduplicated by digest (they land in the shared memo
	// table, where verification reads them back).
	var tasks []func()
	seen := make(map[uint64]bool)
	for _, p := range pendings {
		dt := p.dt
		for _, job := range dt.jobs {
			if seen[analysisKey(job)] {
				continue
			}
			seen[analysisKey(job)] = true
			s.stats.Prefetched++
			// A fault on the pool (an injected error or a recovered panic)
			// taints the window: the verification pass then fails it and
			// the serial replay re-decides it — a fault on the pool can
			// degrade throughput, never crash the process or corrupt a
			// decision.
			tasks = append(tasks, func() {
				defer func() {
					if r := recover(); r != nil {
						m.panicsRecovered.Add(1)
						dt.tainted.Store(true)
					}
				}()
				if _, fired, err := m.inject.Fire(nil, "stream.prefetch", job.resource); fired && err != nil {
					dt.tainted.Store(true)
					return
				}
				m.runTimingJob(nil, job) //nolint:errcheck // memo warming only
			})
		}
	}
	retried0, panics0 := m.retriedAnalyses.Load(), m.panicsRecovered.Load()
	s.prefetch(tasks)

	// Verification: read every deferred verdict back in stream order.
	verified := true
	for _, p := range pendings {
		if !s.verifyDeferred(p.report, p.dt) {
			verified = false
			break
		}
	}
	// Retries and recovered panics spent outside any proposal's own
	// pipeline run (prefetch pool, verification re-reads) are accounted
	// on the stream stats.
	s.stats.RetriedAnalyses += int(m.retriedAnalyses.Load() - retried0)
	s.stats.PanicsRecovered += int(m.panicsRecovered.Load() - panics0)
	if verified {
		m.commitWindow()
		s.stats.Speculated += len(changes)
		return reports
	}

	// A deferred verdict failed: the optimistic commits after (and
	// including) the failing proposal are tainted. Roll back to the
	// window-start state and replay serially — the authoritative order.
	// The discarded passes stay on the books so throughput accounting
	// never understates what the engine actually ran — but only the
	// genuine optimistic pipeline passes count; deadline-expired
	// short-circuits never ran one.
	s.stats.Replays++
	s.stats.DiscardedPasses += optimisticPasses
	m.rollbackWindow(j)
	reports = reports[:0]
	for _, c := range changes {
		// A cancelled or expired context must stop the serial replay
		// promptly: the remaining changes of the window resolve as
		// deadline rejections instead of paying a full pipeline setup
		// each just to rediscover the expiry.
		if gctx.Err() != nil {
			reports = append(reports, m.expiredReport(gctx))
			continue
		}
		reports = append(reports, m.integrateChangeCtx(gctx, c))
	}
	return reports
}

// analysisKey distinguishes the SPP and SPNP analyses of identical task
// sets for prefetch deduplication. It is local to the dedup set — the
// analyzer derives its own cache keys — so a collision at worst skips
// one prefetch and shifts that analysis to the verification pass.
func analysisKey(j timingJob) uint64 {
	if j.spnp {
		return j.digest ^ 1
	}
	return j.digest
}

// prefetch runs the deferred analysis tasks on at most s.workers
// goroutines (the calling goroutine included). Results land in the shared
// memo table, faults in each proposal's deferredChecks record; the
// barrier at the end makes both visible to the verification pass.
func (s *StreamScheduler) prefetch(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	workers := s.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	runParallel(len(tasks), workers, func(k int) { tasks[k]() })
}

// verifyDeferred re-validates one optimistically accepted proposal: every
// deferred busy-window verdict is read back (a memo hit after prefetch)
// and checked exactly as the timing stage would have. On success the
// report's timing delta is filled with fresh copies of the deferred
// verdicts, the window heal map learns the verdicts for the tables bound
// by this window's earlier commits, and the snapshot is replaced by a
// copy with the patched table so post-window views are complete (the
// start snapshot, the journal's rollback pointer, is untouched, so a
// later proposal's failed verdict rolls the patch back).
// On any failed check it reports false and leaves the caller to replay
// the window.
func (s *StreamScheduler) verifyDeferred(rep *Report, dt *deferredChecks) bool {
	// A tainted record means a prefetch task for this proposal hit a
	// fault (injected error or recovered panic): the optimistic decision
	// cannot be trusted, the window replays serially.
	if dt.tainted.Load() {
		return false
	}
	m := s.m
	if len(dt.jobs) == 0 {
		return true
	}
	delta := make([]TimingResult, 0, len(dt.jobs))
	t := m.snap.res
	var fills []committedRes
	for _, job := range dt.jobs {
		res, err := m.runTimingJobSafe(nil, job)
		if err != nil {
			return false
		}
		for _, r := range res.Results {
			if !r.Schedulable {
				return false
			}
		}
		m.journal.heals[resDigestKey{job.resource, job.digest}] = res
		if cr := t.get(int(job.slot)); cr.job.digest == job.digest && cr.res.Results == nil {
			fills = append(fills, committedRes{job: cr.job, res: res})
		}
		delta = append(delta, pipeline.CloneTimingResult(res))
	}
	rep.TimingDelta = delta
	if len(fills) > 0 {
		// The patch leaves the start snapshot's table and every bound view
		// intact.
		m.ownSnap().res = t.patch(m.newEpoch(), fills, nil)
	}
	return true
}

// String renders stream stats for telemetry rows. Every counter the
// struct carries is included — in particular the fault-spend telemetry
// (discarded passes, recovered panics, analysis retries) that chaos-tier
// rows report; silently dropping those under-reports what the engine
// actually ran.
func (st StreamStats) String() string {
	return fmt.Sprintf("windows %d (speculated %d, replays %d, conflicts %d, prefetched %d, discarded %d, panics %d, retries %d)",
		st.Windows, st.Speculated, st.Replays, st.Conflicts, st.Prefetched,
		st.DiscardedPasses, st.PanicsRecovered, st.RetriedAnalyses)
}
