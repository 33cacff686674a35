package mcc

import (
	"context"
	"fmt"

	"repro/internal/cpa"
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
// consecutive windows of a fixed number of changes (16; the last window
// may be shorter). A window may hold any mix of changes — updates of one
// function, a provider and its requirer, removals — because every change
// is decided against the optimistic commits before it and every deferred
// verdict is verified before the window is final. Each window is
// processed in three phases:
//
//  1. Optimistic pass (serial, cheap): every change runs the full
//     incremental pipeline in stream order, but the busy-window timing
//     analyses of dirty resources are deferred (the timing stage still
//     constructs and digests the dirty task sets) and the candidate
//     commits optimistically: each dirty resource's committed-table entry
//     is installed pending, with no WCRT table yet, and the attempt
//     records it. Every other stage decides inline — the safety and
//     security checks too, diff-scoped on warm passes and from scratch on
//     cold ones — so their rejections stand as-is.
//  2. Analysis (concurrent): each distinct (task-set digest, policy)
//     analysis of the window's pending entries runs once on the bounded
//     worker pool, through the shared memoizing analyzer. This is where
//     the cores are used: the window's dominant cost runs in parallel.
//  3. Verification (serial, cheap): in stream order, every pending
//     entry's verdict is checked exactly as the timing stage would have
//     and written into the entry in place, so every report of the window
//     reads complete tables. If all pass, the optimistic pass was exactly
//     the serial execution and the window is final. If any verdict fails
//     (a missed deadline, an analysis error or pool fault), the scheduler
//     rolls the controller back to the window-start snapshot, dropping
//     the window's entries with it, and replays the window serially (the
//     analyzer stays warm, so the replay re-pays only the cheap stages).
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
	m *MCC
	// workers bounds the analysis pool (the MCC's timing worker count);
	// window is the number of consecutive changes one optimistic window
	// holds (defaultStreamWindow).
	workers int
	window  int
	stats   StreamStats
}

// defaultStreamWindow is the optimistic window size. Larger windows
// expose more concurrent analyses and pay fewer barriers, but widen the
// replay blast radius when a deferred verdict fails.
const defaultStreamWindow = 16

// StreamStats reports how a Run spent its effort.
type StreamStats struct {
	// Windows is the number of optimistic windows formed.
	Windows int
	// Speculated counts changes decided by a window whose verification
	// passed (the optimistic pass was the serial execution).
	Speculated int
	// Prefetched counts the distinct (task-set digest, policy)
	// busy-window analyses run on the worker pool ahead of verification.
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
	// PanicsRecovered counts panics recovered on the analysis pool: each
	// one becomes its analysis's error, which fails verification and
	// forces the window's serial replay. Panics recovered inside a
	// proposal's own pipeline run are counted on that proposal's Report
	// instead.
	PanicsRecovered int
	// RetriedAnalyses counts transient-fault analysis retries spent on
	// the analysis pool (retries inside a proposal's pipeline run land on
	// its Report).
	RetriedAnalyses int
}

// NewStreamScheduler returns a scheduler driving m. The MCC should run
// its default incremental engine; without the memoizing analyzer
// (WithoutIncremental) the scheduler degrades to plain serial proposals.
func NewStreamScheduler(m *MCC) *StreamScheduler {
	return &StreamScheduler{m: m, workers: m.workers, window: defaultStreamWindow}
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
// analysis, verification, and — only if a deferred verdict fails — the
// serial replay from the window-start snapshot.
func (s *StreamScheduler) runWindow(gctx context.Context, changes []Change) []*Report {
	m := s.m
	if len(changes) == 1 || !m.incremental || m.quarantined {
		// Nothing to overlap (no memo table to share analyses through, or
		// the controller is quarantined and every proposal takes the
		// pinned from-scratch path anyway): plain serial proposals.
		return s.runSerial(gctx, changes)
	}

	start := m.beginWindow()
	type pend struct {
		report  *Report
		entries []*committedRes
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
		if rep.Accepted && len(m.att.pending) > 0 {
			pendings = append(pendings, pend{rep, m.att.pending})
		}
	}
	m.deferChecks = false

	// Concurrent phase: each distinct analysis of the window's pending
	// entries runs once on the pool (an analysis depends on the task set
	// and the policy alone). A fault there (an injected error, or a
	// recovered panic wrapped as errWorkerPanic) becomes that analysis's
	// error: verification fails on it and the window replays, so a pool
	// fault can degrade throughput, never crash the process or corrupt a
	// decision.
	type key struct {
		digest uint64
		spnp   bool
	}
	keys := make(map[key]int)
	var jobs []timingJob
	for _, p := range pendings {
		for _, e := range p.entries {
			k := key{e.job.digest, e.job.spnp}
			if _, ok := keys[k]; !ok {
				keys[k] = len(jobs)
				jobs = append(jobs, e.job)
			}
		}
	}
	s.stats.Prefetched += len(jobs)
	results := make([]TimingResult, len(jobs))
	errs := make([]error, len(jobs))
	retried0, panics0 := m.retriedAnalyses.Load(), m.panicsRecovered.Load()
	runParallel(len(jobs), min(s.workers, len(jobs)), func(k int) {
		defer func() {
			if r := recover(); r != nil {
				m.panicsRecovered.Add(1)
				errs[k] = fmt.Errorf("%w: %v", errWorkerPanic, r)
			}
		}()
		if _, fired, err := m.inject.Fire(nil, "stream.prefetch", jobs[k].resource); fired && err != nil {
			errs[k] = err
			return
		}
		results[k], errs[k] = m.runTimingJob(nil, jobs[k])
	})
	s.stats.RetriedAnalyses += int(m.retriedAnalyses.Load() - retried0)
	s.stats.PanicsRecovered += int(m.panicsRecovered.Load() - panics0)

	// Verification, in stream order: check every pending entry's verdict
	// and write it into the entry, filling the report's timing delta.
	verified := true
verify:
	for _, p := range pendings {
		delta := make([]TimingResult, 0, len(p.entries))
		for _, e := range p.entries {
			k := keys[key{e.job.digest, e.job.spnp}]
			if errs[k] != nil || !schedulable(results[k].Results) {
				verified = false
				break verify
			}
			e.res = TimingResult{Resource: e.job.resource, Results: results[k].Results}
			delta = append(delta, pipeline.CloneTimingResult(e.res))
		}
		p.report.TimingDelta = delta
	}
	if verified {
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
	m.rollbackWindow(start)
	return s.runSerial(gctx, changes)
}

// runSerial decides changes as plain serial proposals. A cancelled or
// expired context stops it promptly: the remaining changes resolve as
// deadline rejections instead of paying a full pipeline setup each just
// to rediscover the expiry.
func (s *StreamScheduler) runSerial(gctx context.Context, changes []Change) []*Report {
	reports := make([]*Report, 0, len(changes))
	for _, c := range changes {
		if gctx.Err() != nil {
			reports = append(reports, s.m.expiredReport(gctx))
			continue
		}
		reports = append(reports, s.m.integrateChangeCtx(gctx, c))
	}
	return reports
}

// schedulable reports whether every task of a WCRT table meets its
// deadline.
func schedulable(results []cpa.Result) bool {
	for _, r := range results {
		if !r.Schedulable {
			return false
		}
	}
	return true
}

// beginWindow opens a window's rollback point in O(1), whatever the
// platform size. All committed state lives in one snapshot whose parts
// copy themselves on write under the controller's epoch (snapshot.go),
// and no proposal writes anything before its commit stage. A fresh epoch
// leaves every part of the start snapshot to older epochs, so the
// window's commits copy whatever they write; the start snapshot it
// returns is the rollback point.
func (m *MCC) beginWindow() *snapshot {
	m.epoch = m.newEpoch()
	return m.snap
}

// rollbackWindow restores the controller to the window-start state by
// re-installing the start snapshot pointer; the window's discarded
// reports, and the committed-table entries only they reach, are dropped
// with it.
func (m *MCC) rollbackWindow(start *snapshot) {
	m.snap = start
	// Fault-injection hook modeling a corrupted start snapshot (e.g. a
	// chunk lost to memory corruption): the incremental state is purged
	// and the controller quarantined — every subsequent proposal runs the
	// pinned from-scratch path until an accepted commit rebuilds the
	// snapshot wholesale.
	if _, fired, err := m.inject.Fire(nil, "journal.undo", ""); fired && err != nil {
		m.purgeIncrementalState()
	}
}

// purgeIncrementalState is the last rung of the degradation ladder: drop
// the snapshot's lookup state and timing table and the analyzer memo, and
// quarantine the controller. The committed implementation model and
// functional architecture are kept, materialized first from the lookup
// state being dropped, so the purged snapshot stands on its own.
// Proposals decided while quarantined run the pinned from-scratch path —
// slower but dependent only on the committed architecture — and the
// first accepted commit rebuilds the snapshot wholesale (commitFull),
// lifting the quarantine.
func (m *MCC) purgeIncrementalState() {
	m.quarantined = true
	m.snap = &snapshot{impl: m.DeployedImpl(), fa: m.Deployed()}
	m.analyzer.Reset()
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
