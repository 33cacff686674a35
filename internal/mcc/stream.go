package mcc

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/cpa"
)

// StreamScheduler drives a stream of change requests through the MCC in
// optimistic windows while keeping every accept/reject decision identical
// to proposing the changes serially in stream order.
//
// Every accepted change shifts processor loads, and so the placement and
// timing verdicts of every later change; the scheduler therefore never
// reorders decisions, it defers the one expensive verdict, the
// busy-window analyses of dirty resources. The stream is cut into windows
// of 16 consecutive changes (the last may be shorter) of any mix, and
// each window runs three phases on Run's goroutine:
//
//  1. Optimistic pass: every change runs the incremental pipeline in
//     stream order; the timing stage builds and digests the dirty task
//     sets without analyzing them, and an accepted change commits each
//     dirty resource's table entry pending, with no WCRT table yet.
//     Every other stage decides inline, so its rejections stand as-is.
//  2. Analysis: each distinct (task-set digest, policy) analysis of the
//     pending entries runs once through the shared memoizing analyzer;
//     then the goroutine yields once. There is no worker pool: a window's
//     analyses take tens of µs, and on stream-1024p at GOMAXPROCS=2 about
//     2.5% of windows spent over 500 µs in a pool's analysis phase, mostly
//     waiting on its join, against 0.1% for this loop; those windows set
//     the stream's p99.
//  3. Verification: in stream order, every pending entry's verdict is
//     checked as the timing stage would and written into the entry in
//     place. If any fails (a missed deadline, an analysis error or an
//     injected fault), the controller rolls back to the window-start
//     snapshot — its header, kept by value, with the first-write undo
//     record written back (see beginWindow) — dropping the window's
//     entries with it, and replays the window serially on the warm
//     analyzer.
//
// The scheduler owns the MCC for the duration of Run: it is not safe to
// propose changes from other goroutines concurrently.
type StreamScheduler struct {
	m *MCC
	// window is the number of consecutive changes one optimistic window
	// holds (defaultStreamWindow).
	window int
	stats  StreamStats
}

// defaultStreamWindow is the optimistic window size. Larger windows pay
// fewer barriers, but widen the replay blast radius when a deferred
// verdict fails.
const defaultStreamWindow = 16

// StreamStats reports how a Run spent its effort.
type StreamStats struct {
	// Windows is the number of optimistic windows formed.
	Windows int
	// Speculated counts changes decided by a window whose verification
	// passed (the optimistic pass was the serial execution).
	Speculated int
	// Prefetched counts the distinct (task-set digest, policy)
	// busy-window analyses windows ran ahead of their verification.
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
	// PanicsRecovered counts panics recovered in window analyses: each
	// fails verification and forces the window's serial replay. Panics
	// and analysis retries inside a proposal's pipeline run are counted
	// on its Report (window analyses are not retried).
	PanicsRecovered int
}

// NewStreamScheduler returns a scheduler driving m. The MCC should run
// its default incremental engine; without the memoizing analyzer
// (WithoutIncremental) the scheduler degrades to plain serial proposals.
func NewStreamScheduler(m *MCC) *StreamScheduler {
	return &StreamScheduler{m: m, window: defaultStreamWindow}
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
			return append(reports, s.runSerial(ctx, changes[lo:])...)
		}
		reports = append(reports, s.runWindow(ctx, changes[lo:min(lo+s.window, len(changes))])...)
		s.stats.Windows++
	}
	return reports
}

// runWindow decides one window of changes: optimistic pass, analysis,
// verification, and — only if a deferred verdict fails — the
// serial replay from the window-start snapshot.
func (s *StreamScheduler) runWindow(gctx context.Context, changes []Change) []*Report {
	m := s.m
	if len(changes) == 1 || !m.incremental || m.quarantined {
		// Deferring gains nothing (no memo table to share analyses through,
		// or a quarantined controller whose proposals take the pinned
		// from-scratch path anyway): plain serial proposals.
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
	// ran; deadline-expired short-circuits never enter the pipeline, so
	// a replay's DiscardedPasses (and the scenario layer's Evaluations)
	// never count them.
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

	// Analysis: each distinct analysis of the window's pending entries (an
	// analysis depends on the task set and the policy alone) runs once, on
	// this goroutine. Every analysis belongs to an entry that verification
	// checks, so a failed one fails the window. The goroutine then yields
	// once: without the yield, stream-1024p's p99 read about 1.5 times the
	// pooled version's on 2 CPUs, probably because a loop that never
	// blocks leaves the runtime's background GC mark work to assists on
	// the decision path.
	type key struct {
		digest uint64
		spnp   bool
	}
	results := make(map[key][]cpa.Result)
	verified := true
	for _, p := range pendings {
		for _, e := range p.entries {
			k := key{e.job.digest, e.job.spnp}
			if _, ok := results[k]; !ok {
				res, err := s.analyze(e.job)
				results[k], verified = res, verified && err == nil
			}
		}
	}
	s.stats.Prefetched += len(results)
	runtime.Gosched()

	// Verification, in stream order: check every pending entry's verdict
	// and write it into the entry, filling the report's timing delta.
verify:
	for _, p := range pendings {
		delta := make([]TimingResult, 0, len(p.entries))
		for _, e := range p.entries {
			res := results[key{e.job.digest, e.job.spnp}]
			if !verified || !schedulable(res) {
				verified = false
				break verify
			}
			e.res = TimingResult{Resource: e.job.resource, Results: res}
			delta = append(delta, cloneTimingResult(e.res))
		}
		p.report.TimingDelta = delta
	}
	if verified {
		m.undo.armed = false
		s.stats.Speculated += len(changes)
		return reports
	}

	// A deferred verdict failed: the optimistic commits from the failing
	// proposal on are tainted. Roll back to the window-start state and
	// replay serially — the authoritative order. The discarded passes stay
	// on the books, so throughput accounting never understates the work.
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

// analyze runs one window analysis once, after the "stream.prefetch"
// hook; the window's serial replay runs the timing stage, which retries.
// A fault (an injected error, or a panic recovered as errWorkerPanic)
// becomes the analysis's error: it can force a replay, never crash the
// process or corrupt a decision.
func (s *StreamScheduler) analyze(j timingJob) (res []cpa.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.PanicsRecovered++
			err = fmt.Errorf("%w: %v", errWorkerPanic, r)
		}
	}()
	if _, fired, err := s.m.inject.Fire(nil, "stream.prefetch", j.resource); fired && err != nil {
		return nil, err
	}
	tr, err := s.m.runTimingJob(nil, j, 1)
	return tr.Results, err
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

// beginWindow opens a window's rollback point: it arms the undo record
// and returns the snapshot header by value. Commits write the snapshot in
// place (snapshot.go), and no proposal writes anything before its commit
// stage, so the header and the record's first-write values are the whole
// window-start state: O(1) to open, and O(window writes) to keep.
func (m *MCC) beginWindow() snapshot {
	m.undo.arm()
	return *m.snap
}

// rollbackWindow restores the controller to the window-start state: the
// undo record's values go back into the start header's maps and slices,
// the capacity index is re-derived from them, and the start header is
// installed. The window's discarded reports, and the committed-table
// entries only they reach, are dropped with it. A from-scratch commit
// inside the window installed containers of its own and ended the
// record, so the start's containers hold exactly the record's writes.
func (m *MCC) rollbackWindow(start snapshot) {
	u := &m.undo
	u.armed = false
	restore(u.fns, start.fns)
	restore(u.prov, start.prov)
	restore(u.req, start.req)
	for i, ps := range u.procs {
		start.procs[i] = ps
	}
	if start.warm {
		m.capacityIndex(start.capacity, start.procs, start.fns)
	}
	m.snap = &start
	// Fault-injection hook modeling a corrupted start snapshot (e.g. a
	// record lost to memory corruption): the incremental state is purged
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
// (discarded passes, recovered panics) that chaos-tier rows report;
// silently dropping those under-reports what the engine actually ran.
func (st StreamStats) String() string {
	return fmt.Sprintf("windows %d (speculated %d, replays %d, conflicts %d, prefetched %d, discarded %d, panics %d)",
		st.Windows, st.Speculated, st.Replays, st.Conflicts, st.Prefetched,
		st.DiscardedPasses, st.PanicsRecovered)
}
