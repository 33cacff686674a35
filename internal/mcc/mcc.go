// Package mcc implements the Multi-Change Controller of Section II.A: the
// model-domain authority that "takes full control over the system and
// platform configuration", performing the automated integration process
// for in-field changes. Mirroring the paper, the MCC
//
//  1. collects per-component requirements in the contracting language
//     (package model),
//  2. fits new functionality to the target platform (mapping),
//  3. transforms the technical architecture into an implementation model
//     (tasks with priorities, messages, sessions),
//  4. runs viewpoint analyses as acceptance tests — worst-case response
//     time analysis (package cpa), safety checks (package safety), and
//     security domain checks (package security),
//  5. derives the monitor configuration for the execution domain, and
//  6. commits the new configuration only if every acceptance test passes;
//     otherwise the deployed configuration stays untouched (rollback).
//
// The integration process is organized as a staged acceptance-test
// pipeline (package pipeline): every step above is a pipeline.Stage
// operating on a shared pipeline.Context, and additional viewpoints
// (e.g. a thermal budget backed by package thermal) plug in via
// WithStage. By default every stage works incrementally against the
// deployed configuration — validation re-checks only the changed
// functions and their flow neighborhoods, mapping warm-starts from the
// deployed placement, synthesis rebuilds only affected processors and
// services, and the timing test memoizes per-resource busy-window
// analyses — while WithoutIncremental restores the from-scratch seed
// behavior as a measurable baseline.
package mcc

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cpa"
	"repro/internal/faultinject"
	"repro/internal/mcc/pipeline"
	"repro/internal/model"
)

// Stage names the integration pipeline stages, used in rejection reports.
// It aliases pipeline.StageName so custom stages and MCC reports share one
// namespace.
type Stage = pipeline.StageName

// Pipeline stages.
const (
	StageValidate = pipeline.StageValidate
	StageMapping  = pipeline.StageMapping
	StageSynth    = pipeline.StageSynth
	StageSafety   = pipeline.StageSafety
	StageSecurity = pipeline.StageSecurity
	StageTiming   = pipeline.StageTiming
	StageMonitors = pipeline.StageMonitors
	StageCommit   = pipeline.StageCommit
)

// MonitorKind labels entries of the monitor plan.
type MonitorKind = pipeline.MonitorKind

// Monitor kinds emitted by the MCC for the execution domain.
const (
	MonitorBudget = pipeline.MonitorBudget // execution time + deadline
	MonitorRate   = pipeline.MonitorRate   // leaky-bucket event rate
)

// MonitorSpec is one monitor the MCC configures in the execution domain.
type MonitorSpec = pipeline.MonitorSpec

// TimingResult carries the per-resource WCRT table of the timing
// acceptance test.
type TimingResult = pipeline.TimingResult

// Report is the outcome of one integration attempt, including per-stage
// wall-clock telemetry (Report.Stages).
type Report = pipeline.Report

// StageTrace is the per-stage telemetry entry of a Report.
type StageTrace = pipeline.StageTrace

// MCC is the multi-change controller. It owns the deployed configuration.
type MCC struct {
	platform *model.Platform
	deployed *model.FunctionalArchitecture
	impl     *model.ImplementationModel

	// History records integration reports, newest last. It is bounded to
	// the most recent historyLimit reports (see WithHistoryLimit): a
	// long-lived fleet controller deciding thousands of changes must not
	// retain every report — and its full per-resource timing table —
	// forever. Trimming is amortized (the slice may grow to twice the
	// limit before the newest limit reports are copied down) and never
	// happens while a stream window is open, so the window journal's
	// history index stays valid for rollback truncation.
	History []*Report
	// historyLimit bounds History; non-positive keeps every report.
	historyLimit int

	// observedWCETUS holds metric feedback from the execution domain:
	// observed execution-time maxima per function, used to evolve
	// contracts ("supervising certain run-time properties ... enables the
	// model domain to detect deviations ... refine its models").
	observedWCETUS map[string]int64

	// analyzer memoizes busy-window analyses across proposals; with
	// incremental integration the timing acceptance test of an unchanged
	// resource is a digest lookup instead of a fixed-point iteration.
	analyzer *cpa.Analyzer
	// incTiming enables the memoized analyzer and dirty-resource tracking.
	incTiming bool
	// incPre enables the incremental pre-timing stages: scoped validation,
	// warm-started mapping, and partial synthesis against the deployed
	// implementation model.
	incPre bool
	// workers bounds the goroutines analyzing dirty resources in parallel.
	workers int
	// deployedDigest/deployedTiming hold the per-resource task-set digests
	// and WCRT tables of the currently committed configuration; a candidate
	// resource whose digest matches is clean and reuses the deployed table.
	deployedDigest map[string]uint64
	deployedTiming map[string]TimingResult
	// deployedJobs caches the committed per-resource CPA task sets so the
	// timing stage can splice clean resources' jobs without re-scanning
	// the implementation model (diff-proportional job construction).
	deployedJobs map[string]timingJob
	// deployedRes is the committed timing state as a chunked persistent
	// table in deterministic resource order (loaded processors sorted by
	// name, then loaded networks in platform order): each entry pairs the
	// committed CPA job with its committed WCRT table. It accelerates the
	// maps above — a proposal's job construction merges it against the
	// small sorted affected set, copying untouched entries positionally
	// without a single map lookup — and it is what accepted reports bind
	// their whole-table views to (Report.FullTiming/FullMonitors). The
	// maps stay authoritative; a nil table (purge, cold controller) falls
	// back to the map walk. Keyed commits patch it copy-on-write (spine
	// plus affected chunks, O(diff)), so the previous pointer — a window
	// journal's rollback point, a bound report's snapshot — stays valid
	// and shares every untouched chunk.
	deployedRes *resTable
	// windowHeals, while a stream window is open, collects the verified
	// deferred timing verdicts keyed by {resource, task-set digest}.
	// Reports committed optimistically inside the window bind their table
	// snapshot before the deferred analyses have run; their materializers
	// consult this map to fill the entries that were still pending at
	// commit time. Digest-keyed because two proposals of one window can
	// defer the same processor with different task sets.
	windowHeals map[resDigestKey]TimingResult
	// deployedSynth caches the committed synthesis lookup tables (function
	// contracts by name, replica instances by function, per-processor task
	// lists) next to deployedJobs, so incremental synthesis splices
	// untouched processors' task lists without re-deriving synthLookups;
	// commits invalidate only diff-touched entries. Maintained only while
	// the pre-timing stages run incrementally (incPre).
	deployedSynth *synthCache
	// pendingSynth is the diff-sized lookup overlay of the most recent
	// incremental synthesis, applied to deployedSynth by the commit stage.
	pendingSynth *synthOverlay
	// deployedSecVerdicts caches the committed per-connection security
	// verdicts next to deployedJobs/deployedSynth. Every key is a
	// connection of the committed implementation model that passed the
	// cross-domain check (a configuration only commits after the security
	// stage accepted it, so the cached verdict is always "clean"); the
	// scoped security check re-verifies only connections whose client or
	// server function the diff touched, or that are missing from the
	// cache (new or rewired sessions after a connection rebuild), and
	// splices the rest. Maintained only while the pre-timing stages run
	// incrementally (incPre).
	deployedSecVerdicts map[model.Connection]bool
	// svcProviders counts, per service name, how many Provides occurrences
	// the committed architecture carries. The validation fast path answers
	// "is this required service provided" in O(1) against it; keyed
	// commits adjust only the touched functions' occurrences (journaled),
	// from-scratch commits rebuild it wholesale. Maintained only while the
	// pre-timing stages run incrementally (incPre).
	svcProviders map[string]int
	// deployedFlowTouch maps every function name referenced by a committed
	// flow to true. Together with deployedSynth.fnByName it is the O(1)
	// deployed-function lookup DiffFromChange and declaredFootprint use
	// instead of walking the architecture; rebuilt wholesale by
	// from-scratch commits and by keyed commits whose diff changed the
	// flow set (commits never mutate the map in place, so a window journal
	// rolls it back by restoring the window-start pointer).
	deployedFlowTouch map[string]bool
	// deployedLoads holds the committed per-processor residual-capacity
	// accounting (scaled utilization and RAM), indexed by platform
	// processor position. The warm-started mapping copies it and adjusts
	// only the diff instead of re-accounting every kept instance. Commits
	// swap in a fresh slice — never an in-place write — so a window
	// journal rolls back by restoring the window-start pointer. Maintained
	// only while the pre-timing stages run incrementally (incPre).
	deployedLoads []procLoad
	// loadScratch is the reusable per-proposal placer buffer; an accepted
	// keyed commit takes ownership of it as the new deployedLoads.
	loadScratch []procLoad
	// pendingLoads points at the placer buffer of the most recent
	// warm-started mapping (the final per-processor totals of the
	// candidate placement), handed to the commit stage.
	pendingLoads []procLoad
	// pendingPlaced holds the fresh replica placements of the most recent
	// O(diff) warm-started mapping, keyed by function (replica-ascending,
	// the order the placer emits). The synthesis overlay reads the touched
	// functions' placements from it, which is what lets the warm path skip
	// materializing the platform-sized candidate instance list entirely.
	pendingPlaced map[string][]model.Instance
	// fnIdx is the lazily built name->position index of the deployed
	// function slice, kept exact by the fast path's in-place mutations
	// (appends extend it; removals and their reverts rewrite the shifted
	// positions, O(n − idx) and allocation-free). Only the rare wholesale
	// replacements of the slice (clone-based commit, window rollback,
	// purge) drop it, and the next lookup rebuilds. It turns the
	// per-proposal O(n) fnIndexOf/FunctionByName scans of the fast path
	// into map hits.
	fnIdx map[string]int
	// deployedConnIdx maps each function name to the ascending positions
	// of the committed connections it is incident to (client or server
	// side). While the session list is unrebuilt it aliases the committed
	// one and every row has a committed-clean verdict, so the scoped
	// security check walks just the touched functions' positions instead
	// of scanning (and hashing) every connection. Rebuilt fresh — never
	// mutated in place — by from-scratch commits and by keyed commits that
	// rebuilt the connections, so a window journal rolls back by pointer.
	// Maintained only while the pre-timing stages run incrementally.
	deployedConnIdx map[string][]int
	// deployedInstTotal is the committed instance count, maintained so the
	// warm-started mapping can report its kept-instance telemetry without
	// materializing the flat instance list it no longer builds.
	deployedInstTotal int

	// pendingJobs is the job list of the most recent timing-stage run,
	// handed from the timing stage to the monitor and commit stages.
	pendingJobs []timingJob
	// pendingResults holds the per-job WCRT tables of the most recent
	// non-deferred timing run, indexed like pendingJobs (nil under
	// deferred checks, where dirty analyses have not run yet); the keyed
	// commit reads the results of scanned resources from it.
	pendingResults []TimingResult
	// procs is the platform's processor-name iteration order, sorted once
	// at construction (the platform is immutable for the MCC's lifetime).
	procs []string
	// procIdx maps a processor name to its position in
	// platform.Processors, built once at construction; the placer and the
	// commit stage index loads slices through it instead of scanning the
	// processor list per lookup.
	procIdx map[string]int
	// parts is the lazily computed static processor partition of the
	// platform (see partition.go); the platform is immutable, so the
	// partition never invalidates.
	parts *platformParts
	// fnParts caches the sharded scheduler's function->shard routing,
	// resolved from the committed instance placements. Keyed commits
	// refresh the diff-touched entries; from-scratch commits, purges,
	// and window rollbacks drop the map wholesale (invalidateRoutes) and
	// lookups rebuild lazily. Purely a window-formation heuristic — a
	// stale entry could only regroup a change, never change a decision.
	fnParts map[string]int
	// journal, when non-nil, is the open copy-on-write rollback point of a
	// stream-scheduler window: commits record the prior value of every
	// cache entry they overwrite instead of the window cloning whole maps.
	journal *cacheJournal
	// scratch holds the MCC-owned buffers the timing hot path reuses
	// across proposals.
	scratch timingScratch
	// deferChecks makes newContext ask the pure verdict stages (safety,
	// security, timing) to defer their checks (optimistic evaluation);
	// set only by the StreamScheduler, which re-validates every deferred
	// verdict before a window is final.
	deferChecks bool
	// lastDeferred is the deferred-check record of the most recent
	// pipeline pass under deferChecks.
	lastDeferred *deferredChecks

	// custom holds acceptance stages registered via WithStage; they run
	// between the security and timing stages.
	custom []pipeline.Stage
	// pipe is the assembled integration pipeline.
	pipe *pipeline.Pipeline

	// inject, when non-nil, fires fault-injection hooks on every pipeline
	// stage, the timing worker pool, the stream prefetch pool, and the
	// window-journal undo path (the analyzer's hooks are installed in New).
	inject *faultinject.Injector
	// proposalDeadline, when > 0, bounds every proposal's wall clock:
	// integrate wraps the proposal context with this timeout, and expiry
	// rejects deterministically with a finding (never a hang).
	proposalDeadline time.Duration
	// quarantined marks the incremental state suspect (journal undo
	// failure, purged caches): proposals decide on the pinned
	// from-scratch path, reported Degraded, until an accepted commit
	// rebuilds the caches wholesale (commitFull clears the flag).
	quarantined bool
	// pinned is set while the degradation ladder's from-scratch pass
	// runs: fault injection is suppressed and the memoized analyzer is
	// bypassed, so a pinned decision always equals the clean
	// from-scratch oracle's.
	pinned bool
	// retriedAnalyses/panicsRecovered count pool-side recovery events
	// (timing-job retries after transient errors, recovered worker and
	// prefetch panics); integrate and the stream scheduler report deltas.
	retriedAnalyses atomic.Int64
	panicsRecovered atomic.Int64
}

// Option configures an MCC at construction time.
type Option func(*MCC)

// WithTimingWorkers bounds the worker pool that analyzes dirty resources
// during the timing acceptance test. 1 forces serial analysis; the default
// is runtime.GOMAXPROCS(0). Values below 1 clamp to 1 — the clamp rule for
// every MCC/stream sizing option is "non-positive means the serial/minimum
// configuration", never a silent fallback to the default.
func WithTimingWorkers(n int) Option {
	return func(m *MCC) {
		if n < 1 {
			n = 1
		}
		m.workers = n
	}
}

// defaultHistoryLimit bounds MCC.History when WithHistoryLimit is not
// given: generous enough that tests and scenario sweeps never observe a
// trim, small enough that a fleet server deciding changes for weeks does
// not leak a full timing table per proposal.
const defaultHistoryLimit = 8192

// WithHistoryLimit bounds MCC.History to the most recent n reports.
// Reports are appended newest-last as before; once the slice exceeds
// twice the limit, the newest n are copied down and the rest are dropped
// (amortized O(1) per proposal). Non-positive n disables the bound and
// keeps every report — the pre-PR-7 behavior. The default is
// defaultHistoryLimit (8192).
func WithHistoryLimit(n int) Option {
	return func(m *MCC) { m.historyLimit = n }
}

// WithFaultInjector installs a deterministic fault injector on the MCC's
// hook points ("stage.<name>" before every pipeline stage,
// "timing.worker" per pooled analysis, "stream.prefetch" per prefetch
// task, "journal.undo" on window rollback, plus the analyzer's
// "cpa.analyze"/"cpa.cache" hooks). Nil disables injection (the
// default); the hooks then cost one nil check.
func WithFaultInjector(inj *faultinject.Injector) Option {
	return func(m *MCC) { m.inject = inj }
}

// WithProposalDeadline bounds every proposal's wall-clock time. An
// expired proposal is rejected deterministically with a finding naming
// the stage the pipeline stopped at and is marked Degraded ("deadline")
// in its Report — it never hangs and never commits past the deadline.
// Non-positive durations are ignored (no deadline, the default).
func WithProposalDeadline(d time.Duration) Option {
	return func(m *MCC) {
		if d > 0 {
			m.proposalDeadline = d
		}
	}
}

// WithoutIncrementalTiming disables the memoized analyzer and the
// dirty-resource tracking, re-running the full busy-window analysis over
// every resource on every proposal. The pre-timing stages stay
// incremental; see WithoutIncremental for the full from-scratch baseline.
func WithoutIncrementalTiming() Option {
	return func(m *MCC) { m.incTiming = false }
}

// WithoutIncremental disables every incremental stage: validation,
// mapping, synthesis, and timing all run from scratch on every proposal.
// This is the seed behavior, kept as the measurable baseline for
// BenchmarkMCCThroughput.
func WithoutIncremental() Option {
	return func(m *MCC) {
		m.incTiming = false
		m.incPre = false
	}
}

// WithTimingOnlyIncremental keeps the memoized, dirty-tracked timing
// acceptance test but runs validation, mapping, and synthesis from
// scratch. This is the PR 1 engine, kept as the measurable intermediate
// between the serial baseline and full incremental integration.
func WithTimingOnlyIncremental() Option {
	return func(m *MCC) { m.incPre = false }
}

// WithAnalyzer makes the MCC share (and warm-start from) an existing
// memoizing timing analyzer instead of creating an empty one. Fleet
// sessions use this together with cpa.SaveCache/LoadCache to carry the
// busy-window memo table across process restarts, and the stream
// scheduler relies on the analyzer being shared between the prefetch
// pool and the decision pass. A nil analyzer is ignored.
func WithAnalyzer(a *cpa.Analyzer) Option {
	return func(m *MCC) {
		if a != nil {
			m.analyzer = a
		}
	}
}

// WithStage registers a custom acceptance stage (an additional viewpoint
// analysis); it runs after the built-in security stage and before the
// timing stage. Stages run in registration order. A rejection by a custom
// stage rolls back the candidate exactly like a built-in one.
func WithStage(s pipeline.Stage) Option {
	return func(m *MCC) { m.custom = append(m.custom, s) }
}

// New creates an MCC managing the given platform, with an empty deployed
// configuration. By default the whole acceptance pipeline is incremental
// (scoped validation, warm-started mapping, partial synthesis, memoized
// timing with dirty tracking) and dirty resources fan out over a
// GOMAXPROCS-sized worker pool; see WithoutIncremental,
// WithTimingOnlyIncremental, WithoutIncrementalTiming, WithTimingWorkers,
// and WithStage.
func New(p *model.Platform, opts ...Option) (*MCC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &MCC{
		platform:       p,
		deployed:       &model.FunctionalArchitecture{},
		observedWCETUS: make(map[string]int64),
		analyzer:       cpa.NewAnalyzer(),
		incTiming:      true,
		incPre:         true,
		historyLimit:   defaultHistoryLimit,
		workers:        runtime.GOMAXPROCS(0),
		deployedDigest: make(map[string]uint64),
		deployedTiming: make(map[string]TimingResult),
		procs:          procNames(p),
		procIdx:        procIndex(p),
	}
	for _, o := range opts {
		o(m)
	}
	m.pipe = pipeline.New(
		&validateStage{m},
		&mappingStage{m},
		&synthStage{m},
		&safetyStage{m},
		&securityStage{m},
		&timingStage{m},
		&monitorStage{m},
		&commitStage{m},
	).Insert(StageTiming, m.custom...)
	if m.inject != nil {
		m.analyzer.SetInjector(m.inject)
		m.pipe = m.pipe.Wrap(func(s pipeline.Stage) pipeline.Stage {
			return &faultStage{m: m, inner: s}
		})
	}
	return m, nil
}

// faultStage interposes the fault injector in front of a pipeline stage.
// Firing happens before the stage body runs, so an injected fault can
// never interrupt a commit mid-mutation. Pinned (degradation-ladder) and
// quarantined passes are exempt: the from-scratch fallback must be able
// to complete, which is what makes degraded decisions equal the clean
// oracle's.
type faultStage struct {
	m     *MCC
	inner pipeline.Stage
}

func (s *faultStage) Name() Stage { return s.inner.Name() }

func (s *faultStage) Run(ctx *pipeline.Context) error {
	if !s.m.pinned && !s.m.quarantined {
		if _, fired, err := s.m.inject.Fire(ctx.Done(), "stage."+string(s.inner.Name()), ""); fired && err != nil {
			ctx.Report.TransientFault = true
			return pipeline.Rejectf("%s: %v", s.inner.Name(), err)
		}
	}
	return s.inner.Run(ctx)
}

// Pipeline exposes the assembled stage sequence (for introspection and
// tooling; the stages themselves hold MCC state and must not be run
// outside integrate).
func (m *MCC) Pipeline() *pipeline.Pipeline { return m.pipe }

// TimingCacheStats exposes the analyzer's memoization counters.
func (m *MCC) TimingCacheStats() cpa.AnalyzerStats { return m.analyzer.Stats() }

// Analyzer returns the memoizing timing analyzer, e.g. to persist its
// memo table via cpa.SaveCache at the end of a session.
func (m *MCC) Analyzer() *cpa.Analyzer { return m.analyzer }

// Deployed returns the currently deployed functional architecture.
func (m *MCC) Deployed() *model.FunctionalArchitecture { return m.deployed }

// DeployedImpl returns the currently deployed implementation model (nil
// until the first successful integration). A keyed commit leaves the
// model's flat task and instance lists unmaterialized — the committed
// per-processor/per-function tables are the authoritative representation
// on the incremental path — so whole-model readers get them materialized
// here on demand, memoized until the next commit installs a new model.
// Messages and Connections are always present (aliased or rebuilt at
// commit time).
func (m *MCC) DeployedImpl() *model.ImplementationModel {
	if m.impl != nil && m.deployedSynth != nil {
		if m.impl.Tech != nil && m.impl.Tech.Instances == nil {
			m.impl.Tech.Instances = m.committedInstances()
		}
		if m.impl.Tasks == nil {
			m.impl.Tasks = m.committedTasks()
		}
	}
	return m.impl
}

// committedTasks materializes the committed flat task list from the
// synth cache's per-processor lists, in the m.procs assembly order every
// synthesis path uses. Non-nil even when empty, so the memoization in
// DeployedImpl sticks.
func (m *MCC) committedTasks() []model.Task {
	sc := m.deployedSynth
	total := 0
	for _, pn := range m.procs {
		total += len(sc.tasksOn[pn])
	}
	out := make([]model.Task, 0, total)
	for _, pn := range m.procs {
		out = append(out, sc.tasksOn[pn]...)
	}
	return out
}

// committedInstances materializes the committed flat instance list from
// the synth cache's per-function table, in the canonical (function,
// replica) order — each per-function list is replica-ascending, so
// concatenating them over the sorted names reproduces Instance.Less
// order exactly.
func (m *MCC) committedInstances() []model.Instance {
	sc := m.deployedSynth
	names := make([]string, 0, len(sc.instancesOf))
	total := 0
	for name, ins := range sc.instancesOf {
		names = append(names, name)
		total += len(ins)
	}
	sort.Strings(names)
	out := make([]model.Instance, 0, total)
	for _, name := range names {
		out = append(out, sc.instancesOf[name]...)
	}
	return out
}

// DeployedMonitors returns the monitor plan of the currently committed
// configuration (nil until the first successful integration), derived on
// demand from the committed per-resource CPA jobs — the MCC no longer
// stores a materialized plan. The returned slice is freshly allocated
// and owned by the caller. Rejected proposals never change the committed
// state, so the plan is unaffected by them — the rollback invariant the
// monitor tests pin.
func (m *MCC) DeployedMonitors() []MonitorSpec { return m.deployedRes.materializeMonitors() }

// ProposeUpdate attempts to integrate fn (a new function or a new version
// of a deployed one) into the running configuration.
func (m *MCC) ProposeUpdate(fn model.Function) *Report {
	return m.ProposeUpdateContext(context.Background(), fn)
}

// ProposeUpdateContext is ProposeUpdate bounded by ctx: cancellation or
// an expired deadline rejects the proposal deterministically (on top of
// the per-proposal deadline from WithProposalDeadline, if any).
func (m *MCC) ProposeUpdateContext(ctx context.Context, fn model.Function) *Report {
	return m.integrateChangeCtx(ctx, Change{Update: &fn})
}

// ProposeRemoval attempts to remove a function from the configuration.
func (m *MCC) ProposeRemoval(name string) *Report {
	return m.ProposeRemovalContext(context.Background(), name)
}

// ProposeRemovalContext is ProposeRemoval bounded by ctx.
func (m *MCC) ProposeRemovalContext(ctx context.Context, name string) *Report {
	return m.integrateChangeCtx(ctx, Change{Remove: name})
}

// ProposeArchitecture attempts to integrate a whole architecture at once
// (initial deployment).
func (m *MCC) ProposeArchitecture(fa *model.FunctionalArchitecture) *Report {
	return m.ProposeArchitectureContext(context.Background(), fa)
}

// ProposeArchitectureContext is ProposeArchitecture bounded by ctx.
func (m *MCC) ProposeArchitectureContext(ctx context.Context, fa *model.FunctionalArchitecture) *Report {
	return m.integrateCtx(ctx, fa.Clone())
}

// RecordObservedWCET feeds an observed execution-time maximum (µs) for a
// function back into the model domain. ReintegrateWithObservations uses
// these to evolve the timing contracts.
func (m *MCC) RecordObservedWCET(function string, observedUS int64) {
	if observedUS > m.observedWCETUS[function] {
		m.observedWCETUS[function] = observedUS
	}
}

// ReintegrateWithObservations re-runs the integration with contracts
// evolved to the observed WCET maxima where those exceed the modeled
// values. It returns the report; on acceptance the evolved configuration
// is deployed.
func (m *MCC) ReintegrateWithObservations() *Report {
	cand := m.deployed.Clone()
	for i := range cand.Functions {
		f := &cand.Functions[i]
		if obs := m.observedWCETUS[f.Name]; obs > f.Contract.RealTime.WCETUS {
			f.Contract.RealTime.WCETUS = obs
		}
	}
	return m.integrate(cand)
}

// integrate runs the staged acceptance-test pipeline on the candidate
// architecture. With incremental integration enabled, the pre-timing
// stages work from the diff against the deployed configuration. A
// warm-started attempt that any acceptance stage rejects is re-decided
// from scratch, so the warm-start heuristic can never cause a spurious
// rejection; an accepted warm-start placement is committed as-is — it
// passed every acceptance test, which is what the paper's integration
// process certifies, but it may be a different (equally valid) placement
// than the full best-fit would have produced, so on marginal workloads
// the two engines can in principle accept different configurations.
// TestRunMCCThroughput asserts decision equality over the E12 stream.
func (m *MCC) integrate(cand *model.FunctionalArchitecture) *Report {
	return m.integrateCtx(context.Background(), cand)
}

// integrateCtx is integrate bounded by gctx and hardened by the
// degradation ladder:
//
//   - WithProposalDeadline wraps gctx per proposal; expiry rejects with
//     a deterministic finding and marks the report Degraded ("deadline")
//     — never a rerun, never a hang.
//   - A rejection classified as a transient fault (injected analyzer
//     error surviving the bounded retries, recovered stage/worker
//     panic, detected cache corruption) quarantines the incremental
//     state and re-decides the proposal on the pinned from-scratch path
//     with fault injection suppressed, so the degraded verdict equals
//     the clean from-scratch oracle's; the report is marked Degraded
//     ("transient-fault"). The next accepted commit rebuilds every
//     cache wholesale (commitFull) and lifts the quarantine.
//   - While quarantined, every proposal decides on the pinned path and
//     is marked Degraded ("quarantined").
func (m *MCC) integrateCtx(gctx context.Context, cand *model.FunctionalArchitecture) *Report {
	return m.integrateDiff(gctx, cand, nil)
}

// trimHistory enforces the history bound: once History exceeds twice the
// limit, the newest limit reports are copied to the front and the tail is
// cleared so dropped reports become collectable. It is a no-op while a
// stream window is open — rollbackWindow truncates History to the
// window-start length, and a front-trim would shift that index — so the
// stream scheduler trims at beginWindow instead, before the index is
// captured.
func (m *MCC) trimHistory() {
	if m.historyLimit <= 0 || m.journal != nil || len(m.History) < 2*m.historyLimit {
		return
	}
	n := copy(m.History, m.History[len(m.History)-m.historyLimit:])
	clear(m.History[n:])
	m.History = m.History[:n]
}

// integrateDiff is integrateCtx with an optional precomputed diff: the
// change-driven fast path passes the DiffFromChange result so the warm
// pass never scans the architecture; nil keeps the ComputeDiff oracle.
// The cold re-decision and the pinned path ignore the diff by design —
// they run from scratch.
func (m *MCC) integrateDiff(gctx context.Context, cand *model.FunctionalArchitecture, diff *pipeline.Diff) *Report {
	rep := &Report{}
	defer func() {
		m.History = append(m.History, rep)
		m.trimHistory()
	}()

	pctx := gctx
	if m.proposalDeadline > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(gctx, m.proposalDeadline)
		defer cancel()
	}
	// Pool-side recovery counters report per-proposal deltas.
	retried0, panics0 := m.retriedAnalyses.Load(), m.panicsRecovered.Load()
	defer func() {
		rep.RetriedAnalyses += int(m.retriedAnalyses.Load() - retried0)
		rep.PanicsRecovered += int(m.panicsRecovered.Load() - panics0)
	}()

	if m.quarantined {
		m.runPinned(pctx, cand, rep)
		rep.Degraded = true
		rep.DegradedReasons = append(rep.DegradedReasons, "quarantined")
		m.markDeadline(pctx, rep)
		return rep
	}

	m.lastDeferred = nil
	ctx := m.newContext(pctx, cand, rep, m.incPre, diff)
	m.pipe.Run(ctx)

	if !rep.Accepted && pctx.Err() == nil && !rep.TransientFault &&
		ctx.WarmMapped && placementDependent(rep.RejectedAt) {
		// The rejected placement came from the warm-start heuristic; a
		// full best-fit might still find a feasible configuration.
		// Re-decide cold, keeping both passes' telemetry.
		m.lastDeferred = nil
		coldRep := &Report{Stages: rep.Stages, Passes: rep.Passes}
		coldCtx := m.newContext(pctx, cand, coldRep, false, nil)
		m.pipe.Run(coldCtx)
		*rep = *coldRep
	}

	if !rep.Accepted && pctx.Err() == nil && rep.TransientFault {
		// Degradation ladder: whether the fault hit the warm pass or the
		// cold retry, quarantine the suspect incremental state and
		// re-decide from scratch with injection suppressed.
		m.quarantined = true
		degRep := &Report{
			Stages: rep.Stages, Passes: rep.Passes,
			TransientFault: true,
		}
		m.runPinned(pctx, cand, degRep)
		*rep = *degRep
		rep.Degraded = true
		rep.DegradedReasons = append(rep.DegradedReasons, "transient-fault")
	}
	m.markDeadline(pctx, rep)
	return rep
}

// expiredReport resolves one change whose surrounding context is already
// cancelled or past its deadline without cloning or mutating any
// candidate state. The report mirrors what the pipeline's own pre-stage
// deadline check would produce — rejected before the first stage with
// the deterministic deadline finding — so short-circuited batch
// bisection and stream replay steps are indistinguishable from
// proposals that ran and expired immediately, minus the per-proposal
// setup cost.
func (m *MCC) expiredReport(gctx context.Context) *Report {
	rep := &Report{Passes: 1, RejectedAt: StageValidate, Degraded: true}
	if m.quarantined {
		rep.DegradedReasons = append(rep.DegradedReasons, "quarantined")
	}
	rep.DegradedReasons = append(rep.DegradedReasons, "deadline")
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("deadline: proposal deadline expired before stage %s (%v)", StageValidate, gctx.Err()))
	m.History = append(m.History, rep)
	m.trimHistory()
	return rep
}

// markDeadline marks a proposal stopped by its deadline as Degraded when
// the expiry surfaced inside a stage (as an analysis error) rather than
// at the pipeline's between-stage check, which marks it itself.
func (m *MCC) markDeadline(pctx context.Context, rep *Report) {
	if pctx.Err() != nil && !rep.Accepted && !slices.Contains(rep.DegradedReasons, "deadline") {
		rep.Degraded = true
		rep.DegradedReasons = append(rep.DegradedReasons, "deadline")
	}
}

// runPinned decides cand on the pinned from-scratch path: every stage
// from scratch, deferred checks off, fault injection suppressed, and the
// memoized analyzer bypassed — the decision cannot depend on any
// (possibly corrupt) incremental state and equals the clean oracle's.
// An accepted pinned pass commits from-scratch (commitFull), rebuilding
// every cache and lifting the quarantine.
func (m *MCC) runPinned(pctx context.Context, cand *model.FunctionalArchitecture, rep *Report) {
	savedDefer := m.deferChecks
	m.deferChecks = false
	m.pinned = true
	m.lastDeferred = nil
	ctx := m.newContext(pctx, cand, rep, false, nil)
	m.pipe.Run(ctx)
	m.pinned = false
	m.deferChecks = savedDefer
	m.lastDeferred = nil
}

// placementDependent reports whether a stage's verdict can depend on the
// instance placement, and hence on the warm-start heuristic. Validation
// and the security domain check decide on contracts and function/replica
// identities alone, so their rejections stand without a cold re-decision;
// everything else — including custom stages, whose inputs are unknown —
// is conservatively re-decided.
func placementDependent(s Stage) bool {
	return s != StageValidate && s != StageSecurity
}

// newContext assembles the pipeline context for one integration attempt.
// A non-nil diff short-circuits ComputeDiff (the change-driven fast
// path, where the candidate is the deployed architecture mutated in
// place — scanning it against itself would yield an empty diff anyway).
func (m *MCC) newContext(pctx context.Context, cand *model.FunctionalArchitecture, rep *Report, incremental bool, diff *pipeline.Diff) *pipeline.Context {
	ctx := &pipeline.Context{
		Platform:     m.platform,
		Candidate:    cand,
		Deployed:     m.deployed,
		DeployedImpl: m.impl,
		Report:       rep,
		Incremental:  incremental,
		DeferChecks:  m.deferChecks,
		Ctx:          pctx,
	}
	switch {
	case incremental && diff != nil:
		ctx.Diff = *diff
	case incremental:
		ctx.Diff = pipeline.ComputeDiff(m.deployed, cand)
	default:
		ctx.Diff = pipeline.FullDiff()
	}
	return ctx
}

func utilPPM(f *model.Function) int64 {
	rt := f.Contract.RealTime
	if !rt.HasTiming() {
		return 0
	}
	return rt.WCETUS * 1_000_000 / rt.PeriodUS
}

func scaleUtilPPM(ppm int64, speed float64) int64 {
	return int64(float64(ppm) / speed)
}

// StartupOrder resolves the run-time dependencies between the software
// components of an implementation model (after [3]: "resolve run-time
// dependencies between software components"): servers start before their
// clients so that every session can be established on first try. The
// result is a total, deterministic order; an error is returned when the
// session graph contains a cycle (mutually dependent components need a
// different startup protocol).
func StartupOrder(impl *model.ImplementationModel) ([]string, error) {
	// Build client -> server edges over instance IDs.
	ids := make([]string, 0, len(impl.Tech.Instances))
	for _, in := range impl.Tech.Instances {
		ids = append(ids, in.ID())
	}
	sort.Strings(ids)
	deps := make(map[string][]string)       // client -> servers
	indeg := make(map[string]int)           // number of unstarted servers
	dependents := make(map[string][]string) // server -> clients
	for _, id := range ids {
		indeg[id] = 0
	}
	for _, c := range impl.Connections {
		deps[c.Client] = append(deps[c.Client], c.Server)
		dependents[c.Server] = append(dependents[c.Server], c.Client)
		indeg[c.Client]++
	}
	// Kahn's algorithm with deterministic tie-break.
	var queue []string
	for _, id := range ids {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	sort.Strings(queue)
	var order []string
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		var next []string
		for _, cl := range dependents[id] {
			indeg[cl]--
			if indeg[cl] == 0 {
				next = append(next, cl)
			}
		}
		sort.Strings(next)
		queue = append(queue, next...)
	}
	if len(order) != len(ids) {
		var stuck []string
		for _, id := range ids {
			if indeg[id] > 0 {
				stuck = append(stuck, id)
			}
		}
		return nil, fmt.Errorf("mcc: cyclic session dependencies among %v", stuck)
	}
	return order, nil
}

func procNames(p *model.Platform) []string {
	out := make([]string, 0, len(p.Processors))
	for i := range p.Processors {
		out = append(out, p.Processors[i].Name)
	}
	sort.Strings(out)
	return out
}

func procIndex(p *model.Platform) map[string]int {
	out := make(map[string]int, len(p.Processors))
	for i := range p.Processors {
		out[p.Processors[i].Name] = i
	}
	return out
}
