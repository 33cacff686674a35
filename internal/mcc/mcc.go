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
// The integration process is a fixed sequence of acceptance stages, one
// MCC method each, run in order by one loop (see stages and MCC.run) that
// stops at the first rejection; the attempt carries what one stage hands
// to the next. By default a single change (ProposeUpdate, ProposeRemoval)
// is decided incrementally against the deployed configuration — validation
// re-checks only the changed function and its flow neighborhood, mapping
// warm-starts from the deployed placement, synthesis rebuilds only
// affected processors and services, and the timing test memoizes
// per-resource busy-window analyses. A whole architecture
// (ProposeArchitecture, ReintegrateWithObservations) is decided by the
// from-scratch pass, which keeps the committed instances of its unchanged
// functions, and WithoutIncremental decides every proposal that way: the
// measurable baseline and the parity oracle every incremental stage is
// tested against. Every pass places by one policy (see mappingStage), so
// the oracle's decisions and placements equal the engine's by
// construction.
package mcc

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"repro/internal/cpa"
	"repro/internal/faultinject"
	"repro/internal/model"
)

// MCC is the multi-change controller. It owns the deployed configuration;
// each attempt's Report belongs to its caller alone, so the controller
// pins no report, nor the committed timing table a report binds.
type MCC struct {
	platform *model.Platform
	// snap is the committed snapshot: the functional architecture, the
	// implementation model, the timing table and the incremental engine's
	// lookup state (see snapshot.go); cold, with an empty architecture,
	// before the first commit. Proposals write nothing before their commit
	// stage, which builds a fresh snapshot from the attempt's artifacts
	// (commitFull) or writes the diff-touched parts in place
	// (commitIncremental), so a rejection leaves the snapshot as it was.
	snap *snapshot
	// undo is the open stream window's first-write undo record (armed by
	// beginWindow, applied by rollbackWindow).
	undo windowUndo
	// att is the stage-to-stage handoff of the pass in progress, reset by
	// newPass.
	att attempt

	// observedWCETUS holds metric feedback from the execution domain:
	// observed execution-time maxima per function, used to evolve
	// contracts ("supervising certain run-time properties ... enables the
	// model domain to detect deviations ... refine its models").
	observedWCETUS map[string]int64

	// analyzer memoizes busy-window analyses across proposals; with
	// incremental integration the timing acceptance test of an unchanged
	// resource is a digest lookup instead of a fixed-point iteration.
	analyzer *cpa.Analyzer
	// incremental enables every incremental stage: scoped validation,
	// warm-started mapping, and partial synthesis against the deployed
	// implementation model, plus the memoized analyzer and dirty-resource
	// tracking of the timing stage. WithoutIncremental clears it.
	incremental bool
	// layout is the platform's placement classes and the shape of the
	// capacity index (see placer.go).
	layout *capLayout
	// procs is the platform's processor-name iteration order, sorted once
	// at construction (the platform is immutable for the MCC's lifetime).
	procs []string
	// procIdx maps a processor name to its position in
	// platform.Processors, built once at construction; the placer and the
	// commit stage index loads slices through it instead of scanning the
	// processor list per lookup.
	procIdx map[string]int
	// procNets lists, per processor position, the ascending indices of
	// the platform networks attaching it; connecting intersects two lists
	// instead of scanning every network's attached list.
	procNets [][]int
	// scratch holds the MCC-owned buffers the timing hot path reuses
	// across proposals, and synth the synthesis overlay every warm pass
	// reuses (reset by its warm start).
	scratch timingScratch
	synth   synthOverlay
	// deferChecks makes the timing stage defer the busy-window analyses
	// of dirty resources (optimistic evaluation): it raises no timing
	// findings and the commit installs their entries pending. Every other
	// stage still decides inline. Set only by the StreamScheduler, which
	// analyzes and verifies every deferred verdict before a window is
	// final.
	deferChecks bool

	// inject, when non-nil, fires fault-injection hooks on every stage,
	// every timing-stage analysis, a stream window's analyses, and the
	// window rollback path (the analyzer's hooks are installed in New).
	inject *faultinject.Injector
	// proposalDeadline, when > 0, bounds every proposal's wall clock:
	// integrate wraps the proposal context with this timeout, and expiry
	// rejects deterministically with a finding (never a hang).
	proposalDeadline time.Duration
	// quarantined marks the incremental state suspect (corrupted start
	// snapshot, purged snapshot): proposals decide on the pinned
	// from-scratch path, reported Degraded, until an accepted commit
	// rebuilds the snapshot wholesale (commitFull clears the flag).
	quarantined bool
	// pinned is set while the degradation ladder's from-scratch pass
	// runs: fault injection is suppressed and the memoized analyzer is
	// bypassed, so a pinned decision always equals the clean
	// from-scratch oracle's.
	pinned bool
	// retriedAnalyses/panicsRecovered count the timing stage's recovery
	// events (analysis retries after transient errors, recovered analysis
	// panics); integrate reports per-proposal deltas.
	retriedAnalyses int
	panicsRecovered int
	// onStage, when set (only by this package's tests), is called with the
	// report under construction where every stage fires its stage.<name>
	// hook, pinned and quarantined passes included.
	onStage func(*Report)
}

// Option configures an MCC at construction time.
type Option func(*MCC)

// WithHistoryLimit is a no-op: the controller keeps no report log, since
// every Report belongs to its caller. It remains for callers that pass it.
func WithHistoryLimit(int) Option {
	return func(*MCC) {}
}

// WithFaultInjector installs a deterministic fault injector on the MCC's
// hook points ("stage.<name>" before every stage,
// "timing.worker" per timing-stage analysis, "stream.prefetch" per
// analysis a stream window runs ahead of verification, "journal.undo" on
// window rollback, plus the analyzer's "cpa.analyze"/"cpa.cache" hooks).
// Nil disables injection (the default); the hooks then cost one nil
// check.
func WithFaultInjector(inj *faultinject.Injector) Option {
	return func(m *MCC) { m.inject = inj }
}

// WithProposalDeadline bounds every proposal's wall-clock time. An
// expired proposal is rejected deterministically with a finding naming
// the stage the pass stopped at and is marked Degraded ("deadline")
// in its Report — it never hangs and never commits past the deadline.
// Non-positive durations are ignored (no deadline, the default).
func WithProposalDeadline(d time.Duration) Option {
	return func(m *MCC) {
		if d > 0 {
			m.proposalDeadline = d
		}
	}
}

// WithoutIncremental runs every stage from scratch on every proposal;
// mapping keeps the engine's policy, its kept load re-accounted from the
// committed instance list instead of read from the snapshot. This is the
// measurable baseline for BenchmarkMCCThroughput and the parity oracle.
func WithoutIncremental() Option {
	return func(m *MCC) { m.incremental = false }
}

// WithAnalyzer makes the MCC share (and warm-start from) an existing
// memoizing timing analyzer instead of creating an empty one. Fleet
// sessions use this together with cpa.SaveCache/LoadCache to carry the
// busy-window memo table across process restarts, and a replayed stream
// window re-reads the analyses the window ran through the shared analyzer.
// A nil analyzer is ignored.
func WithAnalyzer(a *cpa.Analyzer) Option {
	return func(m *MCC) {
		if a != nil {
			m.analyzer = a
		}
	}
}

// New creates an MCC managing the given platform, with an empty deployed
// configuration. By default every acceptance stage is incremental
// (scoped validation, warm-started mapping, partial synthesis, memoized
// timing with dirty tracking), and every analysis runs on the proposing
// goroutine; see WithoutIncremental.
func New(p *model.Platform, opts ...Option) (*MCC, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &MCC{
		platform:       p,
		observedWCETUS: make(map[string]int64),
		analyzer:       cpa.NewAnalyzer(),
		incremental:    true,
		procs:          procNames(p),
		procIdx:        procIndex(p),
		procNets:       procNetIndex(p),
		layout:         newCapLayout(p),
		snap:           &snapshot{fa: &model.FunctionalArchitecture{}},
	}
	for _, o := range opts {
		o(m)
	}
	if m.inject != nil {
		m.analyzer.SetInjector(m.inject)
	}
	return m, nil
}

// TimingCacheStats exposes the analyzer's memoization counters.
func (m *MCC) TimingCacheStats() cpa.AnalyzerStats { return m.analyzer.Stats() }

// Analyzer returns the memoizing timing analyzer, e.g. to persist its
// memo table via cpa.SaveCache at the end of a session.
func (m *MCC) Analyzer() *cpa.Analyzer { return m.analyzer }

// Deployed returns the currently deployed functional architecture. An
// incremental commit leaves it unmaterialized — the snapshot's function
// entries and flow list are authoritative — so it is rebuilt here on
// demand in rank order, which is the order applyChange leaves (an update
// keeps its function's place, an addition appends, a removal closes the
// gap), and memoized until the next commit. Callers must not
// modify it.
func (m *MCC) Deployed() *model.FunctionalArchitecture {
	s := m.snap
	if s.fa == nil {
		ents := slices.AppendSeq(make([]fnEntry, 0, len(s.fns)), maps.Values(s.fns))
		slices.SortFunc(ents, func(a, b fnEntry) int { return cmp.Compare(a.rank, b.rank) })
		fa := &model.FunctionalArchitecture{Functions: make([]model.Function, len(ents)), Flows: s.flows}
		for i, e := range ents {
			fa.Functions[i] = *e.fn
		}
		s.fa = fa
	}
	return s.fa
}

// attempt is the stage-to-stage handoff of one pass: the proposal's
// context and report, and what the mapping, synthesis and timing stages
// hand to the stages after them.
type attempt struct {
	// ctx carries the proposal's deadline and cancellation, checked before
	// every stage; rep is the report under construction. run clears both
	// when the pass ends, so the controller pins no report.
	ctx context.Context
	rep *Report
	// note is the running stage's telemetry note (see MCC.note).
	note stageNote
	// tech and impl are the mapping and synthesis stages' artifacts: every
	// replica placed (only the touched function's on a warm pass, in the
	// synthesis overlay), and the tasks, messages and sessions.
	tech *model.TechnicalArchitecture
	impl *model.ImplementationModel
	// change is the single change a change-driven pass decides; nil
	// exactly on a from-scratch pass. whole is the pass's whole candidate:
	// a from-scratch pass's own, or the change's, materialized on first
	// use (see MCC.candidate).
	change *Change
	whole  *model.FunctionalArchitecture
	// touched is the one function name a change-driven pass changes, or
	// empty for a no-op; flowsCut reports a removal of a committed flow
	// endpoint, which cuts its flows (see newPass).
	touched  string
	flowsCut bool
	// warm reports that the mapping kept the committed placement, read
	// from the capacity index, and placed only the touched function
	// (mapWarmStart): synthesis then rebuilds only the affected artifacts
	// and later stages build only the affected resources.
	// messagesRebuilt reports that the partial synthesis re-derived the
	// network messages, so the timing stage re-derives every network's
	// job; otherwise the committed message list was aliased.
	warm, messagesRebuilt bool
	// index is a from-scratch pass's lookup index, built by its cold
	// mapping (see passIndex); empty on a warm pass.
	index passIndex
	// over is the placer overlay of a warm-started mapping: the candidate
	// placement's leaf of every processor whose load it changed.
	over []capNode
	// synth is the change-sized lookup overlay of an incremental synthesis
	// (MCC.synth once that synthesis ran, nil otherwise), applied to the
	// snapshot by the commit stage.
	synth *synthOverlay
	// jobs is the timing stage's job list (footprint-sized under partial
	// synthesis, every loaded resource on a from-scratch pass; each job
	// carries its committed-table slot).
	jobs []timingJob
	// results holds the per-job WCRT tables of a non-deferred timing run,
	// indexed like jobs (nil under deferred checks).
	results []TimingResult
	// pending lists the committed-table entries a commit under deferred
	// checks installed without a WCRT table (see committedFills), for
	// the stream window to analyze, verify and fill.
	pending []*committedRes
	// kept reports that the mapping kept committed instances in place (a
	// placement-dependent rejection is then retried, see decide); full
	// marks that retry, whose mapping best-fits from nothing.
	kept, full bool
}

// warm reports whether the snapshot carries the incremental engine's
// lookup state (see snapshot.warm). A warm controller has a committed
// configuration.
func (m *MCC) warm() bool { return m.snap.warm }

// DeployedImpl returns the currently deployed implementation model (nil
// until the first successful integration). An incremental commit leaves
// the model's flat task, instance and connection lists and its technical
// architecture's Func unmaterialized:
// the snapshot's per-processor and per-function state is the
// authoritative representation on the incremental path, so whole-model
// readers get them materialized here on demand, memoized until the next
// commit installs a new model. Messages are always present (aliased or
// rebuilt at commit time).
func (m *MCC) DeployedImpl() *model.ImplementationModel {
	impl := m.snap.impl
	if !m.warm() {
		return impl
	}
	if impl.Tech != nil && impl.Tech.Func == nil {
		impl.Tech.Func = m.Deployed()
	}
	if impl.Tech != nil && impl.Tech.Instances == nil {
		// Entries concatenated by name reproduce both lists' flat order.
		names := slices.AppendSeq(make([]string, 0, len(m.snap.fns)), maps.Keys(m.snap.fns))
		slices.Sort(names)
		insts := make([]model.Instance, 0, m.snap.instTotal) // non-nil: the memo sticks
		var conns []model.Connection                         // nil when empty, as synthesis leaves it
		for _, name := range names {
			e := m.snap.fns[name]
			insts, conns = append(insts, e.insts...), append(conns, e.conns...)
		}
		impl.Tech.Instances, impl.Connections = insts, conns
	}
	if impl.Tasks == nil {
		impl.Tasks = m.committedTasks()
	}
	return impl
}

// DeployedMonitors returns the monitor plan of the currently committed
// configuration (nil until the first successful integration), derived on
// demand from the committed per-resource CPA jobs — the MCC no longer
// stores a materialized plan. The returned slice is freshly allocated
// and owned by the caller. Rejected proposals never change the committed
// state, so the plan is unaffected by them — the rollback invariant the
// monitor tests pin.
func (m *MCC) DeployedMonitors() []MonitorSpec { return m.snap.res.materializeMonitors() }

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

// ProposeArchitecture attempts to integrate a whole architecture at once:
// the initial deployment, or a whole replacement of the deployed one. It
// is decided by the from-scratch pass, which keeps the committed instances
// of every function the candidate carries unchanged and best-fits the
// rest: a candidate one change away from the deployed architecture is
// decided and placed as that change is. Its cost is the architecture's,
// not the diff's; a single change is cheaper through ProposeUpdate or
// ProposeRemoval.
func (m *MCC) ProposeArchitecture(fa *model.FunctionalArchitecture) *Report {
	return m.ProposeArchitectureContext(context.Background(), fa)
}

// ProposeArchitectureContext is ProposeArchitecture bounded by ctx.
func (m *MCC) ProposeArchitectureContext(ctx context.Context, fa *model.FunctionalArchitecture) *Report {
	return m.integrateDiff(ctx, fa.Clone(), nil)
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
// values, as one whole candidate on the from-scratch pass (see
// ProposeArchitecture). It returns the report; on acceptance the evolved
// configuration is deployed.
func (m *MCC) ReintegrateWithObservations() *Report {
	cand := m.Deployed().Clone()
	for i := range cand.Functions {
		f := &cand.Functions[i]
		if obs := m.observedWCETUS[f.Name]; obs > f.Contract.RealTime.WCETUS {
			f.Contract.RealTime.WCETUS = obs
		}
	}
	return m.integrateDiff(context.Background(), cand, nil)
}

// integrateDiff runs the acceptance stages on a candidate,
// bounded by gctx: the whole architecture cand (the from-scratch pass), or
// the single change c against the committed snapshot (the change-driven
// warm pass, cand nil), which touches at most one function and never
// scans the architecture. Only a warm snapshot, which WithoutIncremental
// never builds, takes a change (see fastPathReady). Every pass, the
// from-scratch oracle's included, places by one policy and one retry rule
// (see mappingStage and decide), so both engines reach the same placement
// and the same decision by construction.
//
// The pass is hardened by the degradation ladder:
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
//     ("transient-fault"). The next accepted commit rebuilds the
//     snapshot wholesale (commitFull) and lifts the quarantine.
//   - While quarantined, every proposal decides on the pinned path and
//     is marked Degraded ("quarantined").
//
// Degraded reasons are recorded in encounter order, so an expired
// quarantined proposal reads [quarantined deadline] on every path.
func (m *MCC) integrateDiff(gctx context.Context, cand *model.FunctionalArchitecture, c *Change) *Report {
	rep := &Report{}

	pctx := gctx
	if m.proposalDeadline > 0 {
		var cancel context.CancelFunc
		pctx, cancel = context.WithTimeout(gctx, m.proposalDeadline)
		defer cancel()
	}
	// The timing stage's recovery counters report per-proposal deltas.
	retried0, panics0 := m.retriedAnalyses, m.panicsRecovered
	defer func() {
		rep.RetriedAnalyses += m.retriedAnalyses - retried0
		rep.PanicsRecovered += m.panicsRecovered - panics0
	}()

	if m.quarantined {
		rep.Degraded = true
		rep.DegradedReasons = append(rep.DegradedReasons, "quarantined")
		m.runPinned(pctx, cand, rep)
		m.markDeadline(pctx, rep)
		return rep
	}

	m.decide(pctx, cand, c, rep)

	if !rep.Accepted && pctx.Err() == nil && rep.TransientFault {
		// Degradation ladder: whether the fault hit the first pass or the
		// retry, quarantine the suspect incremental state and re-decide
		// the whole candidate from scratch with injection suppressed.
		m.quarantined = true
		*rep = Report{Stages: rep.Stages, Passes: rep.Passes, Degraded: true, DegradedReasons: []string{"transient-fault"}}
		m.runPinned(pctx, m.candidate(), rep)
		rep.TransientFault = true
	}
	m.markDeadline(pctx, rep)
	return rep
}

// decide runs one pass on the candidate (cand, or change c against the
// snapshot) under the retry rule of every pass: a pass that kept committed
// instances in place and was rejected — not by a transient fault or the
// deadline — at a stage whose verdict can depend on the placement is
// re-decided on the whole candidate by a full best-fit, keeping both
// passes' telemetry. Validation and the security check decide on
// contracts and identities alone; every other stage may depend on it.
func (m *MCC) decide(pctx context.Context, cand *model.FunctionalArchitecture, c *Change, rep *Report) {
	pre := *rep
	m.newPass(pctx, cand, c, rep)
	m.run()
	if rep.Accepted || !m.att.kept || pctx.Err() != nil || rep.TransientFault ||
		rep.RejectedAt == StageValidate || rep.RejectedAt == StageSecurity {
		return
	}
	cand = m.candidate()
	pre.Stages, pre.Passes = rep.Stages, rep.Passes
	*rep = pre
	m.newPass(pctx, cand, nil, rep)
	m.att.full = true
	m.run()
}

// expiredReport resolves one change whose surrounding context is already
// cancelled or past its deadline without cloning or mutating any
// candidate state. The report mirrors what run's own pre-stage deadline
// check would produce — rejected before the first stage with
// the deterministic deadline finding — so short-circuited stream window
// and replay steps are indistinguishable from proposals that ran and
// expired immediately, minus the per-proposal setup cost.
func (m *MCC) expiredReport(gctx context.Context) *Report {
	rep := &Report{Passes: 1, RejectedAt: StageValidate, Degraded: true}
	if m.quarantined {
		rep.DegradedReasons = append(rep.DegradedReasons, "quarantined")
	}
	rep.DegradedReasons = append(rep.DegradedReasons, "deadline")
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("deadline: proposal deadline expired before stage %s (%v)", StageValidate, gctx.Err()))
	return rep
}

// markDeadline marks a proposal stopped by its deadline as Degraded when
// the expiry surfaced inside a stage (as an analysis error) rather than
// at run's between-stage check, which marks it itself.
func (m *MCC) markDeadline(pctx context.Context, rep *Report) {
	if pctx.Err() != nil && !rep.Accepted && !slices.Contains(rep.DegradedReasons, "deadline") {
		rep.Degraded = true
		rep.DegradedReasons = append(rep.DegradedReasons, "deadline")
	}
}

// runPinned decides cand on the pinned from-scratch path: every stage
// from scratch, deferred checks off, fault injection suppressed, and the
// memoized analyzer bypassed — the decision cannot depend on any
// (possibly corrupt) incremental state. Placing by the policy and retry
// rule of every pass, it decides and places as the clean engine would. An
// accepted pinned pass commits from-scratch (commitFull), rebuilding the
// snapshot and lifting the quarantine.
func (m *MCC) runPinned(pctx context.Context, cand *model.FunctionalArchitecture, rep *Report) {
	savedDefer := m.deferChecks
	m.deferChecks = false
	m.pinned = true
	m.decide(pctx, cand, nil, rep)
	m.pinned = false
	m.deferChecks = savedDefer
}

// newPass resets the attempt handoff for one pass of rep's proposal under
// pctx. A whole candidate cand is decided from scratch. A change c (cand
// nil) is decided on the warm pass, and the facts that pass needs come
// from the change and the snapshot alone: the name it touches, empty for
// a no-op (an update equal to the committed function, the removal of an
// unknown name), and whether it cuts flows (a removal of a committed flow
// endpoint; an update keeps every flow).
func (m *MCC) newPass(pctx context.Context, cand *model.FunctionalArchitecture, c *Change, rep *Report) {
	m.att = attempt{ctx: pctx, rep: rep, change: c, whole: cand}
	if c != nil {
		name := c.name()
		switch old := m.snap.fn(name); {
		case c.Update != nil && (old == nil || !old.Equal(*c.Update)):
			m.att.touched = name
		case c.Update == nil && old != nil:
			m.att.touched, m.att.flowsCut = name, m.snap.flowTouch[name]
		}
	}
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

// procNetIndex lists, per processor position, the ascending indices of
// the networks attaching that processor.
func procNetIndex(p *model.Platform) [][]int {
	idx := procIndex(p)
	out := make([][]int, len(p.Processors))
	for k := range p.Networks {
		for _, pn := range p.Networks[k].Attached {
			if i, ok := idx[pn]; ok && (len(out[i]) == 0 || out[i][len(out[i])-1] != k) {
				out[i] = append(out[i], k)
			}
		}
	}
	return out
}

// connecting returns the first network that attaches both processors, or
// nil: Platform.Connecting's answer, found by intersecting the two
// processors' ascending network lists.
func (m *MCC) connecting(a, b string) *model.Network {
	ia, okA := m.procIdx[a]
	ib, okB := m.procIdx[b]
	if !okA || !okB {
		return nil
	}
	na, nb := m.procNets[ia], m.procNets[ib]
	for len(na) > 0 && len(nb) > 0 {
		switch {
		case na[0] < nb[0]:
			na = na[1:]
		case na[0] > nb[0]:
			nb = nb[1:]
		default:
			return &m.platform.Networks[na[0]]
		}
	}
	return nil
}
