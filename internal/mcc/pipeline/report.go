package pipeline

import (
	"fmt"
	"time"

	"repro/internal/cpa"
	"repro/internal/model"
)

// MonitorKind labels entries of the monitor plan.
type MonitorKind string

// Monitor kinds emitted by the MCC for the execution domain.
const (
	MonitorBudget MonitorKind = "budget" // execution time + deadline
	MonitorRate   MonitorKind = "rate"   // leaky-bucket event rate
)

// MonitorSpec is one monitor the MCC configures in the execution domain:
// "it can configure the monitoring facilities to enforce, e.g., the access
// policy to network resources or real-time behavior where necessary".
type MonitorSpec struct {
	Kind     MonitorKind
	Target   string // task or message name
	PeriodUS int64
	JitterUS int64
	WCETUS   int64
	Enforce  bool
}

// TimingResult carries the per-resource WCRT table of the timing
// acceptance test.
type TimingResult struct {
	Resource string
	Results  []cpa.Result
}

// StageTrace is the telemetry of one executed pipeline stage.
type StageTrace struct {
	// Stage names the stage.
	Stage StageName
	// Wall is the stage's wall-clock duration.
	Wall time.Duration
	note stageNote
}

// Note renders the stage's optional telemetry line, e.g.
// "warm-start: placed 1/41 instances" or "timing: 1/2 resources dirty";
// empty when the stage left none.
func (tr StageTrace) Note() string { return tr.note.String() }

// stageNote is a stage note as Context.Note received it: its format and
// up to four arguments, kept inline so that recording a note allocates
// nothing beyond boxing the arguments. A note with more arguments is
// formatted on receipt and holds the text (n = -1).
type stageNote struct {
	format string
	args   [4]any
	n      int8
}

// String formats the note; the empty note renders as "".
func (n stageNote) String() string {
	if n.n < 0 {
		return n.format
	}
	return fmt.Sprintf(n.format, n.args[:n.n]...)
}

// Report is the outcome of one integration attempt.
type Report struct {
	// Accepted reports whether the new configuration was committed.
	Accepted bool
	// RejectedAt names the stage that failed (empty when accepted).
	RejectedAt StageName
	// Findings lists human-readable acceptance failures.
	Findings []string
	// Impl is the synthesized implementation model (nil if rejected
	// before synthesis). It is a read-only view shared with the
	// controller's committed state once the proposal is accepted; do not
	// mutate it. On the incremental path the flat Tasks,
	// Tech.Instances and Connections lists (and, for a single change,
	// Tech.Func) are unmaterialized (nil) — the change's footprint lives
	// in the controller's per-processor/per-function tables — while
	// Messages are always present; whole-model readers use
	// MCC.DeployedImpl(), which materializes the committed lists on
	// demand.
	Impl *model.ImplementationModel
	// TimingDelta holds the WCRT tables of exactly the resources this
	// attempt re-analyzed — the change's footprint, not the platform.
	// Every entry (including its Results slice) is freshly allocated and
	// owned by the report: mutating it cannot reach the controller's
	// committed caches. Untouched resources are not repeated here; use
	// FullTiming for the whole-platform view. On a from-scratch pass the
	// delta covers every analyzed resource, so delta == full table.
	TimingDelta []TimingResult
	// MonitorDelta holds the monitor specs of exactly the resources this
	// attempt rebuilt, freshly allocated and owned by the report. Use
	// FullMonitors for the whole plan. On a from-scratch pass the delta
	// is the complete plan.
	MonitorDelta []MonitorSpec
	// fullTiming/fullMonitors materialize the whole-platform tables from
	// the committed state this report's commit installed. They are bound
	// by the commit stage (BindCommitted) on accepted proposals and must
	// return freshly allocated data. Unexported so the handle never
	// serializes; the committed tables stay reachable only through the
	// materializing accessors.
	fullTiming   func() []TimingResult
	fullMonitors func() []MonitorSpec
	// Stages is the per-stage wall-clock/cache telemetry of every stage
	// that ran, in execution order. A rejected attempt that was retried
	// from scratch (warm-start fallback) accumulates the traces of both
	// passes.
	Stages []StageTrace
	// TimingScans counts the resources whose CPA task sets the timing
	// stage rebuilt by scanning the implementation model
	// (TasksOn/MessagesOn); with diff-proportional job construction the
	// task sets of untouched resources stay in the committed timing table
	// without any scan, so a clean-resource proposal reports 0.
	TimingScans int
	// TimingDirty counts the resources whose busy-window analysis
	// actually ran (or, under deferred timing, was scheduled); clean
	// resources reuse the committed WCRT tables.
	TimingDirty int
	// TimingResources is the total number of loaded resources the timing
	// stage covered.
	TimingResources int
	// SecurityChecks counts the per-connection security verdicts the
	// security stage actually computed; with the diff-scoped check only
	// connections whose client or server function the change touched (or
	// whose wiring is new) are re-verified, the rest splice their
	// committed-clean verdict, so the count tracks the change footprint
	// rather than the platform size. The from-scratch check counts every
	// session. Mirrors TimingScans for the security viewpoint.
	SecurityChecks int
	// SafetyChecks counts the per-entity safety verdicts (instance
	// placements, fail-operational redundancy groups, processor memory
	// budgets) the safety stage actually computed; the diff-scoped check
	// re-derives only touched functions' entities and affected
	// processors' budgets. Mirrors TimingScans for the safety viewpoint.
	SafetyChecks int
	// Passes counts the pipeline passes this report accumulated:
	// incremented by every Pipeline.Run, so 1 normally and 2 when a pass
	// that kept committed instances in place was rejected and re-decided
	// by a full best-fit.
	Passes int
	// Degraded reports that this proposal did not complete on the
	// normal incremental path: its deadline expired, or a fault made
	// the MCC quarantine its incremental state and re-decide the
	// proposal on the pinned from-scratch path. A degraded verdict is
	// still deterministic — the degradation ladder guarantees it equals
	// the from-scratch oracle's decision (or is a deadline rejection).
	Degraded bool
	// DegradedReasons lists why the proposal degraded ("deadline",
	// "transient-fault", "quarantined"), in the order encountered.
	DegradedReasons []string
	// TransientFault marks a rejection caused by a fault the
	// degradation ladder classifies as transient (injected error,
	// recovered worker panic, cache corruption) rather than a real
	// acceptance failure; the MCC re-decides such proposals from
	// scratch before the verdict stands.
	TransientFault bool
	// PanicsRecovered counts panics recovered on behalf of this
	// proposal: pipeline stages and pooled timing/prefetch goroutines.
	PanicsRecovered int
	// RetriedAnalyses counts timing analyses retried after a transient
	// analyzer error (bounded retry with backoff).
	RetriedAnalyses int
}

// BindCommitted attaches the materialize-on-demand whole-table view to
// an accepted report. Both closures must return freshly allocated
// slices on every call (deep copies of the committed tables): the
// report contract promises that nothing a consumer obtains from a
// Report aliases controller state.
func (r *Report) BindCommitted(timing func() []TimingResult, monitors func() []MonitorSpec) {
	r.fullTiming = timing
	r.fullMonitors = monitors
}

// FullTiming materializes the whole-platform WCRT table as of this
// report's commit. Every call returns a fresh deep copy the caller
// owns. On reports that never committed (rejected attempts), no
// committed handle is bound and the materialized view is just a copy of
// TimingDelta — the tables the attempt actually computed.
func (r *Report) FullTiming() []TimingResult {
	if r.fullTiming != nil {
		return r.fullTiming()
	}
	return CloneTimingResults(r.TimingDelta)
}

// FullMonitors materializes the whole monitor plan as of this report's
// commit; same ownership and rejected-report semantics as FullTiming.
func (r *Report) FullMonitors() []MonitorSpec {
	if r.fullMonitors != nil {
		return r.fullMonitors()
	}
	out := make([]MonitorSpec, len(r.MonitorDelta))
	copy(out, r.MonitorDelta)
	return out
}

// CloneTimingResults deep-copies a WCRT table, including each entry's
// Results slice; cpa.Result itself is a flat value.
func CloneTimingResults(in []TimingResult) []TimingResult {
	if in == nil {
		return nil
	}
	out := make([]TimingResult, len(in))
	for i, tr := range in {
		out[i] = CloneTimingResult(tr)
	}
	return out
}

// CloneTimingResult deep-copies one per-resource WCRT table entry.
func CloneTimingResult(tr TimingResult) TimingResult {
	if tr.Results == nil {
		return TimingResult{Resource: tr.Resource}
	}
	rs := make([]cpa.Result, len(tr.Results))
	copy(rs, tr.Results)
	return TimingResult{Resource: tr.Resource, Results: rs}
}

// StageTraceFor returns the last recorded trace of the named stage, or nil.
func (r *Report) StageTraceFor(name StageName) *StageTrace {
	for i := len(r.Stages) - 1; i >= 0; i-- {
		if r.Stages[i].Stage == name {
			return &r.Stages[i]
		}
	}
	return nil
}

// StageWall sums the recorded wall-clock time per stage.
func (r *Report) StageWall() map[StageName]time.Duration {
	out := make(map[StageName]time.Duration, len(r.Stages))
	for _, tr := range r.Stages {
		out[tr.Stage] += tr.Wall
	}
	return out
}
