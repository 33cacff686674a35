package pipeline

import (
	"context"
	"fmt"

	"repro/internal/model"
)

// Context is the shared state one integration attempt threads through the
// pipeline. Early stages fill in artifacts (technical architecture,
// implementation model) that later stages consume; incremental stages
// additionally read the deployed implementation model and the precomputed
// Diff to restrict their work to what the change actually touches.
type Context struct {
	// Platform is the target platform the MCC manages.
	Platform *model.Platform
	// Candidate is the functional architecture under test on the
	// clone-based path; nil on the MCC's change-driven path, which decides
	// a single change against the committed snapshot. Custom stages read
	// the candidate's task set through Tasks(), not through this.
	Candidate *model.FunctionalArchitecture
	// DeployedImpl is the committed implementation model (nil until the
	// first successful integration); incremental synthesis copies its
	// untouched messages.
	DeployedImpl *model.ImplementationModel
	// Diff is the candidate-vs-deployed function diff, computed once by
	// the caller and shared by every incremental stage. A full diff runs
	// every stage from scratch; any other diff implies a warm snapshot.
	Diff Diff

	// Tech is the mapping stage's artifact: every replica placed.
	Tech *model.TechnicalArchitecture
	// Impl is the synthesis stage's artifact: tasks, messages, sessions.
	Impl *model.ImplementationModel
	// Warm reports that the mapping stage kept the deployed placement,
	// read from the snapshot's capacity index, and placed only the diff.
	// Synthesis then rebuilds only the affected artifacts (AffectedProcs,
	// MessagesRebuilt) and later stages build only the affected resources.
	Warm bool
	// AffectedProcs lists the processors whose task sets the partial
	// synthesis rebuilt (a touched function's instances were or are
	// placed there), ascending by name — the slot order of the committed
	// timing table. Only valid after a warm synthesis and only for the
	// pass in progress: the list is scratch the next pass reuses.
	AffectedProcs []string
	// MessagesRebuilt reports that the partial synthesis re-derived the
	// network messages (the flow set or a flow endpoint changed), so the
	// timing stage re-derives every network's job; when false the deployed
	// message list was copied verbatim. Only valid after a warm synthesis.
	MessagesRebuilt bool
	// TasksFn, when set by a partial synthesis, materializes the
	// candidate's flat task list on demand: the incremental path leaves
	// Impl.Tasks nil (the affected processors' rebuilt lists live in
	// stage-internal per-processor caches, everything else is committed
	// unchanged), so a stage that genuinely needs the whole flat list — a
	// custom viewpoint like the thermal budget — must read it through
	// Tasks() instead of Impl.Tasks.
	TasksFn func() []model.Task
	// DeferChecks asks the timing stage to defer the busy-window analyses
	// of dirty resources: it still constructs and digests the
	// per-resource task sets, raises no timing findings, and the
	// candidate is committed optimistically. Every other stage, safety
	// and security included, still decides inline. Only the
	// mcc.StreamScheduler sets this — it fans the deferred analyses of a
	// whole proposal window out over the worker pool and re-validates
	// every verdict before the window is final.
	DeferChecks bool

	// Ctx carries the proposal's cancellation/deadline signal. The
	// pipeline checks it between stages and long-running stages may
	// check it mid-work; expiry rejects the proposal deterministically
	// (never a hang). Nil means no deadline (context.Background()).
	Ctx context.Context

	// Report is the report under construction.
	Report *Report

	note stageNote
}

// Tasks returns the candidate's flat task list, materializing it through
// TasksFn (and memoizing into Impl.Tasks) when the partial synthesis left
// it unmaterialized. Stages must use this accessor — not Impl.Tasks —
// whenever they iterate the whole task set: on the incremental path a
// direct read sees nil and silently checks nothing.
func (c *Context) Tasks() []model.Task {
	if c.Impl == nil {
		return nil
	}
	if c.Impl.Tasks == nil && c.TasksFn != nil {
		c.Impl.Tasks = c.TasksFn()
	}
	return c.Impl.Tasks
}

// Done returns the proposal context's done channel, or nil when no
// deadline/cancellation applies. Safe on a nil Ctx.
func (c *Context) Done() <-chan struct{} {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Done()
}

// Expired reports whether the proposal's deadline/cancellation fired.
func (c *Context) Expired() bool {
	return c.Ctx != nil && c.Ctx.Err() != nil
}

// Note attaches a short telemetry note to the currently running stage's
// trace (e.g. "warm-start: placed 1/41 instances", "5/6 resources clean").
// Each Run of a stage records at most one note; the last call wins. The
// note keeps its format and arguments and is formatted only when read
// (StageTrace.Note), so arguments must be values that do not change
// afterwards: numbers, strings, or immutable data.
func (c *Context) Note(format string, args ...any) {
	c.note = stageNote{format: format}
	if len(args) > len(c.note.args) {
		c.note.format, c.note.n = fmt.Sprintf(format, args...), -1
		return
	}
	c.note.n = int8(copy(c.note.args[:], args))
}

// takeNote returns and clears the pending stage note.
func (c *Context) takeNote() stageNote {
	n := c.note
	c.note = stageNote{}
	return n
}
