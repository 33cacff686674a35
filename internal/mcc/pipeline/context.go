package pipeline

import (
	"context"
	"fmt"

	"repro/internal/model"
)

// Context is the shared state one integration attempt threads through the
// pipeline: the platform, the artifacts the built-in stages hand to later
// ones (technical architecture, implementation model), the proposal's
// deadline and the report under construction. It carries what a custom
// stage reads; the engine's own stage-to-stage handoffs stay inside
// package mcc.
type Context struct {
	// Platform is the target platform the MCC manages.
	Platform *model.Platform

	// Tech is the mapping stage's artifact: every replica placed.
	Tech *model.TechnicalArchitecture
	// Impl is the synthesis stage's artifact: tasks, messages, sessions.
	Impl *model.ImplementationModel
	// TasksFn, when set by a partial synthesis, materializes the
	// candidate's flat task list on demand: the incremental path leaves
	// Impl.Tasks nil (the affected processors' rebuilt lists live in
	// stage-internal per-processor caches, everything else is committed
	// unchanged), so a stage that genuinely needs the whole flat list — a
	// custom viewpoint like the thermal budget — must read it through
	// Tasks() instead of Impl.Tasks.
	TasksFn func() []model.Task

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
