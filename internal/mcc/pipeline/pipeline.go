// Package pipeline is the staged acceptance-test engine of the
// Multi-Change Controller. The paper's integration process (Section II.A)
// is a fixed sequence of viewpoint analyses — contract validation,
// mapping, synthesis, safety, security, timing — each acting as an
// acceptance test for an in-field change. This package makes that
// sequence first-class: a Stage is one viewpoint, a Pipeline is an
// ordered list of stages, and a Context carries the platform, the
// intermediate artifacts, the proposal's deadline and the report under
// construction.
//
// The pipeline itself is policy-free: it runs stages in order, records
// per-stage wall-clock telemetry into the Report, and stops at the first
// stage that rejects. Which stages run — and whether they work
// incrementally from the deployed configuration or from scratch — is
// decided by the caller (package mcc) when it assembles the Pipeline.
// Custom viewpoints (thermal budgets, dependency checks, routing
// feasibility) plug in by implementing Stage; they need no changes here.
package pipeline

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// StageName identifies a pipeline stage in reports and telemetry.
type StageName string

// Built-in stage names, in pipeline order.
const (
	StageValidate StageName = "validate"
	StageMapping  StageName = "mapping"
	StageSynth    StageName = "synthesis"
	StageSafety   StageName = "safety"
	StageSecurity StageName = "security"
	StageTiming   StageName = "timing"
	StageMonitors StageName = "monitors"
	StageCommit   StageName = "commit"
)

// Stage is one acceptance-test stage of the integration pipeline. Run
// inspects and extends the Context; returning a non-nil error rejects the
// candidate at this stage. Return a *Reject to attach structured findings;
// any other error is reported verbatim as a single finding.
type Stage interface {
	// Name identifies the stage in reports, telemetry, and rejections.
	Name() StageName
	// Run executes the stage against the shared context.
	Run(*Context) error
}

// Reject is the error a stage returns to fail the acceptance test with
// one or more human-readable findings.
type Reject struct {
	// Findings lists the acceptance failures, one per line.
	Findings []string
}

// Rejectf builds a single-finding rejection.
func Rejectf(format string, args ...any) *Reject {
	return &Reject{Findings: []string{fmt.Sprintf(format, args...)}}
}

// Error implements the error interface.
func (r *Reject) Error() string { return strings.Join(r.Findings, "; ") }

// Func adapts a plain function into a Stage; useful for small custom
// viewpoints registered via mcc.WithStage.
type Func struct {
	// StageName is the name reported for this stage.
	StageName StageName
	// RunFunc is invoked as the stage body.
	RunFunc func(*Context) error
}

// Name implements Stage.
func (f Func) Name() StageName { return f.StageName }

// Run implements Stage.
func (f Func) Run(ctx *Context) error { return f.RunFunc(ctx) }

// Pipeline is an ordered sequence of stages.
type Pipeline struct {
	stages []Stage
}

// New builds a pipeline running the given stages in order.
func New(stages ...Stage) *Pipeline {
	return &Pipeline{stages: stages}
}

// Insert returns a new pipeline with extra stages spliced in immediately
// before the stage named at. If no stage has that name, the extras are
// appended at the end.
func (p *Pipeline) Insert(at StageName, extra ...Stage) *Pipeline {
	if len(extra) == 0 {
		return p
	}
	out := make([]Stage, 0, len(p.stages)+len(extra))
	inserted := false
	for _, s := range p.stages {
		if !inserted && s.Name() == at {
			out = append(out, extra...)
			inserted = true
		}
		out = append(out, s)
	}
	if !inserted {
		out = append(out, extra...)
	}
	return &Pipeline{stages: out}
}

// Wrap returns a new pipeline with every stage replaced by wrap(stage).
// The caller uses this to interpose cross-cutting concerns (fault
// injection hooks) without the stages knowing.
func (p *Pipeline) Wrap(wrap func(Stage) Stage) *Pipeline {
	out := make([]Stage, len(p.stages))
	for i, s := range p.stages {
		out[i] = wrap(s)
	}
	return &Pipeline{stages: out}
}

// StageNames lists the stages in execution order.
func (p *Pipeline) StageNames() []StageName {
	out := make([]StageName, len(p.stages))
	for i, s := range p.stages {
		out[i] = s.Name()
	}
	return out
}

// Run executes the stages in order against ctx, recording one StageTrace
// per executed stage into ctx.Report. The first stage returning an error
// marks the report rejected at that stage and stops the pipeline; if every
// stage passes, the report is marked accepted.
//
// Robustness: a panicking stage is recovered and converted into a
// rejection at that stage (counted in Report.PanicsRecovered and marked
// transient), and the proposal deadline (ctx.Ctx) is checked before
// every stage — expiry rejects deterministically with a finding naming
// the stage the pipeline stopped before, so a proposal can never hang
// or commit past its deadline.
func (p *Pipeline) Run(ctx *Context) {
	rep := ctx.Report
	rep.Passes++
	// One allocation per pass at most: room for a trace of every stage.
	rep.Stages = slices.Grow(rep.Stages, len(p.stages))
	for _, s := range p.stages {
		if ctx.Expired() {
			rep.RejectedAt = s.Name()
			rep.Degraded = true
			rep.DegradedReasons = append(rep.DegradedReasons, "deadline")
			rep.Findings = append(rep.Findings,
				fmt.Sprintf("deadline: proposal deadline expired before stage %s (%v)", s.Name(), ctx.Ctx.Err()))
			return
		}
		start := time.Now()
		err := p.runStage(s, ctx)
		rep.Stages = append(rep.Stages, StageTrace{
			Stage: s.Name(),
			Wall:  time.Since(start),
			note:  ctx.takeNote(),
		})
		if err != nil {
			rep.RejectedAt = s.Name()
			if rej, ok := err.(*Reject); ok {
				rep.Findings = append(rep.Findings, rej.Findings...)
			} else {
				rep.Findings = append(rep.Findings, err.Error())
			}
			return
		}
	}
	rep.Accepted = true
}

// runStage executes one stage, converting a panic into a rejection so a
// faulty viewpoint cannot take the controller down.
func (p *Pipeline) runStage(s Stage, ctx *Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ctx.Report.PanicsRecovered++
			ctx.Report.TransientFault = true
			err = Rejectf("%s: recovered panic: %v", s.Name(), r)
		}
	}()
	return s.Run(ctx)
}
