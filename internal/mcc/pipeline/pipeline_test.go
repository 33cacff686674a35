package pipeline

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestPipelineRunsStagesInOrderAndRecordsTraces(t *testing.T) {
	var order []StageName
	mk := func(n StageName) Stage {
		return Func{StageName: n, RunFunc: func(ctx *Context) error {
			order = append(order, n)
			ctx.Note("ran %s", n)
			return nil
		}}
	}
	p := New(mk("a"), mk("b"), mk("c"))
	ctx := &Context{Report: &Report{}}
	p.Run(ctx)
	if !ctx.Report.Accepted {
		t.Fatalf("pipeline rejected: %+v", ctx.Report)
	}
	want := []StageName{"a", "b", "c"}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if len(ctx.Report.Stages) != 3 {
		t.Fatalf("traces = %d, want 3", len(ctx.Report.Stages))
	}
	for i, tr := range ctx.Report.Stages {
		if tr.Stage != want[i] {
			t.Fatalf("trace %d = %s, want %s", i, tr.Stage, want[i])
		}
		if tr.Note() != "ran "+string(want[i]) {
			t.Fatalf("trace %d note = %q", i, tr.Note())
		}
		if tr.Wall < 0 {
			t.Fatalf("trace %d wall negative", i)
		}
	}
}

// A stage note renders on read exactly as fmt.Sprintf formats its format
// and arguments — kept inline up to four arguments, formatted on receipt
// beyond that — the last note of a stage wins, and a stage that leaves
// none renders "".
func TestStageNoteRendersLikeSprintf(t *testing.T) {
	for _, tc := range []struct {
		format string
		args   []any
	}{
		{"", nil},
		{"plain", nil},
		{"100%% clean", nil},
		{"missing %d", nil},
		{"%d/%d resources dirty, %d scanned", []any{1, 2048, 3}},
		{"reused %d/%d processors, messages %s, connections %s", []any{2046, 2048, "reused", "rebuilt"}},
		{"%v %v %v %v %v", []any{1, "two", 3.5, true, StageTiming}},
	} {
		stage := Func{StageName: "s", RunFunc: func(ctx *Context) error {
			ctx.Note("overwritten %d", 1)
			ctx.Note(tc.format, tc.args...)
			return nil
		}}
		ctx := &Context{Report: &Report{}}
		New(stage).Run(ctx)
		if got, want := ctx.Report.Stages[0].Note(), fmt.Sprintf(tc.format, tc.args...); got != want {
			t.Errorf("Note(%q, %v) renders %q, want %q", tc.format, tc.args, got, want)
		}
	}
	ctx := &Context{Report: &Report{}}
	New(Func{StageName: "quiet", RunFunc: func(*Context) error { return nil }}).Run(ctx)
	if got := ctx.Report.Stages[0].Note(); got != "" {
		t.Errorf("stage without a note renders %q", got)
	}
}

func TestPipelineStopsAtFirstRejection(t *testing.T) {
	var ran []StageName
	ok := func(n StageName) Stage {
		return Func{StageName: n, RunFunc: func(*Context) error { ran = append(ran, n); return nil }}
	}
	fail := Func{StageName: "gate", RunFunc: func(*Context) error {
		ran = append(ran, "gate")
		return &Reject{Findings: []string{"finding one", "finding two"}}
	}}
	p := New(ok("a"), fail, ok("c"))
	ctx := &Context{Report: &Report{}}
	p.Run(ctx)
	rep := ctx.Report
	if rep.Accepted {
		t.Fatal("rejected pipeline reported accepted")
	}
	if rep.RejectedAt != "gate" {
		t.Fatalf("rejected at %s, want gate", rep.RejectedAt)
	}
	if len(ran) != 2 {
		t.Fatalf("stages ran after rejection: %v", ran)
	}
	if len(rep.Findings) != 2 || rep.Findings[0] != "finding one" {
		t.Fatalf("findings = %v", rep.Findings)
	}
	// A trace is still recorded for the failing stage.
	if tr := rep.StageTraceFor("gate"); tr == nil {
		t.Fatal("no trace for rejecting stage")
	}
}

func TestPipelinePlainErrorBecomesSingleFinding(t *testing.T) {
	p := New(Func{StageName: "x", RunFunc: func(*Context) error { return errors.New("boom") }})
	ctx := &Context{Report: &Report{}}
	p.Run(ctx)
	if ctx.Report.RejectedAt != "x" || len(ctx.Report.Findings) != 1 || ctx.Report.Findings[0] != "boom" {
		t.Fatalf("report = %+v", ctx.Report)
	}
}

func TestPipelineInsert(t *testing.T) {
	mk := func(n StageName) Stage { return Func{StageName: n, RunFunc: func(*Context) error { return nil }} }
	p := New(mk("a"), mk("c"))
	p2 := p.Insert("c", mk("b1"), mk("b2"))
	got := p2.StageNames()
	want := []StageName{"a", "b1", "b2", "c"}
	if len(got) != len(want) {
		t.Fatalf("stages = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stages = %v, want %v", got, want)
		}
	}
	// Unknown anchor appends.
	p3 := p.Insert("nope", mk("z"))
	names := p3.StageNames()
	if names[len(names)-1] != "z" {
		t.Fatalf("stages = %v", names)
	}
	// Original untouched.
	if len(p.StageNames()) != 2 {
		t.Fatalf("insert mutated the original pipeline: %v", p.StageNames())
	}
}

func TestRejectf(t *testing.T) {
	r := Rejectf("bad thing %d", 7)
	if len(r.Findings) != 1 || r.Findings[0] != "bad thing 7" {
		t.Fatalf("findings = %v", r.Findings)
	}
	if !strings.Contains(r.Error(), "bad thing 7") {
		t.Fatalf("error = %q", r.Error())
	}
}

func TestReportStageWall(t *testing.T) {
	rep := &Report{Stages: []StageTrace{
		{Stage: "a", Wall: 10},
		{Stage: "b", Wall: 20},
		{Stage: "a", Wall: 5},
	}}
	w := rep.StageWall()
	if w["a"] != 15 || w["b"] != 20 {
		t.Fatalf("wall = %v", w)
	}
	if tr := rep.StageTraceFor("a"); tr == nil || tr.Wall != 5 {
		t.Fatalf("last trace for a = %+v", tr)
	}
	if rep.StageTraceFor("zz") != nil {
		t.Fatal("trace for unknown stage")
	}
}

func TestRunCountsPasses(t *testing.T) {
	p := New(Func{StageName: "a", RunFunc: func(*Context) error { return nil }})
	ctx := &Context{Report: &Report{}}
	p.Run(ctx)
	if ctx.Report.Passes != 1 {
		t.Fatalf("passes = %d after one run", ctx.Report.Passes)
	}
	// A retry sharing the report (warm-start fallback) counts both passes.
	ctx2 := &Context{Report: ctx.Report}
	p.Run(ctx2)
	if ctx.Report.Passes != 2 {
		t.Fatalf("passes = %d after retry", ctx.Report.Passes)
	}
}
