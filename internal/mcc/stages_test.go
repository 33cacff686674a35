package mcc

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
)

// traceStages lists the stages a report holds a trace of, in order.
func traceStages(rep *Report) []Stage {
	out := make([]Stage, 0, len(rep.Stages))
	for _, tr := range rep.Stages {
		out = append(out, tr.Stage)
	}
	return out
}

// allStages is the fixed stage sequence of every pass.
var allStages = []Stage{
	StageValidate, StageMapping, StageSynth, StageSafety,
	StageSecurity, StageTiming, StageMonitors, StageCommit,
}

// An accepted proposal runs every stage once, in the fixed order, and
// records one trace per stage: from scratch on the first deploy and warm
// on the change after it, whose stages leave their notes.
func TestStageLoopRunsInOrderAndRecordsTraces(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []model.Function{fn("base", model.QM, 50000, 5000, 256), fn("t0", model.QM, 100000, 2000, 64)} {
		rep := m.ProposeUpdate(f)
		if !rep.Accepted || rep.RejectedAt != "" || rep.Passes != 1 {
			t.Fatalf("%s: accepted %v at %q after %d passes: %v", f.Name, rep.Accepted, rep.RejectedAt, rep.Passes, rep.Findings)
		}
		if got := traceStages(rep); !slices.Equal(got, allStages) {
			t.Fatalf("%s: traces %v, want %v", f.Name, got, allStages)
		}
		for _, tr := range rep.Stages {
			if tr.Wall < 0 {
				t.Fatalf("%s: stage %s wall %v", f.Name, tr.Stage, tr.Wall)
			}
		}
	}
}

// A rejecting stage ends the pass: its trace is recorded, no later stage
// runs, its findings are the report's, and nothing commits. A security
// rejection is never retried, so the pass is the only one.
func TestStageLoopStopsAtFirstRejection(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	srv := fn("acc", model.ASILC, 10000, 1000, 64)
	srv.Provides, srv.Contract.Domain = []string{"accel_cmd"}, "drive"
	cli := withRequires(fn("telematics", model.QM, 50000, 1000, 64), "accel_cmd")
	cli.Contract.Domain = "connectivity"
	rep := m.ProposeArchitecture(&model.FunctionalArchitecture{Functions: []model.Function{srv, cli}})
	if rep.Accepted || rep.RejectedAt != StageSecurity || rep.Passes != 1 {
		t.Fatalf("accepted %v at %q after %d passes, want a security rejection in one pass", rep.Accepted, rep.RejectedAt, rep.Passes)
	}
	if got, want := traceStages(rep), allStages[:5]; !slices.Equal(got, want) {
		t.Fatalf("traces %v, want %v", got, want)
	}
	if len(rep.Findings) == 0 || !strings.Contains(rep.Findings[0], "telematics") {
		t.Fatalf("findings = %v, want the security stage's", rep.Findings)
	}
	if len(m.Deployed().Functions) != 0 || m.DeployedImpl() != nil {
		t.Fatal("a rejected proposal committed")
	}
}

// Every pass counts on the report: one normally, two when a pass that
// kept committed instances in place is rejected at a placement-dependent
// stage and re-decided by a full best fit, whose traces follow the first
// pass's on the same report.
func TestRunCountsPasses(t *testing.T) {
	m, err := New(&model.Platform{Processors: []model.Processor{
		{Name: "only", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.ProposeUpdate(fn("a", model.ASILD, 10000, 5200, 1)); !rep.Accepted || rep.Passes != 1 {
		t.Fatalf("baseline accepted %v after %d passes, want accepted after 1", rep.Accepted, rep.Passes)
	}
	rep := m.ProposeUpdate(fn("c", model.ASILD, 14000, 5200, 1)) // misses its deadline next to a
	if rep.Accepted || rep.RejectedAt != StageTiming || rep.Passes != 2 {
		t.Fatalf("accepted %v at %q after %d passes, want a timing rejection after 2", rep.Accepted, rep.RejectedAt, rep.Passes)
	}
	pass := allStages[:6]
	if got, want := traceStages(rep), slices.Concat(pass, pass); !slices.Equal(got, want) {
		t.Fatalf("traces %v, want %v", got, want)
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
		var m MCC
		m.note("overwritten %d", 1)
		m.note(tc.format, tc.args...)
		if got, want := (StageTrace{note: m.att.note}).Note(), fmt.Sprintf(tc.format, tc.args...); got != want {
			t.Errorf("note(%q, %v) renders %q, want %q", tc.format, tc.args, got, want)
		}
	}
	if got := (StageTrace{}).Note(); got != "" {
		t.Errorf("stage without a note renders %q", got)
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
