package mcc

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
)

// stageNotes renders every stage note of a report as "stage: note".
func stageNotes(rep *Report) []string {
	var out []string
	for _, tr := range rep.Stages {
		if note := tr.Note(); note != "" {
			out = append(out, fmt.Sprintf("%s: %s", tr.Stage, note))
		}
	}
	return out
}

// noteScript proposes a fixed sequence of changes that reaches every note
// a built-in stage can leave, and returns each proposal's report.
func noteScript(t *testing.T) []*Report {
	t.Helper()
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	srv := fn("srv", model.QM, 40000, 2000, 64)
	srv.Provides = []string{"svc"}
	srv2 := srv
	srv2.Provides = []string{"svc", "svc2"}
	t0 := fn("t0", model.QM, 100000, 2000, 64)
	t0b := t0
	t0b.Contract.RealTime.WCETUS++
	changes := []Change{
		upd(fn("base", model.QM, 50000, 5000, 256)), // cold: no notes
		upd(t0),  // fast add, warm start, every scoped stage
		upd(t0b), // fast update
		upd(t0b), // no-op
		upd(srv),
		upd(withRequires(fn("cli", model.QM, 60000, 1000, 64), "svc")), // rewires sessions
		upd(srv2),       // service surface changed: scoped walk
		{Remove: "t0"},  // fast removal
		{Remove: "srv"}, // orphans cli: rejected at validation
		upd(fn("big", model.ASILD, 10000, 9000, 64)),
		upd(fn("a", model.ASILD, 10000, 5200, 1)),
		upd(fn("c", model.ASILD, 14000, 5200, 1)), // misses its deadline next to a: warm pass and cold retry
	}
	var out []*Report
	for _, c := range changes {
		out = append(out, m.integrateChangeCtx(t.Context(), c))
	}
	// A diff that does not fit the residual capacity falls back to the
	// full best fit.
	m, err = New(&model.Platform{Processors: []model.Processor{
		{Name: "big", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 1000, MaxSafety: model.ASILB},
		{Name: "small", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 500, MaxSafety: model.ASILB},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []model.Function{fn("f1", model.QM, 100000, 1000, 500), fn("f2", model.QM, 100000, 2000, 600)} {
		out = append(out, m.ProposeUpdate(f))
	}
	// Removing an endpoint of a periodic flow cuts the flow: the removal of
	// its provider orphans the requirer, the removal of the requirer
	// rebuilds the messages, and the provider's removal after it finds no
	// flow left to cut. Neither endpoint fits beside the other, so the flow
	// crosses the network.
	m, err = New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	src := fn("src", model.ASILD, 20000, 1000, 3000)
	src.Provides = []string{"s"}
	dst := withRequires(fn("dst", model.ASILD, 20000, 1000, 3000), "s")
	out = append(out, m.ProposeArchitecture(&model.FunctionalArchitecture{
		Functions: []model.Function{src, dst},
		Flows:     []model.Flow{{From: "src", To: "dst", Service: "s", MsgBytes: 8, PeriodUS: 20000}},
	}))
	out = append(out, m.ProposeRemoval("src"), m.ProposeRemoval("dst"), m.ProposeRemoval("src"))
	return out
}

// Every built-in stage's note, rendered on read from its format and
// arguments, reads exactly as the text the stages formatted eagerly with
// fmt.Sprintf before notes became lazy (the want lines were recorded from
// that implementation on this script).
func TestStageNotesRenderAsFormatted(t *testing.T) {
	want := [][]string{
		{
			"timing: 1/1 resources dirty, 4 scanned",
		},
		{
			"validate: fast: added function's contract and required services verified",
			"mapping: warm-start: kept 1 instances, placed 1",
			"synthesis: reused 2/3 processors, messages reused, connections reused",
			"safety: scoped: 2 verdicts for 1 touched functions, 1 affected processors",
			"security: scoped: re-checked 0 connections",
			"timing: 1/2 resources dirty, 1 scanned",
			"monitors: monitor delta: 1 resources rebuilt (1 specs)",
		},
		{
			"validate: fast: contract re-checked, service surface unchanged",
			"mapping: warm-start: kept 1 instances, placed 1",
			"synthesis: reused 2/3 processors, messages reused, connections reused",
			"safety: scoped: 2 verdicts for 1 touched functions, 1 affected processors",
			"security: scoped: re-checked 0 connections",
			"timing: 1/2 resources dirty, 1 scanned",
			"monitors: monitor delta: 1 resources rebuilt (1 specs)",
		},
		{
			"validate: no-op: candidate identical to deployed",
			"mapping: warm-start: kept 2 instances, placed 0",
			"synthesis: reused 3/3 processors, messages reused, connections reused",
			"safety: scoped: 0 verdicts for 0 touched functions, 0 affected processors",
			"security: scoped: re-checked 0 connections",
			"timing: 0/2 resources dirty, 0 scanned",
			"monitors: monitor delta: 0 resources rebuilt (0 specs)",
		},
		{
			"validate: fast: added function's contract and required services verified",
			"mapping: warm-start: kept 2 instances, placed 1",
			"synthesis: reused 2/3 processors, messages reused, connections rebuilt",
			"safety: scoped: 2 verdicts for 1 touched functions, 1 affected processors",
			"security: scoped: re-checked 0 connections",
			"timing: 1/3 resources dirty, 1 scanned",
			"monitors: monitor delta: 1 resources rebuilt (1 specs)",
		},
		{
			"validate: fast: added function's contract and required services verified",
			"mapping: warm-start: kept 3 instances, placed 1",
			"synthesis: reused 2/3 processors, messages reused, connections rebuilt",
			"safety: scoped: 2 verdicts for 1 touched functions, 1 affected processors",
			"security: scoped: re-checked 1 connections",
			"timing: 1/3 resources dirty, 1 scanned",
			"monitors: monitor delta: 1 resources rebuilt (2 specs)",
		},
		{
			"validate: re-checked 1/4 function scopes",
			"mapping: warm-start: kept 3 instances, placed 1",
			"synthesis: reused 2/3 processors, messages reused, connections rebuilt",
			"safety: scoped: 2 verdicts for 1 touched functions, 1 affected processors",
			"security: scoped: re-checked 1 connections",
			"timing: 0/3 resources dirty, 1 scanned",
			"monitors: monitor delta: 1 resources rebuilt (1 specs)",
		},
		{
			"validate: fast: removal provides no services, flows cut with it",
			"mapping: warm-start: kept 3 instances, placed 0",
			"synthesis: reused 2/3 processors, messages reused, connections reused",
			"safety: scoped: 1 verdicts for 1 touched functions, 1 affected processors",
			"security: scoped: re-checked 0 connections",
			"timing: 1/3 resources dirty, 1 scanned",
			"monitors: monitor delta: 1 resources rebuilt (1 specs)",
		},
		nil,
		{
			"validate: fast: added function's contract and required services verified",
			"mapping: warm-start: kept 3 instances, placed 1",
			"synthesis: reused 2/3 processors, messages reused, connections reused",
			"safety: scoped: 2 verdicts for 1 touched functions, 1 affected processors",
			"security: scoped: re-checked 0 connections",
			"timing: 1/3 resources dirty, 1 scanned",
			"monitors: monitor delta: 1 resources rebuilt (2 specs)",
		},
		{
			"validate: fast: added function's contract and required services verified",
			"mapping: warm-start: kept 4 instances, placed 1",
			"synthesis: reused 2/3 processors, messages reused, connections reused",
			"safety: scoped: 2 verdicts for 1 touched functions, 1 affected processors",
			"security: scoped: re-checked 0 connections",
			"timing: 1/3 resources dirty, 1 scanned",
			"monitors: monitor delta: 1 resources rebuilt (2 specs)",
		},
		{
			"validate: fast: added function's contract and required services verified",
			"mapping: warm-start: kept 5 instances, placed 1",
			"synthesis: reused 2/3 processors, messages reused, connections reused",
			"safety: scoped: 2 verdicts for 1 touched functions, 1 affected processors",
			"security: scoped: re-checked 0 connections",
			"timing: 1/3 resources dirty, 1 scanned",
			"timing: 3/3 resources dirty, 4 scanned",
		},
		{
			"timing: 1/1 resources dirty, 2 scanned",
		},
		{
			"validate: fast: added function's contract and required services verified",
			"mapping: warm-start infeasible, fell back to full best-fit",
			"timing: 2/2 resources dirty, 2 scanned",
		},
		{
			"timing: 3/3 resources dirty, 4 scanned",
		},
		nil,
		{
			"validate: fast: removal provides no services, flows cut with it",
			"mapping: warm-start: kept 1 instances, placed 0",
			"synthesis: reused 2/3 processors, messages rebuilt, connections rebuilt",
			"safety: scoped: 0 verdicts for 1 touched functions, 1 affected processors",
			"security: scoped: re-checked 0 connections",
			"timing: 0/1 resources dirty, 2 scanned",
			"monitors: monitor delta: 0 resources rebuilt (0 specs)",
		},
		{
			"validate: re-checked 0/0 function scopes",
			"mapping: warm-start: kept 0 instances, placed 0",
			"synthesis: reused 2/3 processors, messages reused, connections rebuilt",
			"safety: scoped: 0 verdicts for 1 touched functions, 1 affected processors",
			"security: scoped: re-checked 0 connections",
			"timing: 0/0 resources dirty, 1 scanned",
			"monitors: monitor delta: 0 resources rebuilt (0 specs)",
		},
	}
	reps := noteScript(t)
	for i := range max(len(reps), len(want)) {
		var g, w []string
		if i < len(reps) {
			g = stageNotes(reps[i])
		}
		if i < len(want) {
			w = want[i]
		}
		if !slices.Equal(g, w) {
			t.Errorf("proposal %d notes:\ngot  %q\nwant %q", i, g, w)
		}
	}
}

// reportColumns names the int fields of Report that
// TestNoteScriptReportsPinned pins, in column order.
var reportColumns = []string{
	"TimingScans", "TimingDirty", "TimingResources", "SecurityChecks",
	"SafetyChecks", "Passes", "PanicsRecovered", "RetriedAnalyses",
}

// Every report of the note script keeps its verdict and every counter:
// the values were recorded before the warm pass stopped building a
// function diff, and the notes are pinned by
// TestStageNotesRenderAsFormatted. A new int field of Report must gain a
// column.
func TestNoteScriptReportsPinned(t *testing.T) {
	rt := reflect.TypeFor[Report]()
	for i := range rt.NumField() {
		if f := rt.Field(i); f.Type.Kind() == reflect.Int && !slices.Contains(reportColumns, f.Name) {
			t.Errorf("Report.%s has no column in reportColumns", f.Name)
		}
	}
	type pin struct {
		accepted   bool
		rejectedAt Stage
		ints       [8]int
	}
	want := []pin{
		{true, "", [8]int{4, 1, 1, 0, 2, 1, 0, 0}},
		{true, "", [8]int{1, 1, 2, 0, 2, 1, 0, 0}},
		{true, "", [8]int{1, 1, 2, 0, 2, 1, 0, 0}},
		{true, "", [8]int{0, 0, 2, 0, 0, 1, 0, 0}},
		{true, "", [8]int{1, 1, 3, 0, 2, 1, 0, 0}},
		{true, "", [8]int{1, 1, 3, 1, 2, 1, 0, 0}},
		{true, "", [8]int{1, 0, 3, 1, 2, 1, 0, 0}},
		{true, "", [8]int{1, 1, 3, 0, 1, 1, 0, 0}},
		{false, StageValidate, [8]int{0, 0, 0, 0, 0, 1, 0, 0}},
		{true, "", [8]int{1, 1, 3, 0, 2, 1, 0, 0}},
		{true, "", [8]int{1, 1, 3, 0, 2, 1, 0, 0}},
		{false, StageTiming, [8]int{4, 3, 3, 1, 9, 2, 0, 0}},
		{true, "", [8]int{2, 1, 1, 0, 2, 1, 0, 0}},
		{true, "", [8]int{2, 2, 2, 0, 4, 1, 0, 0}},
		{true, "", [8]int{4, 3, 3, 1, 4, 1, 0, 0}},
		{false, StageValidate, [8]int{0, 0, 0, 0, 0, 1, 0, 0}},
		{true, "", [8]int{2, 0, 1, 0, 0, 1, 0, 0}},
		{true, "", [8]int{1, 0, 0, 0, 0, 1, 0, 0}},
	}
	reps := noteScript(t)
	if len(reps) != len(want) {
		t.Fatalf("%d reports, %d pins", len(reps), len(want))
	}
	for i, rep := range reps {
		got := pin{accepted: rep.Accepted, rejectedAt: rep.RejectedAt}
		v := reflect.ValueOf(rep).Elem()
		for k, col := range reportColumns {
			got.ints[k] = int(v.FieldByName(col).Int())
		}
		if got != want[i] {
			t.Errorf("proposal %d: got %+v, want %+v (columns %v)", i, got, want[i], reportColumns)
		}
	}
}
