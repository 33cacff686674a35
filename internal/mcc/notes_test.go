package mcc

import (
	"fmt"
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
// a built-in stage can leave, and returns each proposal's rendered notes.
func noteScript(t *testing.T) [][]string {
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
	var out [][]string
	for _, c := range changes {
		out = append(out, stageNotes(m.integrateChangeCtx(t.Context(), c)))
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
		out = append(out, stageNotes(m.ProposeUpdate(f)))
	}
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
	}
	got := noteScript(t)
	for i := range max(len(got), len(want)) {
		var g, w []string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if !slices.Equal(g, w) {
			t.Errorf("proposal %d notes:\ngot  %q\nwant %q", i, g, w)
		}
	}
}
