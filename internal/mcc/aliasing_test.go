package mcc

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// Regression tests for the report/committed-state aliasing bugs the
// delta-report contract fixed: the timing stage's clean()-splice path
// used to hand committed TimingResult entries to the report, and the
// stream scheduler's deferred-verification fill wrote analysis results
// into both the report and the committed cache through the same slice.
// Mutating a returned report then corrupted the controller's committed
// WCRT tables. The tests mutate every reachable report surface
// post-return and assert the committed state is bit-identical.

// committedTimingSnapshot deep-copies the controller's committed timing
// state: the raw table entries (CPA jobs and stored WCRT tables, read in
// place, so a report aliasing their storage would show up as a change)
// and the materialized committed table.
func committedTimingSnapshot(m *MCC) ([]committedRes, []TimingResult) {
	t := m.snap.res
	entries := make([]committedRes, 0, t.n)
	for i := 0; i < t.n; i++ {
		cr := *t.get(i)
		cr.job.tasks = append(cr.job.tasks[:0:0], cr.job.tasks...)
		cr.res = cloneTimingSnapshot(cr.res)
		entries = append(entries, cr)
	}
	return entries, t.materializeTiming()
}

func cloneTimingSnapshot(tr TimingResult) TimingResult {
	out := TimingResult{Resource: tr.Resource}
	if tr.Results != nil {
		out.Results = append(out.Results[:0:0], tr.Results...)
	}
	return out
}

// vandalize writes through every surface of a returned report.
func vandalize(rep *Report) {
	for i := range rep.TimingDelta {
		rep.TimingDelta[i].Resource = "vandal"
		for j := range rep.TimingDelta[i].Results {
			rep.TimingDelta[i].Results[j].Name = "vandal"
			rep.TimingDelta[i].Results[j].WCRTUS = -1
			rep.TimingDelta[i].Results[j].Schedulable = false
		}
	}
	for i := range rep.MonitorDelta {
		rep.MonitorDelta[i].Target = "vandal"
		rep.MonitorDelta[i].PeriodUS = -1
	}
	ft := rep.FullTiming()
	for i := range ft {
		ft[i].Resource = "vandal"
		for j := range ft[i].Results {
			ft[i].Results[j].WCRTUS = -7
		}
	}
	fm := rep.FullMonitors()
	for i := range fm {
		fm[i].Target = "vandal"
	}
}

// assertCommittedUntouched compares the committed timing state against a
// pre-mutation snapshot.
func assertCommittedUntouched(t *testing.T, m *MCC, entries []committedRes, table []TimingResult) {
	t.Helper()
	gotEntries, gotTable := committedTimingSnapshot(m)
	if !reflect.DeepEqual(gotEntries, entries) {
		t.Fatalf("report mutation reached the committed table entries:\nwas %+v\nnow %+v", entries, gotEntries)
	}
	if !reflect.DeepEqual(gotTable, table) {
		t.Fatalf("report mutation reached the committed resource table:\nwas %+v\nnow %+v", table, gotTable)
	}
}

func TestReportDeltaDoesNotAliasCommittedState(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"serial", []Option{WithoutIncremental()}},
		{"incremental", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(testPlatform(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			deployFlowBaseline(t, m)

			// An update touching one function: on the incremental engine
			// this exercises the clean()-splice path (untouched resources
			// reuse committed tables).
			rep := m.ProposeUpdate(fn("telemetry", model.QM, 100000, 2000, 64))
			if !rep.Accepted {
				t.Fatalf("update rejected: %v", rep.Findings)
			}
			entries, table := committedTimingSnapshot(m)
			vandalize(rep)
			assertCommittedUntouched(t, m, entries, table)

			// A clean re-proposal must still decide from uncorrupted
			// tables and carry an empty delta.
			rep2 := m.ProposeUpdate(fn("telemetry", model.QM, 100000, 2000, 64))
			if !rep2.Accepted {
				t.Fatalf("clean re-proposal rejected after report mutation: %v", rep2.Findings)
			}
			vandalize(rep2)
			assertCommittedUntouched(t, m, entries, table)
		})
	}
}

func TestStreamReportDoesNotAliasCommittedState(t *testing.T) {
	// The stream scheduler's deferred-verification path fills accepted
	// reports with analysis results after the optimistic commit — the
	// second historical aliasing site.
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	deployFlowBaseline(t, m)

	sched := NewStreamScheduler(m)
	reports := sched.Run([]Change{
		upd(fn("telemetry", model.QM, 100000, 2000, 64)),
		upd(fn("diag", model.QM, 120000, 1500, 64)),
		upd(fn("logger", model.QM, 140000, 2500, 64)),
	})
	for i, rep := range reports {
		if !rep.Accepted {
			t.Fatalf("change %d rejected: %v", i, rep.Findings)
		}
	}
	entries, table := committedTimingSnapshot(m)
	for _, rep := range reports {
		vandalize(rep)
	}
	assertCommittedUntouched(t, m, entries, table)

	// The next window decides from uncorrupted state.
	more := NewStreamScheduler(m).Run([]Change{upd(fn("extra", model.QM, 160000, 1000, 64))})
	if !more[0].Accepted {
		t.Fatalf("post-mutation window rejected: %v", more[0].Findings)
	}
}
