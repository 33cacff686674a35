package mcc

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpa"
	"repro/internal/model"
)

// committedJobs lists the committed table's CPA jobs in slot order,
// skipping empty slots.
func committedJobs(m *MCC) []timingJob {
	t := m.snap.res
	out := make([]timingJob, 0, t.loaded)
	for i := 0; i < t.n; i++ {
		if cr := t.get(i); cr.loaded() {
			out = append(out, cr.job)
		}
	}
	return out
}

// resDigest is one (resource, task-set digest) pair of a job list.
type resDigest struct {
	res string
	dig uint64
}

// committedDigests lists the committed table's (resource, task-set
// digest) pairs in table order.
func committedDigests(m *MCC) []resDigest {
	var out []resDigest
	for _, j := range committedJobs(m) {
		out = append(out, resDigest{j.resource, j.digest})
	}
	return out
}

// scanDigests lists the (resource, task-set digest) pairs of a
// from-scratch job scan of the deployed implementation model, in resource
// order.
func scanDigests(m *MCC) []resDigest {
	full := m.scanJobs(m.DeployedImpl())
	var out []resDigest
	for _, j := range full {
		out = append(out, resDigest{j.resource, j.digest})
	}
	return out
}

// lastAccepted returns the newest accepted report in reports, or nil.
func lastAccepted(reports []*Report) *Report {
	for i := len(reports) - 1; i >= 0; i-- {
		if reports[i].Accepted {
			return reports[i]
		}
	}
	return nil
}

// assertOracleParity checks a controller's committed timing state against
// the from-scratch oracle: the table's per-entry job digests equal a full
// rescan of the deployed implementation model, and both last's
// FullTiming() and DeployedMonitors() equal FromScratchTables. last must
// be the controller's newest accepted report.
func assertOracleParity(t *testing.T, label string, m *MCC, last *Report) {
	t.Helper()
	if scan, committed := scanDigests(m), committedDigests(m); !reflect.DeepEqual(scan, committed) {
		t.Fatalf("%s: committed job digests diverge from a full rescan:\nscan      %v\ncommitted %v", label, scan, committed)
	}
	wantTiming, wantMonitors, err := FromScratchTables(m.platform, m.DeployedImpl())
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if last == nil {
		t.Fatalf("%s: no accepted report", label)
	}
	if got := last.FullTiming(); !reflect.DeepEqual(got, wantTiming) {
		t.Fatalf("%s: FullTiming diverges from the oracle:\ngot  %+v\nwant %+v", label, got, wantTiming)
	}
	if got := m.DeployedMonitors(); !reflect.DeepEqual(got, wantMonitors) {
		t.Fatalf("%s: DeployedMonitors diverges from the oracle:\ngot  %+v\nwant %+v", label, got, wantMonitors)
	}
}

// shapePlatform has an ASIL-D anchor processor with the RAM for the
// large functions, a QM-only processor that starts without load, and an
// ASIL-D processor hosting a co-located flow pair, so the bus between
// them starts without messages.
func shapePlatform() *model.Platform {
	return &model.Platform{
		Processors: []model.Processor{
			{Name: "anchor", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 131072, MaxSafety: model.ASILD},
			{Name: "idle", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.QM},
			{Name: "safe", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD},
		},
		Networks: []model.Network{
			{Name: "bus", BitsPerSec: 500_000, Attached: []string{"anchor", "idle", "safe"}, Kind: "can"},
		},
	}
}

// tableResources lists the committed table's resources in table order.
func tableResources(m *MCC) []string {
	var out []string
	for _, j := range committedJobs(m) {
		out = append(out, j.resource)
	}
	return out
}

func TestTimingTableShapeChanges(t *testing.T) {
	// A resource gaining its first load fills its empty committed-table
	// slot, and one losing its last clears its slot: the incremental
	// commit patches both into the table like any other write. Each case
	// runs serially, inside a
	// verified stream window (the optimistic commit stands), and inside a
	// window that a later timing rejection forces to roll back and replay.
	// After every step the committed state must equal the from-scratch
	// oracle and the report must count every committed resource.
	withSafety := func(f model.Function, lvl model.SafetyLevel) model.Function {
		f.Contract.Safety = lvl
		return f
	}
	withRAM := func(f model.Function, ram int64) model.Function {
		f.Contract.Resources.RAMKiB = ram
		return f
	}
	prod := fn("p", model.ASILD, 20000, 2000, 64)
	prod.Provides = []string{"x"}
	cons := fn("c", model.ASILD, 20000, 2000, 64)
	cons.Requires = []string{"x"}
	q := fn("q", model.QM, 50000, 1000, 64)

	type step struct {
		change model.Function
		want   []string // committed resources after the step
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"processor gains its first load", []step{
			{q, []string{"anchor", "idle", "safe"}},
		}},
		{"processor loses its last load", []step{
			{q, []string{"anchor", "idle", "safe"}},
			{withSafety(q, model.ASILD), []string{"anchor", "safe"}},
		}},
		{"network gains its first message then loses its last", []step{
			{withRAM(cons, 8192), []string{"anchor", "safe", "bus"}},
			{cons, []string{"anchor", "safe"}},
		}},
		{"processor and network reshape together", []step{
			{withSafety(cons, model.QM), []string{"anchor", "idle", "safe", "bus"}},
			{cons, []string{"anchor", "safe"}},
		}},
	}
	modes := []struct {
		name string
		// run decides step i's change and returns the reports of every
		// change it proposed.
		run func(t *testing.T, m *MCC, i int, change model.Function) []*Report
	}{
		{"serial", func(t *testing.T, m *MCC, i int, change model.Function) []*Report {
			return []*Report{m.ProposeUpdate(change)}
		}},
		{"window", func(t *testing.T, m *MCC, i int, change model.Function) []*Report {
			// The filler fits only on the anchor (RAM) and barely loads it.
			sched := NewStreamScheduler(m)
			sched.window = 8
			reps := sched.Run([]Change{upd(change), upd(fn(fmt.Sprintf("fill%d", i), model.ASILD, 1_000_000, 10, 8192))})
			if st := sched.Stats(); st.Windows != 1 || st.Replays != 0 || st.Speculated != 2 {
				t.Fatalf("stats = %+v, want one verified window of two changes", st)
			}
			return reps
		}},
		{"window-replay", func(t *testing.T, m *MCC, i int, change model.Function) []*Report {
			// The offender fits only on the anchor (RAM) and misses its
			// deadline next to the anchor's baseline load there.
			sched := NewStreamScheduler(m)
			sched.window = 8
			reps := sched.Run([]Change{upd(change), upd(fn("hog", model.ASILD, 14000, 5200, 8192))})
			if st := sched.Stats(); st.Windows != 1 || st.Replays != 1 {
				t.Fatalf("stats = %+v, want one replayed window", st)
			}
			if reps[1].Accepted || reps[1].RejectedAt != StageTiming {
				t.Fatalf("offender decided %v@%q, want a timing rejection", reps[1].Accepted, reps[1].RejectedAt)
			}
			return reps[:1]
		}},
	}
	for _, tc := range cases {
		for _, mode := range modes {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				m, err := New(shapePlatform())
				if err != nil {
					t.Fatal(err)
				}
				rep := m.ProposeArchitecture(&model.FunctionalArchitecture{
					Functions: []model.Function{fn("a", model.ASILD, 10000, 5200, 65536), prod, cons},
					Flows:     []model.Flow{{From: "p", To: "c", Service: "x", MsgBytes: 8, PeriodUS: 20000}},
				})
				if !rep.Accepted {
					t.Fatalf("baseline rejected: %v (%s)", rep.Findings, rep.RejectedAt)
				}
				if got := tableResources(m); !reflect.DeepEqual(got, []string{"anchor", "safe"}) {
					t.Fatalf("baseline table = %v, want [anchor safe]", got)
				}
				for i, st := range tc.steps {
					reps := mode.run(t, m, i, st.change)
					for _, rep := range reps {
						if !rep.Accepted {
							t.Fatalf("step %d: rejected: %v (%s)", i, rep.Findings, rep.RejectedAt)
						}
					}
					if got := tableResources(m); !reflect.DeepEqual(got, st.want) {
						t.Fatalf("step %d: table = %v, want %v", i, got, st.want)
					}
					label := fmt.Sprintf("step %d", i)
					assertOracleParity(t, label, m, lastAccepted(reps))
					assertSnapshotFresh(t, label, m)
					if got := lastAccepted(reps).TimingResources; got != m.snap.res.loaded {
						t.Fatalf("%s: report counts %d timing resources, table holds %d", label, got, m.snap.res.loaded)
					}
				}
			})
		}
	}
}

// The analyzer keys its memo by the digest a timing job carries instead
// of hashing the task set again, so every job a pass builds — processor
// or network, from scratch or incremental — must carry TaskSetDigest of
// its own tasks.
func TestTimingJobDigestsMatchTaskSets(t *testing.T) {
	m, err := New(shapePlatform())
	if err != nil {
		t.Fatal(err)
	}
	prod := fn("p", model.ASILD, 20000, 2000, 64)
	prod.Provides = []string{"x"}
	cons := fn("c", model.ASILD, 20000, 2000, 64)
	cons.Requires = []string{"x"}
	moved := cons
	moved.Contract.Resources.RAMKiB = 8192 // only the anchor holds it: the flow now crosses the bus
	steps := []struct {
		label   string
		propose func() *Report
	}{
		{"from-scratch deploy", func() *Report {
			return m.ProposeArchitecture(&model.FunctionalArchitecture{
				Functions: []model.Function{fn("a", model.ASILD, 10000, 5200, 65536), prod, cons},
				Flows:     []model.Flow{{From: "p", To: "c", Service: "x", MsgBytes: 8, PeriodUS: 20000}},
			})
		}},
		{"incremental message rebuild", func() *Report { return m.ProposeUpdate(moved) }},
		{"incremental update", func() *Report { return m.ProposeUpdate(fn("q", model.QM, 50000, 1000, 64)) }},
	}
	for _, st := range steps {
		if rep := st.propose(); !rep.Accepted {
			t.Fatalf("%s rejected at %s: %v", st.label, rep.RejectedAt, rep.Findings)
		}
		if len(m.att.jobs) == 0 {
			t.Fatalf("%s built no timing job", st.label)
		}
		for _, j := range slices.Concat(m.att.jobs, committedJobs(m)) {
			if want := cpa.TaskSetDigest(j.tasks); j.digest != want {
				t.Errorf("%s: job of %s carries digest %x, its tasks digest to %x", st.label, j.resource, j.digest, want)
			}
		}
	}
	if got := tableResources(m); !reflect.DeepEqual(got, []string{"anchor", "idle", "safe", "bus"}) {
		t.Fatalf("table = %v, want a network job among the processors", got)
	}
}
