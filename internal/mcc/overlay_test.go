package mcc

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/model"
)

// assertOverlayHolds checks that the reused synthesis overlay holds
// exactly what the last warm pass wrote: its touched function (name), the
// rows of the clients it rewired (clients), and the task and resident
// lists of its own affected processors — no entry of an earlier pass.
func assertOverlayHolds(t *testing.T, label string, m *MCC, name string, clients []string) {
	t.Helper()
	over := &m.synth
	if over.name != name {
		t.Errorf("%s: overlay function %q, want %q", label, over.name, name)
	}
	for _, in := range over.insts {
		if in.Function != name {
			t.Errorf("%s: overlay keeps placements of %s from an earlier pass", label, in.Function)
		}
	}
	if got := slices.Sorted(maps.Keys(over.conns)); !slices.Equal(got, clients) {
		t.Errorf("%s: overlay rows of %v, want %v", label, got, clients)
	}
	if len(clients) == 0 && len(over.prov)+len(over.req) > 0 {
		t.Errorf("%s: overlay keeps service lists %v/%v from an earlier pass", label, over.prov, over.req)
	}
	if got := slices.Sorted(maps.Keys(over.tasksOn)); !slices.Equal(got, over.affected) {
		t.Errorf("%s: overlay task lists of %v, affected processors %v", label, got, over.affected)
	}
	if got := slices.Sorted(maps.Keys(over.instsOn)); !slices.Equal(got, over.affected) {
		t.Errorf("%s: overlay resident lists of %v, affected processors %v", label, got, over.affected)
	}
}

// The MCC reuses one synthesis overlay for every warm pass. Across a warm
// attempt rejected into a cold retry, the next proposal, a verified
// stream window and a replayed one, every step must leave a snapshot
// equal to a rebuild and an overlay holding only the last warm pass's
// entries: no rows, task lists or resident lists of an earlier pass may
// survive into a later one, let alone into a commit.
func TestSynthOverlayReusedAcrossPasses(t *testing.T) {
	m, err := New(&model.Platform{Processors: []model.Processor{
		{Name: "only", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		{Name: "qm", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.QM},
	}})
	if err != nil {
		t.Fatal(err)
	}
	srv := fn("srv", model.QM, 50000, 1000, 64)
	srv.Provides = []string{"svc"}
	for _, f := range []model.Function{fn("a", model.ASILD, 10000, 5200, 1), srv} {
		if rep := m.ProposeUpdate(f); !rep.Accepted {
			t.Fatalf("baseline %s rejected: %v", f.Name, rep.Findings)
		}
	}
	// c passes its contract but misses its deadline next to a, the only
	// ASIL-D processor's resident.
	offender := fn("c", model.ASILD, 14000, 5200, 1)

	rep := m.ProposeUpdate(offender)
	if rep.Accepted || rep.RejectedAt != StageTiming || rep.Passes != 2 {
		t.Fatalf("offender decided %v@%s in %d passes, want a timing rejection after a cold retry", rep.Accepted, rep.RejectedAt, rep.Passes)
	}
	assertSnapshotFresh(t, "rejected warm pass and cold retry", m)
	assertOverlayHolds(t, "rejected warm pass and cold retry", m, "c", nil)

	if rep := m.ProposeUpdate(withRequires(fn("cli", model.QM, 60000, 1000, 64), "svc")); !rep.Accepted {
		t.Fatalf("client rejected: %v", rep.Findings)
	}
	assertSnapshotFresh(t, "next proposal", m)
	assertOverlayHolds(t, "next proposal", m, "cli", []string{"cli"})

	sched := NewStreamScheduler(m)
	for _, rep := range sched.Run([]Change{upd(fn("t0", model.QM, 100000, 2000, 64)), upd(fn("t1", model.QM, 120000, 1500, 64))}) {
		if !rep.Accepted {
			t.Fatalf("verified window rejected a change: %v", rep.Findings)
		}
	}
	if st := sched.Stats(); st.Speculated != 2 || st.Replays != 0 {
		t.Fatalf("window stats %+v, want 2 speculated and no replay", st)
	}
	assertSnapshotFresh(t, "verified window", m)
	assertOverlayHolds(t, "verified window", m, "t1", nil)

	reps := sched.Run([]Change{upd(offender), upd(fn("t2", model.QM, 200000, 100, 1))})
	if reps[0].Accepted || !reps[1].Accepted {
		t.Fatalf("replayed window decided %v/%v, want rejected/accepted", reps[0].Accepted, reps[1].Accepted)
	}
	if st := sched.Stats(); st.Replays != 1 {
		t.Fatalf("window stats %+v, want one replay", st)
	}
	assertSnapshotFresh(t, "replayed window", m)
	assertOverlayHolds(t, "replayed window", m, "t2", nil)
}
