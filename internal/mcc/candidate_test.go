package mcc

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
)

// assertDeployed holds the committed architecture, function order and
// flows included, to want: both the memo Deployed returns and a rebuild
// from the snapshot's ranked entries, so a commit that installs a whole
// candidate cannot hide a rank that disagrees with it. The snapshot must
// also equal a rebuild of itself.
func assertDeployed(t *testing.T, step string, m *MCC, want *model.FunctionalArchitecture) {
	t.Helper()
	if got := m.Deployed(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: deployed architecture\n%+v\nwant %+v", step, got, want)
	}
	if m.warm() {
		memo := m.snap
		cp := *memo
		cp.fa = nil
		m.snap = &cp
		rebuilt := m.Deployed()
		m.snap = memo
		if !reflect.DeepEqual(rebuilt, want) {
			t.Fatalf("%s: architecture rebuilt in rank order\n%+v\nwant %+v", step, rebuilt, want)
		}
	}
	assertSnapshotFresh(t, step, m)
}

type archStep struct {
	name   string
	c      Change
	accept bool
}

// runArchSteps proposes every step on m and on the reference twin ref
// and holds m's committed architecture to ref's after each one. Every
// step of m runs on the change-driven fast path.
func runArchSteps(t *testing.T, m, ref *MCC, steps []archStep) {
	t.Helper()
	for _, st := range steps {
		if !m.fastPathReady() {
			t.Fatalf("%s: fast path not ready", st.name)
		}
		for _, c := range []*MCC{m, ref} {
			if rep := c.integrateChangeCtx(context.Background(), st.c); rep.Accepted != st.accept {
				t.Fatalf("%s: accepted=%v at %s (%v), want %v",
					st.name, rep.Accepted, rep.RejectedAt, rep.Findings, st.accept)
			}
		}
		assertDeployed(t, st.name, m, ref.Deployed())
	}
}

// The fast path decides a change against the snapshot without writing
// it, so appends, removals from the middle and the tail, a rejected
// removal and replacements leave exactly the architecture — order
// included — a from-scratch twin fed the same changes commits.
func TestDeployedArchitectureAcrossFastPathChanges(t *testing.T) {
	m, ref := robustMCC(t), robustMCC(t, WithoutIncremental())
	radar := fn("radar", model.ASILB, 20000, 1000, 64)
	radar.Provides = []string{"objects"}
	fusion := fn("fusion", model.QM, 50000, 1000, 64)
	fusion.Requires = []string{"objects"}
	runArchSteps(t, m, ref, []archStep{
		{"append provider", upd(radar), true},
		{"append requirer", upd(fusion), true},
		{"append a0", upd(fn("a0", model.QM, 100000, 1000, 64)), true},
		{"append a1", upd(fn("a1", model.QM, 100000, 1000, 64)), true},
		{"remove from the middle", Change{Remove: "acc"}, true},
		{"rejected removal of a required provider", Change{Remove: "radar"}, false},
		{"remove the tail", Change{Remove: "a1"}, true},
		{"replace in place", upd(fn("a0", model.QM, 100000, 1200, 64)), true},
		{"re-append", upd(fn("a1", model.QM, 100000, 1000, 64)), true},
		{"replace in the middle", upd(fn("infotainment", model.QM, 50000, 9000, 1024)), true},
	})
	if m.Deployed().FunctionByName("radar") == nil {
		t.Fatal("rejected removal dropped the provider")
	}
}

// A stream window rollback restores the start snapshot pointer, the
// architecture with it; the replayed window and a later removal must
// leave what a serial twin commits.
func TestDeployedArchitectureAfterStreamWindowRollback(t *testing.T) {
	m, ref := robustMCC(t), robustMCC(t)
	a0 := upd(fn("a0", model.QM, 100000, 1000, 64))
	m.integrateChangeCtx(context.Background(), a0)
	ref.integrateChangeCtx(context.Background(), a0)
	assertDeployed(t, "before the window", m, ref.Deployed())
	// Its 5 ms release jitter makes the heavy ASIL-D load miss its
	// implicit deadline wherever it lands: the deferred busy-window
	// verdict fails and the window replays.
	heavy := fn("heavy", model.ASILD, 10000, 5500, 64)
	heavy.Contract.RealTime.JitterUS = 5000
	window := []Change{
		upd(fn("a1", model.QM, 120000, 1500, 64)),
		upd(heavy),
		upd(fn("a2", model.QM, 140000, 2500, 64)),
	}
	sched := NewStreamScheduler(m)
	sched.window = 8
	sched.Run(window)
	if sched.Stats().Replays == 0 {
		t.Fatal("window did not roll back")
	}
	for _, c := range window {
		ref.integrateChangeCtx(context.Background(), c)
	}
	assertDeployed(t, "after the rollback", m, ref.Deployed())
	runArchSteps(t, m, ref, []archStep{{"removal after the rollback", Change{Remove: "a1"}, true}})
	if m.Deployed().FunctionByName("heavy") != nil {
		t.Fatal("rolled-back change is still deployed")
	}
}

// A warm ProposeArchitecture may reorder the committed functions and add
// several at once; its commit re-ranks the snapshot's entries, so the
// fast-path adds and removals after it — a flow-cutting removal among
// them — keep the clone path's order and flows.
func TestDeployedArchitectureAfterReorderedProposeArchitecture(t *testing.T) {
	m, ref := robustMCC(t), robustMCC(t, WithoutIncremental())
	radar := fn("radar", model.ASILB, 20000, 1000, 64)
	radar.Provides = []string{"objects"}
	fusion := fn("fusion", model.QM, 50000, 1000, 64)
	fusion.Requires = []string{"objects"}
	fa := m.Deployed().Clone()
	slices.Reverse(fa.Functions)
	fa.Functions = slices.Insert(fa.Functions, 1, radar, fn("mid", model.QM, 100000, 1000, 64), fusion)
	fa.Flows = []model.Flow{{From: "radar", To: "fusion", Service: "objects", MsgBytes: 8, PeriodUS: 20000}}
	for _, c := range []*MCC{m, ref} {
		if rep := c.ProposeArchitecture(fa); !rep.Accepted {
			t.Fatalf("reordered architecture rejected at %s: %v", rep.RejectedAt, rep.Findings)
		}
	}
	assertDeployed(t, "reordered architecture", m, ref.Deployed())
	runArchSteps(t, m, ref, []archStep{
		{"append after the reorder", upd(fn("late", model.QM, 100000, 1000, 64)), true},
		{"remove from the middle", Change{Remove: "mid"}, true},
		{"replace in place", upd(fn("brake", model.ASILD, 5000, 600, 128)), true},
		{"flow-cutting removal", Change{Remove: "fusion"}, true},
		{"re-append", upd(fn("mid", model.QM, 100000, 1000, 64)), true},
	})
	if len(m.Deployed().Flows) != 0 {
		t.Fatalf("flow-cutting removal kept flows %v", m.Deployed().Flows)
	}
}
