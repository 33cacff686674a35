package mcc

import (
	"maps"
	"testing"

	"repro/internal/model"
)

// assertFnIndex fails when the committed function index, if built,
// differs from a fresh rebuild over the deployed slice.
func assertFnIndex(t *testing.T, m *MCC, step string) {
	t.Helper()
	if m.fnIdx == nil {
		return
	}
	want := make(map[string]int, len(m.deployed.Functions))
	for i := range m.deployed.Functions {
		want[m.deployed.Functions[i].Name] = i
	}
	if !maps.Equal(m.fnIdx, want) {
		t.Fatalf("%s: function index %v, fresh rebuild %v", step, m.fnIdx, want)
	}
}

// The fast path keeps the name->position index exact across in-place
// appends, removals from the middle and the tail, and the revert of a
// rejected removal, instead of dropping it for a platform-sized rebuild.
func TestFnIndexMaintainedAcrossFastPathMutations(t *testing.T) {
	m := robustMCC(t)
	radar := fn("radar", model.ASILB, 20000, 1000, 64)
	radar.Provides = []string{"objects"}
	fusion := fn("fusion", model.QM, 50000, 1000, 64)
	fusion.Requires = []string{"objects"}
	steps := []struct {
		name   string
		c      Change
		accept bool
	}{
		{"append provider", upd(radar), true},
		{"append requirer", upd(fusion), true},
		{"append a0", upd(fn("a0", model.QM, 100000, 1000, 64)), true},
		{"append a1", upd(fn("a1", model.QM, 100000, 1000, 64)), true},
		{"remove from the middle", Change{Remove: "acc"}, true},
		{"rejected removal of a required provider", Change{Remove: "radar"}, false},
		{"remove the tail", Change{Remove: "a1"}, true},
		{"replace in place", upd(fn("a0", model.QM, 100000, 1200, 64)), true},
		{"re-append", upd(fn("a1", model.QM, 100000, 1000, 64)), true},
	}
	for _, st := range steps {
		if !m.fastPathReady() {
			t.Fatalf("%s: fast path not ready", st.name)
		}
		// Build the index so every step exercises its maintenance.
		m.fnIndexOf("")
		if rep := m.propose(st.c); rep.Accepted != st.accept {
			t.Fatalf("%s: accepted=%v at %s (%v), want %v",
				st.name, rep.Accepted, rep.RejectedAt, rep.Findings, st.accept)
		}
		if st.c.Update == nil && m.fnIdx == nil {
			t.Fatalf("%s: removal dropped the function index", st.name)
		}
		assertFnIndex(t, m, st.name)
	}
	if got := m.Deployed().FunctionByName("radar"); got == nil {
		t.Fatal("rejected removal did not restore the provider")
	}
}

// A stream window rollback rewinds the in-place candidate mutations of
// the window; the index it leaves behind (dropped, or rebuilt by the
// serial replay) must still describe the restored slice.
func TestFnIndexAfterStreamWindowRollback(t *testing.T) {
	m := robustMCC(t)
	m.propose(upd(fn("a0", model.QM, 100000, 1000, 64)))
	m.fnIndexOf("")
	assertFnIndex(t, m, "before the window")
	sched := NewStreamScheduler(m, WithStreamWindow(8))
	// Its 5 ms release jitter makes the heavy ASIL-D load miss its
	// implicit deadline wherever it lands: the deferred busy-window
	// verdict fails and the window replays.
	heavy := fn("heavy", model.ASILD, 10000, 5500, 64)
	heavy.Contract.RealTime.JitterUS = 5000
	sched.Run([]Change{
		upd(fn("a1", model.QM, 120000, 1500, 64)),
		upd(heavy),
		upd(fn("a2", model.QM, 140000, 2500, 64)),
	})
	if sched.Stats().Replays == 0 {
		t.Fatal("window did not roll back")
	}
	assertFnIndex(t, m, "after the rollback")
	if rep := m.propose(Change{Remove: "a1"}); !rep.Accepted {
		t.Fatalf("removal after the rollback rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}
	assertFnIndex(t, m, "removal after the rollback")
	if m.Deployed().FunctionByName("heavy") != nil {
		t.Fatal("rolled-back change is still deployed")
	}
}
