package mcc

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/model"
)

// rollbackCase is one window that a stream scheduler rolls back: the
// changes in front of the deadline-missing heavy add that ends it, decided
// on a controller built by platform and deploy.
type rollbackCase struct {
	name     string
	platform func() *model.Platform
	deploy   func(*testing.T, *MCC)
	window   []Change
	opts     func() []Option
	// cold marks a window that holds a from-scratch commit: a change
	// whose warm placement is infeasible is placed by a full best fit and
	// committed by commitFull inside the window.
	cold bool
	// check, when set, holds what the row adds to the common checks.
	check func(*testing.T, *MCC)
}

// deployFns proposes fns serially, each of which must be accepted.
func deployFns(fns ...model.Function) func(*testing.T, *MCC) {
	return func(t *testing.T, m *MCC) {
		t.Helper()
		for _, f := range fns {
			if rep := m.ProposeUpdate(f); !rep.Accepted {
				t.Fatalf("baseline %s rejected at %s: %v", f.Name, rep.RejectedAt, rep.Findings)
			}
		}
	}
}

// bumped is f with its WCET raised by d µs.
func bumped(f model.Function, d int64) model.Function {
	f.Contract.RealTime.WCETUS += d
	return f
}

// A window rollback writes the undo record back into the start
// snapshot's containers and re-derives the capacity index from them.
// Every row runs one window whose last change, a heavy add that misses
// its deadline wherever it lands, fails the deferred verification, so the
// window rolls back and replays. The controller must then hold exactly
// what a serial twin commits, and its snapshot must equal a rebuild.
func TestStreamWindowRollbackCases(t *testing.T) {
	heavy := fn("heavy", model.ASILD, 10000, 5500, 64)
	heavy.Contract.RealTime.JitterUS = 5000 // WCRT >= 10500 > period on any core
	robust := deployFns(robustBaseline()...)
	srv := fn("srv", model.QM, 50000, 1000, 64)
	srv.Provides = []string{"svc"}
	cli := withRequires(fn("cli", model.QM, 60000, 1000, 64), "svc")
	asrv := fn("asrv", model.QM, 50000, 1000, 64) // elected over srv
	asrv.Provides = []string{"svc"}

	var tt []rollbackCase

	tt = append(tt, rollbackCase{
		name:   "updates only",
		deploy: robust,
		window: []Change{
			upd(bumped(robustBaseline()[0], 10)),
			upd(bumped(robustBaseline()[1], 20)),
			upd(bumped(robustBaseline()[2], 30)),
			upd(bumped(robustBaseline()[0], 40)),
		},
	})

	tt = append(tt, rollbackCase{
		name:   "add and removal of the same name",
		deploy: robust,
		window: []Change{
			upd(fn("t0", model.QM, 100000, 2000, 64)),
			{Remove: "t0"},
			upd(fn("t1", model.QM, 120000, 1500, 64)),
		},
	})

	tt = append(tt, rollbackCase{
		name:   "flow-cutting removal",
		deploy: deployFlowBaseline,
		window: []Change{
			{Remove: "acc"},
			upd(fn("t0", model.QM, 100000, 2000, 64)),
		},
		check: func(t *testing.T, m *MCC) {
			if m.Deployed().FunctionByName("acc") != nil || len(m.Deployed().Flows) != 0 {
				t.Errorf("the replay did not cut the flow: %+v", m.Deployed())
			}
		},
	})

	tt = append(tt, rollbackCase{
		name:   "provider/requirer rewiring",
		deploy: deployFns(append(robustBaseline(), srv, cli)...),
		window: []Change{
			upd(asrv), // rewires cli to the new elected provider
			upd(withRequires(fn("cli2", model.QM, 60000, 1000, 64), "svc")),
			{Remove: "srv"},
		},
	})

	// p0 and p1 hold x and y with 96 KiB free each, so z (192 KiB) has no
	// warm placement; a full best fit moves y next to w on p2 and puts z
	// on p1. The update of y after that commit writes the fresh
	// snapshot's entry of y, which the window start holds on p1.
	tt = append(tt, rollbackCase{
		name: "cold retry accepted mid-window",
		platform: func() *model.Platform {
			return &model.Platform{Processors: []model.Processor{
				{Name: "p0", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 192, MaxSafety: model.ASILD},
				{Name: "p1", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 192, MaxSafety: model.ASILD},
				{Name: "p2", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 128, MaxSafety: model.ASILD},
			}}
		},
		deploy: deployFns(fn("x", model.QM, 10000, 3000, 96), fn("y", model.QM, 10000, 1000, 96)),
		window: []Change{
			upd(fn("w", model.QM, 100000, 1000, 32)),
			upd(fn("z", model.QM, 10000, 2000, 192)),
			upd(bumped(fn("y", model.QM, 10000, 1000, 96), 100)),
		},
		cold: true,
	})

	tt = append(tt, rollbackCase{
		name:   "journal.undo purge after the rollback",
		deploy: robust,
		window: []Change{
			upd(fn("t0", model.QM, 100000, 2000, 64)),
			upd(fn("t1", model.QM, 120000, 1500, 64)),
		},
		opts: func() []Option {
			return []Option{WithFaultInjector(faultinject.New(13,
				faultinject.Rule{Stage: "journal.undo", Mode: faultinject.ModeError, Count: 1}))}
		},
		check: func(t *testing.T, m *MCC) {
			if fired := m.inject.Fired(); fired["journal.undo|error"] == 0 {
				t.Errorf("journal undo fault never fired: %v", fired)
			}
			if m.quarantined {
				t.Error("quarantine not lifted by the replay's accepted commit")
			}
		},
	})

	for _, tc := range tt {
		t.Run(tc.name, func(t *testing.T) {
			if tc.platform == nil {
				tc.platform = testPlatform
			}
			var opts []Option
			if tc.opts != nil {
				opts = tc.opts()
			}
			changes := append(tc.window[:len(tc.window):len(tc.window)], upd(heavy))

			twin, err := New(tc.platform())
			if err != nil {
				t.Fatal(err)
			}
			tc.deploy(t, twin)
			var want []*Report
			for _, c := range changes {
				want = append(want, twin.integrateChangeCtx(context.Background(), c))
			}

			m, err := New(tc.platform(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			tc.deploy(t, m)
			// The replay re-decides the window from its start and rewrites
			// much of what a faulty rollback leaves behind, so the snapshot
			// is also held to the start where the replay's first stage
			// begins, before anything is written again.
			start := snapshotView(m.snap)
			var rolledBack map[string]any
			cold, optimistic, replaying := 0, false, false
			m.onStage = func(rep *Report) {
				switch n := len(rep.Stages); {
				case m.deferChecks:
					optimistic = true
					// Before the commit stage of a from-scratch pass.
					if !m.att.warm && n > 0 && rep.Stages[n-1].Stage == StageMonitors {
						cold++
					}
				case optimistic && !replaying:
					// A purged snapshot has no start to compare.
					if replaying = true; m.snap.warm {
						rolledBack = snapshotView(m.snap)
					}
				}
			}
			sched := NewStreamScheduler(m)
			got := sched.Run(changes)
			m.onStage = nil

			for i := range want {
				if got[i].Accepted != want[i].Accepted || got[i].RejectedAt != want[i].RejectedAt {
					t.Errorf("change %d (%s): stream decided %v@%q, serial %v@%q",
						i, changes[i], got[i].Accepted, got[i].RejectedAt, want[i].Accepted, want[i].RejectedAt)
				}
			}
			if last := got[len(got)-1]; last.Accepted {
				t.Fatal("the heavy add was accepted")
			}
			if st := sched.Stats(); st.Windows != 1 || st.Replays != 1 {
				t.Fatalf("stats %+v, want one window, rolled back", st)
			}
			if (cold > 0) != tc.cold {
				t.Fatalf("%d from-scratch commits inside the window, want them: %v", cold, tc.cold)
			}
			for key := range rolledBack {
				if !reflect.DeepEqual(rolledBack[key], start[key]) {
					t.Errorf("snapshot field %q after the rollback diverges from the window start:\nrolled back %+v\nstart       %+v", key, rolledBack[key], start[key])
				}
			}
			if !reflect.DeepEqual(m.Deployed(), twin.Deployed()) {
				t.Errorf("Deployed() diverges from the serial twin's:\n%+v\n%+v", m.Deployed(), twin.Deployed())
			}
			if !reflect.DeepEqual(m.DeployedImpl(), twin.DeployedImpl()) {
				t.Errorf("DeployedImpl() diverges from the serial twin's:\n%+v\n%+v", m.DeployedImpl(), twin.DeployedImpl())
			}
			if !reflect.DeepEqual(m.DeployedMonitors(), twin.DeployedMonitors()) {
				t.Errorf("DeployedMonitors() diverges from the serial twin's:\n%+v\n%+v", m.DeployedMonitors(), twin.DeployedMonitors())
			}
			if !reflect.DeepEqual(m.CommittedLoads(), twin.CommittedLoads()) {
				t.Errorf("CommittedLoads() diverges from the serial twin's:\n%v\n%v", m.CommittedLoads(), twin.CommittedLoads())
			}
			assertSnapshotFresh(t, tc.name, m)
			if tc.check != nil {
				tc.check(t, m)
			}
		})
	}
}
