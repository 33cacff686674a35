package mcc

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"weak"

	"repro/internal/model"
)

// --- diff-proportional timing-job construction ------------------------------

func deployFlowBaseline(t *testing.T, m *MCC) {
	t.Helper()
	prod := fn("radar", model.ASILD, 20000, 2000, 512)
	prod.Provides = []string{"objects"}
	cons := fn("acc", model.ASILD, 20000, 2000, 512)
	cons.Requires = []string{"objects"}
	fa := &model.FunctionalArchitecture{
		Functions: []model.Function{prod, cons, fn("infotainment", model.QM, 50000, 10000, 1024)},
		Flows:     []model.Flow{{From: "radar", To: "acc", Service: "objects", MsgBytes: 8, PeriodUS: 20000}},
	}
	if rep := m.ProposeArchitecture(fa); !rep.Accepted {
		t.Fatalf("baseline rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
}

func TestTimingJobsCleanProposalZeroScans(t *testing.T) {
	// A committed function proposed unchanged (empty diff) touches no
	// resource: the timing stage must splice every cached job and perform
	// zero TasksOn/MessagesOn scans. A whole candidate decides on the
	// from-scratch pass, which scans every resource; the decision-function
	// laws hold its re-proposal of Deployed() to a no-op.
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	deployFlowBaseline(t, m)

	for _, f := range m.Deployed().Functions {
		rep := m.ProposeUpdate(f)
		if !rep.Accepted {
			t.Fatalf("no-op proposal of %s rejected: %v (%s)", f.Name, rep.Findings, rep.RejectedAt)
		}
		if rep.TimingScans != 0 {
			t.Fatalf("clean proposal of %s scanned %d resources, want 0", f.Name, rep.TimingScans)
		}
		if rep.TimingDirty != 0 {
			t.Fatalf("clean proposal of %s analyzed %d resources, want 0", f.Name, rep.TimingDirty)
		}
		if rep.TimingResources == 0 {
			t.Fatal("no timing coverage recorded")
		}
	}
}

func TestTimingJobsScansOnlyAffectedResources(t *testing.T) {
	// A serviceless, flowless addition lands on exactly one processor and
	// leaves the message list untouched: one scan, everything else
	// spliced from the deployed job cache.
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	deployFlowBaseline(t, m)

	rep := m.ProposeUpdate(fn("telemetry", model.QM, 100000, 2000, 64))
	if !rep.Accepted {
		t.Fatalf("telemetry rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
	if rep.TimingScans != 1 {
		t.Fatalf("one-processor addition scanned %d resources, want 1", rep.TimingScans)
	}
	tr := rep.StageTraceFor(StageTiming)
	if tr == nil || !strings.Contains(tr.Note(), "1 scanned") {
		t.Fatalf("timing trace = %+v, want scan telemetry", tr)
	}
}

func TestTimingJobsIncrementalMatchesFullScan(t *testing.T) {
	// After any accepted change, the spliced job set must be
	// digest-identical to a from-scratch scan of the deployed model —
	// the splice may never serve a stale task set.
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	deployFlowBaseline(t, m)

	updates := []model.Function{
		fn("telemetry", model.QM, 100000, 2000, 64),
		withRequires(fn("acc", model.ASILD, 20000, 2500, 512), "objects"), // update a flow endpoint
		fn("logger", model.QM, 200000, 1000, 32),
	}
	for _, f := range updates {
		if rep := m.ProposeUpdate(f); !rep.Accepted {
			t.Fatalf("%s rejected: %v (%s)", f.Name, rep.Findings, rep.RejectedAt)
		}
		if fromScan, committed := scanDigests(m), committedDigests(m); !reflect.DeepEqual(fromScan, committed) {
			t.Fatalf("after %s: committed jobs diverge from full scan:\nscan      %v\ncommitted %v",
				f.Name, fromScan, committed)
		}
	}
}

// --- incremental monitor planning -------------------------------------------

func TestMonitorSpliceMatchesFullPlan(t *testing.T) {
	// Across additions, updates of flow endpoints, and removals, the
	// spliced monitor plan must be element-for-element identical to the
	// from-scratch plan over the same implementation model.
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	deployFlowBaseline(t, m)

	steps := []struct {
		name   string
		run    func() *Report
		splice bool
	}{
		{"add telemetry", func() *Report { return m.ProposeUpdate(fn("telemetry", model.QM, 100000, 2000, 64)) }, true},
		{"update acc", func() *Report {
			return m.ProposeUpdate(withRequires(fn("acc", model.ASILD, 20000, 2500, 512), "objects"))
		}, true},
		{"remove infotainment", func() *Report { return m.ProposeRemoval("infotainment") }, true},
	}
	for _, step := range steps {
		rep := step.run()
		if !rep.Accepted {
			t.Fatalf("%s rejected: %v (%s)", step.name, rep.Findings, rep.RejectedAt)
		}
		want := m.planMonitors(m.DeployedImpl())
		if got := rep.FullMonitors(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: materialized plan diverges from full plan:\nmaterialized %+v\nfull         %+v",
				step.name, got, want)
		}
		if tr := rep.StageTraceFor(StageMonitors); step.splice && (tr == nil || !strings.Contains(tr.Note(), "monitor delta")) {
			t.Fatalf("%s: monitor trace = %+v, want delta telemetry", step.name, tr)
		}
	}
}

func withRequires(f model.Function, svcs ...string) model.Function {
	f.Requires = append(f.Requires, svcs...)
	return f
}

func TestMonitorPlanUntouchedByRejection(t *testing.T) {
	// A rejected proposal must leave the deployed monitor plan (and its
	// splice caches) exactly as committed — the monitor rollback
	// invariant.
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	deployFlowBaseline(t, m)
	before := append([]MonitorSpec(nil), m.DeployedMonitors()...)

	rep := m.ProposeUpdate(fn("broken", model.QM, 1000, 5000, 64)) // WCET > deadline
	if rep.Accepted {
		t.Fatal("broken contract accepted")
	}
	if !reflect.DeepEqual(m.DeployedMonitors(), before) {
		t.Fatalf("rejection changed the deployed monitor plan:\nwas %+v\nnow %+v", before, m.DeployedMonitors())
	}

	// A feasible follow-up still splices against the intact plan.
	rep = m.ProposeUpdate(fn("telemetry", model.QM, 100000, 2000, 64))
	if !rep.Accepted {
		t.Fatalf("post-rejection proposal rejected: %v", rep.Findings)
	}
	if want := m.planMonitors(m.DeployedImpl()); !reflect.DeepEqual(rep.FullMonitors(), want) {
		t.Fatalf("post-rejection monitor plan diverges from full plan")
	}
}

// --- stream scheduler --------------------------------------------------------

// streamParity runs the same change stream through a serial MCC and a
// stream scheduler and asserts identical decisions, findings, and final
// deployed state.
func streamParity(t *testing.T, p *model.Platform, baseline []model.Function, changes []Change, window int) (*StreamScheduler, []*Report) {
	t.Helper()
	mkMCC := func() *MCC {
		m, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range baseline {
			if rep := m.ProposeUpdate(f); !rep.Accepted {
				t.Fatalf("baseline %s rejected: %v", f.Name, rep.Findings)
			}
		}
		return m
	}

	serial := mkMCC()
	var want []*Report
	for _, c := range changes {
		want = append(want, serial.integrateChangeCtx(context.Background(), c))
	}

	streamed := mkMCC()
	sched := NewStreamScheduler(streamed)
	sched.window = window
	got := sched.Run(changes)

	if len(got) != len(want) {
		t.Fatalf("stream returned %d reports for %d changes", len(got), len(changes))
	}
	for i := range want {
		if got[i].Accepted != want[i].Accepted || got[i].RejectedAt != want[i].RejectedAt {
			t.Fatalf("change %d (%s): stream decided %v@%q, serial %v@%q",
				i, changes[i], got[i].Accepted, got[i].RejectedAt, want[i].Accepted, want[i].RejectedAt)
		}
		if !reflect.DeepEqual(got[i].Findings, want[i].Findings) {
			t.Fatalf("change %d findings diverge:\nstream %v\nserial %v", i, got[i].Findings, want[i].Findings)
		}
	}
	if !reflect.DeepEqual(streamed.Deployed(), serial.Deployed()) {
		t.Fatal("final deployed architectures diverge")
	}
	if !reflect.DeepEqual(streamed.DeployedImpl().Tasks, serial.DeployedImpl().Tasks) {
		t.Fatal("final task sets diverge")
	}
	if !reflect.DeepEqual(committedDigests(streamed), committedDigests(serial)) {
		t.Fatal("final timing digests diverge")
	}
	if !reflect.DeepEqual(streamed.DeployedMonitors(), serial.DeployedMonitors()) {
		t.Fatal("final monitor plans diverge")
	}
	return sched, got
}

func upd(f model.Function) Change { return Change{Update: &f} }

func TestStreamSchedulerParityFeasibleStream(t *testing.T) {
	// Independent feasible additions: one optimistic window, everything
	// speculated, zero replays, decisions identical to serial.
	changes := []Change{
		upd(fn("t0", model.QM, 100000, 2000, 64)),
		upd(fn("t1", model.QM, 120000, 1500, 64)),
		upd(fn("t2", model.QM, 140000, 2500, 64)),
		upd(fn("t3", model.QM, 160000, 1000, 64)),
	}
	sched, _ := streamParity(t, testPlatform(), []model.Function{fn("base", model.QM, 50000, 5000, 256)}, changes, defaultStreamWindow)
	st := sched.Stats()
	if st.Replays != 0 || st.Speculated != len(changes) {
		t.Fatalf("stats = %+v, want %d speculated, 0 replays", st, len(changes))
	}
	if st.Prefetched == 0 {
		t.Fatalf("stats = %+v, want prefetched analyses", st)
	}
}

func TestStreamSchedulerParityWithValidationRejects(t *testing.T) {
	// Broken contracts interleaved with feasible changes are rejected
	// inside the optimistic pass without tainting the window.
	changes := []Change{
		upd(fn("t0", model.QM, 100000, 2000, 64)),
		upd(fn("bad", model.QM, 1000, 5000, 64)), // WCET > deadline
		upd(fn("t1", model.QM, 120000, 1500, 64)),
	}
	sched, got := streamParity(t, testPlatform(), nil, changes, defaultStreamWindow)
	if got[1].Accepted || got[1].RejectedAt != StageValidate {
		t.Fatalf("broken contract decided %v@%q", got[1].Accepted, got[1].RejectedAt)
	}
	if st := sched.Stats(); st.Replays != 0 {
		t.Fatalf("validation reject caused a replay: %+v", st)
	}
}

func TestStreamSchedulerReplayOnTimingReject(t *testing.T) {
	// An optimistically accepted change that fails its deferred
	// busy-window verdict taints the window: the scheduler must roll back
	// and replay serially, ending with decisions identical to serial —
	// including the changes after the offender in the same window.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "only", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		},
	}
	baseline := []model.Function{fn("a", model.ASILD, 10000, 5200, 1)}
	changes := []Change{
		upd(fn("c", model.ASILD, 14000, 5200, 1)), // passes contracts, misses deadline next to a
		upd(fn("t", model.QM, 200000, 100, 1)),    // feasible, evaluated after the offender
	}
	sched, got := streamParity(t, p, baseline, changes, defaultStreamWindow)
	if got[0].Accepted || got[0].RejectedAt != StageTiming {
		t.Fatalf("offender decided %v@%q, want timing rejection", got[0].Accepted, got[0].RejectedAt)
	}
	if !got[1].Accepted {
		t.Fatalf("feasible follow-up rejected: %v", got[1].Findings)
	}
	if st := sched.Stats(); st.Replays != 1 {
		t.Fatalf("stats = %+v, want exactly one replay", st)
	}
}

func TestStreamSchedulerInlineSafetyRejectWithoutReplay(t *testing.T) {
	// A fail-operational function that can only be deployed once passes
	// mapping but fails the safety check. The safety stage decides inline
	// during the optimistic pass — diff-scoped on a warm pass, from
	// scratch on a cold one — so nothing is optimistically committed for
	// it and the window needs no replay, while the decision stays exactly
	// the serial one.
	failop := fn("failop", model.ASILD, 40000, 1500, 128)
	failop.Contract.FailOperational = true // Replicas stays 1: redundancy finding
	changes := []Change{
		upd(fn("t0", model.QM, 100000, 2000, 64)),
		upd(failop),
		upd(fn("t1", model.QM, 120000, 1500, 64)),
	}
	sched, got := streamParity(t, testPlatform(), nil, changes, defaultStreamWindow)
	if got[1].Accepted || got[1].RejectedAt != StageSafety {
		t.Fatalf("failop decided %v@%q, want safety rejection", got[1].Accepted, got[1].RejectedAt)
	}
	if got[1].SafetyChecks == 0 {
		t.Fatalf("safety rejection recorded no SafetyChecks telemetry")
	}
	if st := sched.Stats(); st.Replays != 0 {
		t.Fatalf("stats = %+v, want zero replays (safety decides inline)", st)
	}
}

func TestStreamSchedulerInlineSecurityRejectWithoutReplay(t *testing.T) {
	// A cross-domain session without an AllowedPeers grant is rejected by
	// the diff-scoped security check inline during the optimistic pass:
	// the verdict is footprint-sized, so it is not deferred, nothing is
	// optimistically committed for it, and the window needs no replay —
	// unlike the pre-scoping engine, where the deferred full check
	// tainted the whole window.
	srv := fn("acc", model.ASILC, 10000, 1000, 64)
	srv.Provides = []string{"accel_cmd"}
	srv.Contract.Domain = "drive"
	cli := fn("telematics", model.QM, 50000, 1000, 64)
	cli.Requires = []string{"accel_cmd"}
	cli.Contract.Domain = "connectivity" // cross-domain, no permission
	changes := []Change{
		upd(cli),
		upd(fn("t0", model.QM, 100000, 2000, 64)),
	}
	sched, got := streamParity(t, testPlatform(), []model.Function{srv}, changes, defaultStreamWindow)
	if got[0].Accepted || got[0].RejectedAt != StageSecurity {
		t.Fatalf("cross-domain client decided %v@%q, want security rejection", got[0].Accepted, got[0].RejectedAt)
	}
	if got[0].SecurityChecks == 0 {
		t.Fatalf("security rejection recorded no SecurityChecks telemetry")
	}
	if st := sched.Stats(); st.Replays != 0 {
		t.Fatalf("stats = %+v, want zero replays (scoped security decides inline)", st)
	}
}

func TestStreamSchedulerReplayKeepsDiscardedPassesOnTheBooks(t *testing.T) {
	// The optimistic passes a replay throws away are real pipeline work;
	// the stats must not understate them.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "only", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		},
	}
	baseline := []model.Function{fn("a", model.ASILD, 10000, 5200, 1)}
	changes := []Change{
		upd(fn("c", model.ASILD, 14000, 5200, 1)), // deferred timing verdict fails
		upd(fn("t", model.QM, 200000, 100, 1)),
	}
	sched, _ := streamParity(t, p, baseline, changes, defaultStreamWindow)
	if st := sched.Stats(); st.DiscardedPasses < len(changes) {
		t.Fatalf("stats = %+v, want >= %d discarded passes accounted", st, len(changes))
	}
}

func TestStreamSchedulerSameFunctionAndRemovalShareWindow(t *testing.T) {
	// Two updates of the same function and a removal share one window:
	// each change is decided against the optimistic commits before it, so
	// the second update diffs against the first and the removal frees what
	// the updates placed, exactly as serial proposals do.
	changes := []Change{
		upd(fn("svc", model.QM, 100000, 2000, 64)),
		upd(fn("svc", model.QM, 100000, 2500, 64)), // same function again
		upd(fn("t0", model.QM, 120000, 1500, 64)),
		{Remove: "svc"},
		upd(fn("t1", model.QM, 140000, 1000, 64)),
	}
	sched, got := streamParity(t, testPlatform(), nil, changes, defaultStreamWindow)
	for i, rep := range got {
		if !rep.Accepted {
			t.Fatalf("change %d rejected: %v (%s)", i, rep.Findings, rep.RejectedAt)
		}
	}
	if st := sched.Stats(); st.Windows != 1 || st.Replays != 0 {
		t.Fatalf("stats = %+v, want one verified window", st)
	}
}

func TestStreamSchedulerProviderRequirerShareWindow(t *testing.T) {
	// A provider and its requirer share one window: the requirer resolves
	// the service against the provider's optimistic commit, as it would
	// against the serial one.
	prov := fn("prov", model.QM, 100000, 2000, 64)
	prov.Provides = []string{"svc"}
	cons := fn("cons", model.QM, 100000, 2000, 64)
	cons.Requires = []string{"svc"}
	changes := []Change{upd(prov), upd(cons)}
	sched, got := streamParity(t, testPlatform(), nil, changes, defaultStreamWindow)
	for i, rep := range got {
		if !rep.Accepted {
			t.Fatalf("change %d rejected: %v (%s)", i, rep.Findings, rep.RejectedAt)
		}
	}
	if st := sched.Stats(); st.Windows != 1 || st.Replays != 0 {
		t.Fatalf("stats = %+v, want one verified window", st)
	}
}

func TestStreamWindowReplayAfterRemovalMatchesSerial(t *testing.T) {
	// One window holds every kind of dependent change in front of a hog
	// whose deferred timing verdict fails: a removal, an add that only
	// fits on the processor the removal frees, two updates of one
	// function, and a provider followed by its requirer. The replay must
	// restore the window-start snapshot and re-decide all of them exactly
	// as serial proposals do.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "a", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD},
			{Name: "b", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD},
		},
		Networks: []model.Network{
			{Name: "can0", BitsPerSec: 500_000, Attached: []string{"a", "b"}, Kind: "can"},
		},
	}
	baseline := []model.Function{
		fn("old", model.QM, 100000, 2000, 3000),
		fn("resident", model.QM, 100000, 2000, 3000),
	}
	prov := fn("prov", model.QM, 100000, 2000, 64)
	prov.Provides = []string{"svc"}
	cons := fn("cons", model.QM, 100000, 2000, 64)
	cons.Requires = []string{"svc"}
	hog := fn("hog", model.ASILD, 10000, 6000, 64)
	hog.Contract.RealTime.JitterUS = 5000 // WCRT >= 11000 > period on any core
	twice := fn("twice", model.QM, 120000, 1500, 64)
	twice.Version = 1
	changes := []Change{
		{Remove: "old"},
		upd(fn("new", model.QM, 100000, 2000, 3000)), // fits only where old was
		upd(fn("twice", model.QM, 120000, 1000, 64)),
		upd(twice),
		upd(prov),
		upd(cons),
		upd(hog),
	}
	sched, got := streamParity(t, p, baseline, changes, defaultStreamWindow)
	// "new" fits nowhere but on the processor "old" frees, so its
	// acceptance shows the removal's optimistic commit was visible to it.
	for i, rep := range got[:len(got)-1] {
		if !rep.Accepted {
			t.Fatalf("change %d (%s) rejected: %v (%s)", i, changes[i], rep.Findings, rep.RejectedAt)
		}
	}
	if hogRep := got[len(got)-1]; hogRep.Accepted || hogRep.RejectedAt != StageTiming {
		t.Fatalf("hog decided %v@%q, want a timing rejection", hogRep.Accepted, hogRep.RejectedAt)
	}
	if st := sched.Stats(); st.Windows != 1 || st.Replays != 1 {
		t.Fatalf("stats = %+v, want one window and one replay", st)
	}
	m := sched.m
	assertOracleParity(t, "stream", m, lastAccepted(got))
	assertSnapshotFresh(t, "stream", m)
}

func TestStreamSchedulerLongMixedStreamParity(t *testing.T) {
	// A longer mixed stream (additions, updates, a removal, broken
	// contracts, an unschedulable giant) across several windows.
	var changes []Change
	for i := 0; i < 24; i++ {
		switch {
		case i == 7:
			changes = append(changes, upd(fn("bad", model.QM, 1000, 9000, 64)))
		case i == 13:
			changes = append(changes, Change{Remove: "w3"})
		case i%6 == 5: // update an earlier function
			changes = append(changes, upd(fn(fmt.Sprintf("w%d", i-3), model.QM, 100000, 2100, 64)))
		default:
			changes = append(changes, upd(fn(fmt.Sprintf("w%d", i), model.QM, 100000, 2000, 64)))
		}
	}
	sched, _ := streamParity(t, testPlatform(), nil, changes, 6)
	if st := sched.Stats(); st.Windows < 4 {
		t.Fatalf("stats = %+v, want multiple windows", st)
	}
}

// --- stream stats rendering (regression: fault telemetry was dropped) --------

func TestStreamStatsStringIncludesFaultTelemetry(t *testing.T) {
	st := StreamStats{
		Windows: 9, Speculated: 8, Prefetched: 7, Replays: 6,
		DiscardedPasses: 5, Conflicts: 4, PanicsRecovered: 3,
	}
	want := "windows 9 (speculated 8, replays 6, conflicts 4, prefetched 7, discarded 5, panics 3)"
	if got := st.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// --- mid-window context expiry accounting ------------------------------------

// cancelAfter returns a stage hook that cancels the given context when
// the n-th armed proposal enters its first stage, simulating a deadline
// expiring while a later window member is mid-pipeline.
func cancelAfter(n int, cancel context.CancelFunc) (func(*Report), *bool) {
	armed := new(bool)
	runs := 0
	return func(rep *Report) {
		if !*armed || len(rep.Stages) > 0 {
			return
		}
		runs++
		if runs == n {
			cancel()
		}
	}, armed
}

// expiryChanges is a window of four: an offender whose deferred timing
// verdict fails (forcing the replay), two feasible additions, and a
// fourth change the expiry short-circuits before it enters the pipeline.
func expiryChanges() []Change {
	return []Change{
		upd(fn("c", model.ASILD, 14000, 5200, 1)), // deferred timing verdict fails
		upd(fn("t", model.QM, 200000, 100, 1)),
		upd(fn("u", model.QM, 220000, 100, 1)),
		upd(fn("v", model.QM, 240000, 100, 1)),
	}
}

func assertAllDeadlineRejected(t *testing.T, got []*Report) {
	t.Helper()
	for i, rep := range got {
		if rep.Accepted || !rep.Degraded || !slices.Contains(rep.DegradedReasons, "deadline") {
			t.Fatalf("change %d = accepted %v, degraded %v %v; want deterministic deadline rejection",
				i, rep.Accepted, rep.Degraded, rep.DegradedReasons)
		}
	}
}

func TestDecidedReportsNotRetained(t *testing.T) {
	// The controller keeps no report log: once the caller drops a report,
	// nothing pins it, nor the committed timing table its FullTiming
	// binds. The stage hook holds a weak pointer to every report a stage
	// runs for, so the optimistic reports a replayed window discards are
	// covered as well as the returned ones.
	var weaks []weak.Pointer[Report]
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "only", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		},
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	m.onStage = func(rep *Report) { weaks = append(weaks, weak.Make(rep)) }
	returned := 0
	func() {
		accepted := m.ProposeUpdate(fn("a", model.ASILD, 10000, 5200, 1))
		if !accepted.Accepted {
			t.Fatalf("baseline rejected: %v", accepted.Findings)
		}
		rejected := m.ProposeUpdate(fn("bad", model.QM, 10000, 100000, 1))
		if rejected.Accepted {
			t.Fatal("invalid contract accepted")
		}
		sched := NewStreamScheduler(m)
		sched.window = len(expiryChanges())
		reps := append(sched.Run(expiryChanges()), accepted, rejected)
		if st := sched.Stats(); st.Replays != 1 || st.DiscardedPasses == 0 {
			t.Fatalf("stats = %+v, want one replayed window with discarded passes", st)
		}
		for _, rep := range reps {
			weaks = append(weaks, weak.Make(rep))
		}
		returned = len(reps)
	}()
	distinct := make(map[weak.Pointer[Report]]bool)
	for _, w := range weaks {
		distinct[w] = true
	}
	if len(distinct) <= returned {
		t.Fatalf("tracked %d reports, want more than the %d returned (the discarded optimistic ones)", len(distinct), returned)
	}

	runtime.GC()
	for w := range distinct {
		if rep := w.Value(); rep != nil {
			t.Fatalf("a decided report is still reachable after its caller dropped it: accepted %v, rejected at %q",
				rep.Accepted, rep.RejectedAt)
		}
	}
	runtime.KeepAlive(m)
}

func TestStreamSchedulerMidWindowExpiryDiscardAccounting(t *testing.T) {
	// The context dies while the third window member is mid-pipeline: the
	// fourth short-circuits without a pipeline pass, verification fails on
	// the offender, and the replay resolves everything as deadline
	// rejections. DiscardedPasses must count only the three genuine
	// optimistic passes — the expired short-circuit's mirrored Passes
	// field must not inflate it (or the Evaluations derived from it).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook, armed := cancelAfter(3, cancel)
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "only", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		},
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	m.onStage = hook
	if rep := m.ProposeUpdate(fn("a", model.ASILD, 10000, 5200, 1)); !rep.Accepted {
		t.Fatalf("baseline rejected: %v", rep.Findings)
	}
	*armed = true

	changes := expiryChanges()
	sched := NewStreamScheduler(m)
	sched.window = len(changes)
	got := sched.RunContext(ctx, changes)
	if len(got) != len(changes) {
		t.Fatalf("stream resolved %d/%d changes", len(got), len(changes))
	}
	assertAllDeadlineRejected(t, got)
	st := sched.Stats()
	if st.Windows != 1 || st.Replays != 1 || st.Conflicts != 0 {
		t.Fatalf("stats = %+v, want one window, one replay, no conflicts", st)
	}
	if st.DiscardedPasses != 3 {
		t.Fatalf("DiscardedPasses = %d, want exactly the 3 genuine optimistic passes", st.DiscardedPasses)
	}
}
