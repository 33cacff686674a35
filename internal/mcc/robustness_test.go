package mcc

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/model"
)

// Robustness tier: drive the controller through the injected-fault
// matrix (errors, panics, stalls, cache corruption, journal undo
// failures) and require the hard guarantees of the degradation ladder:
// the process never crashes or hangs, every proposal resolves within its
// deadline, and every decision either matches the clean from-scratch
// oracle or is explicitly marked Degraded on its Report. Run under -race
// in CI.

// robustBaseline is a small deployed workload shared by the fault tests.
func robustBaseline() []model.Function {
	return []model.Function{
		fn("brake", model.ASILD, 5000, 500, 128),
		fn("acc", model.ASILC, 10000, 1500, 256),
		fn("infotainment", model.QM, 50000, 10000, 1024),
	}
}

// robustMCC deploys the baseline on a fresh controller with opts.
func robustMCC(t *testing.T, opts ...Option) *MCC {
	t.Helper()
	m, _ := robustMCCReports(t, opts...)
	return m
}

// robustMCCReports is robustMCC returning the baseline's reports too.
func robustMCCReports(t *testing.T, opts ...Option) (*MCC, []*Report) {
	t.Helper()
	m, err := New(testPlatform(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]*Report, 0, len(robustBaseline()))
	for _, f := range robustBaseline() {
		rep := m.ProposeUpdate(f)
		if !rep.Accepted {
			t.Fatalf("baseline %s rejected at %s: %v", f.Name, rep.RejectedAt, rep.Findings)
		}
		reports = append(reports, rep)
	}
	return m, reports
}

// oracleDecide replays changes serially on a clean from-scratch
// controller (no incremental caches, no injection) — the reference every
// degraded decision must still agree with.
func oracleDecide(t *testing.T, changes []Change) []*Report {
	t.Helper()
	m := robustMCC(t, WithoutIncremental())
	reports := make([]*Report, 0, len(changes))
	for _, c := range changes {
		reports = append(reports, m.integrateChangeCtx(context.Background(), c))
	}
	return reports
}

func assertDecisionParity(t *testing.T, changes []Change, got, want []*Report) {
	t.Helper()
	for i := range want {
		if got[i].Accepted != want[i].Accepted || got[i].RejectedAt != want[i].RejectedAt {
			t.Fatalf("change %d (%s): faulted run decided %v@%q, oracle %v@%q",
				i, changes[i], got[i].Accepted, got[i].RejectedAt, want[i].Accepted, want[i].RejectedAt)
		}
	}
}

// A stalled timing stage must never hang a proposal: the per-proposal
// deadline converts the stall into a deterministic degraded rejection,
// and the controller stays fully usable afterwards.
func TestProposalDeadlineBoundsStalledStage(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Stage: "stage.timing", Mode: faultinject.ModeStall,
		StallUS: int64(10 * time.Second / time.Microsecond), Count: 1,
	})
	m, err := New(testPlatform(), WithFaultInjector(inj), WithProposalDeadline(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	rep := m.ProposeUpdate(fn("telem", model.QM, 200000, 2000, 64))
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("stalled proposal took %v, deadline did not bound it", elapsed)
	}
	if rep.Accepted {
		t.Fatal("stalled proposal accepted")
	}
	if !rep.Degraded || !slices.Contains(rep.DegradedReasons, "deadline") {
		t.Fatalf("stalled proposal not marked degraded-by-deadline: %+v / %v", rep.Degraded, rep.DegradedReasons)
	}
	if inj.TotalFired() == 0 {
		t.Fatal("stall never fired, test exercised nothing")
	}

	// The fault was one-shot (Count:1): the same change must now go
	// through cleanly, undegraded.
	rep = m.ProposeUpdate(fn("telem", model.QM, 200000, 2000, 64))
	if !rep.Accepted || rep.Degraded {
		t.Fatalf("post-stall proposal = accepted %v, degraded %v, want clean accept (findings %v)",
			rep.Accepted, rep.Degraded, rep.Findings)
	}
}

// A panicking timing-stage analysis is recovered, the proposal is
// re-decided on the pinned from-scratch path, and the decision matches
// the clean serial oracle.
func TestWorkerPanicRecoveredDecisionMatchesOracle(t *testing.T) {
	changes := []Change{
		upd(fn("t0", model.QM, 100000, 2000, 64)),
		upd(fn("t1", model.QM, 120000, 1500, 64)),
		upd(fn("heavy", model.ASILD, 10000, 4500, 64)),
	}
	want := oracleDecide(t, changes)

	inj := faultinject.New(7, faultinject.Rule{
		Stage: "timing.worker", Mode: faultinject.ModePanic, Every: 2, Count: 20,
	})
	m, baseline := robustMCCReports(t, WithFaultInjector(inj))
	got := make([]*Report, 0, len(changes))
	for _, c := range changes {
		got = append(got, m.integrateChangeCtx(context.Background(), c))
	}

	assertDecisionParity(t, changes, got, want)
	// Panics may land on any proposal (the baseline deploys under the
	// same injector — its degraded-but-correct accepts are part of the
	// corpus), so count recovery over the baseline and change reports.
	panics, degraded := 0, 0
	for _, rep := range append(baseline, got...) {
		panics += rep.PanicsRecovered
		if rep.Degraded {
			degraded++
			if !slices.Contains(rep.DegradedReasons, "transient-fault") &&
				!slices.Contains(rep.DegradedReasons, "quarantined") {
				t.Fatalf("degraded report without ladder reason: %v", rep.DegradedReasons)
			}
		}
	}
	if panics == 0 || degraded == 0 {
		t.Fatalf("panics recovered = %d, degraded = %d, want both > 0 (fired %v)",
			panics, degraded, inj.Fired())
	}
}

// Persistent injected analyzer errors exhaust the bounded retry, the
// ladder re-decides from scratch, and once the fault burst ends the
// controller returns to clean, undegraded decisions.
func TestTransientAnalyzerErrorsRetryThenDegrade(t *testing.T) {
	changes := []Change{
		upd(fn("t0", model.QM, 100000, 2000, 64)),
		upd(fn("t1", model.QM, 120000, 1500, 64)),
	}
	want := oracleDecide(t, changes)

	inj := faultinject.New(3, faultinject.Rule{
		Stage: "cpa.analyze", Mode: faultinject.ModeError, Count: 7,
	})
	m, baseline := robustMCCReports(t, WithFaultInjector(inj))
	got := make([]*Report, 0, len(changes))
	for _, c := range changes {
		got = append(got, m.integrateChangeCtx(context.Background(), c))
	}
	assertDecisionParity(t, changes, got, want)

	// The burst may be spent on any proposal (baseline included); count
	// the ladder's work over the baseline and change reports.
	retried, degraded := 0, 0
	for _, rep := range append(baseline, got...) {
		retried += rep.RetriedAnalyses
		if rep.Degraded {
			degraded++
		}
	}
	if inj.TotalFired() == 0 {
		t.Fatal("analyzer fault never fired")
	}
	if retried == 0 {
		t.Fatalf("no retries recorded despite %d fires", inj.TotalFired())
	}
	if degraded == 0 {
		t.Fatal("persistent analyzer faults produced no degraded proposal")
	}

	// Fault burst over (Count exhausted): the next proposal must be a
	// clean, undegraded decision matching the oracle.
	rep := m.ProposeUpdate(fn("t2", model.QM, 140000, 2500, 64))
	if !rep.Accepted || rep.Degraded {
		t.Fatalf("post-burst proposal = accepted %v, degraded %v, want clean accept (findings %v)",
			rep.Accepted, rep.Degraded, rep.Findings)
	}
}

// A corrupted memo entry (cache digest mismatch) is detected by the
// result-table sanity check, the analyzer cache is rebuilt, and the
// decision is re-derived from scratch — never trusted from the damaged
// entry.
func TestCacheCorruptionDetectedAndQuarantined(t *testing.T) {
	// On the tight stress platform, "safe" is the only ASIL-D host: base
	// and heavy1 fit, and heavy2's release jitter packs several of its
	// activations into one busy window next to them — utilization stays
	// under 100% (mapping passes) but the window blows its deadline, so
	// heavy2 rejects at timing. Re-proposing it replays the same task
	// sets — cache hits, which the injector corrupts.
	base := fn("base", model.ASILD, 10000, 3000, 128)
	heavy1 := fn("heavy1", model.ASILD, 10000, 4000, 64)
	heavy2 := fn("heavy2", model.ASILD, 20000, 5000, 64)
	heavy2.Contract.RealTime.JitterUS = 60000
	heavy2.Contract.RealTime.DeadlineUS = 30000

	mk := func(opts ...Option) *MCC {
		m, err := New(stressPlatform(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []model.Function{base, heavy1} {
			if rep := m.ProposeUpdate(f); !rep.Accepted {
				t.Fatalf("baseline %s rejected at %s: %v", f.Name, rep.RejectedAt, rep.Findings)
			}
		}
		return m
	}

	// Clean reference decision.
	oracle := mk(WithoutIncremental())
	want := oracle.ProposeUpdate(heavy2)
	if want.Accepted || want.RejectedAt != StageTiming {
		t.Fatalf("heavy2 decided %v@%q on the oracle, corpus does not exercise timing rejection",
			want.Accepted, want.RejectedAt)
	}

	inj := faultinject.New(5, faultinject.Rule{
		Stage: "cpa.cache", Mode: faultinject.ModeCorrupt, Count: 4,
	})
	m := mk(WithFaultInjector(inj))

	// Two rejected attempts: the first warms the memo (and may already
	// hit it on its cold retry), the second definitely replays cached
	// task sets. Both must decide exactly as the oracle; any attempt the
	// corruption touched must be marked degraded, never silently wrong.
	degraded := 0
	for attempt := 0; attempt < 2; attempt++ {
		rep := m.ProposeUpdate(heavy2)
		if rep.Accepted != want.Accepted || rep.RejectedAt != want.RejectedAt {
			t.Fatalf("attempt %d decided %v@%q, oracle %v@%q",
				attempt, rep.Accepted, rep.RejectedAt, want.Accepted, want.RejectedAt)
		}
		if rep.Degraded {
			degraded++
		}
	}
	if inj.TotalFired() == 0 {
		t.Fatal("corruption never fired (no cache hits?)")
	}
	if degraded == 0 {
		t.Fatal("corrupted attempts never marked degraded")
	}

	// The ladder quarantined the suspect state; the next accepted commit
	// rebuilds the caches and later proposals are clean again.
	rep := m.ProposeUpdate(fn("t0", model.QM, 100000, 2000, 64))
	if !rep.Accepted {
		t.Fatalf("post-corruption proposal rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}
	rep = m.ProposeUpdate(fn("t1", model.QM, 120000, 1500, 64))
	if !rep.Accepted || rep.Degraded {
		t.Fatalf("controller did not recover: accepted %v, degraded %v", rep.Accepted, rep.Degraded)
	}
}

// Faults in a stream window's analyses (errors and panics) become
// their analyses' errors, so verification fails and the scheduler replays
// the window serially; every decision still matches the clean serial
// oracle, with the recovered panics surfaced in the stream stats.
func TestStreamPrefetchFaultsTaintWindowAndReplay(t *testing.T) {
	changes := []Change{
		upd(fn("t0", model.QM, 100000, 2000, 64)),
		upd(fn("t1", model.QM, 120000, 1500, 64)),
		upd(fn("t2", model.QM, 140000, 2500, 64)),
		upd(fn("heavy3", model.ASILD, 10000, 4000, 64)),
		upd(fn("t4", model.QM, 160000, 1800, 64)),
		upd(fn("t5", model.QM, 180000, 1200, 64)),
	}
	want := oracleDecide(t, changes)

	for _, mode := range []faultinject.Mode{faultinject.ModeError, faultinject.ModePanic} {
		t.Run(string(mode), func(t *testing.T) {
			inj := faultinject.New(11, faultinject.Rule{
				Stage: "stream.prefetch", Mode: mode, Every: 2, Count: 4,
			})
			m := robustMCC(t, WithFaultInjector(inj))
			sched := NewStreamScheduler(m)
			sched.window = 8
			got := sched.Run(changes)

			assertDecisionParity(t, changes, got, want)
			st := sched.Stats()
			if inj.TotalFired() == 0 {
				t.Fatal("prefetch fault never fired")
			}
			if st.Replays == 0 {
				t.Fatalf("analysis faults did not replay their windows: %+v", st)
			}
			if mode == faultinject.ModePanic && st.PanicsRecovered == 0 {
				t.Fatalf("analysis panics not surfaced in stream stats: %+v", st)
			}
		})
	}
}

// Nothing in the controller analyzes on a goroutine of its own: on a
// two-core runtime, while a stream window's analyses stall in the
// "stream.prefetch" hook and while a cold 2048-processor baseline deploy
// analyzes every resource, the process never holds more goroutines than
// before the call. A worker pool's helper goroutine would be alive for
// the whole call and show up in the count.
func TestAnalysesRunOnCallersGoroutine(t *testing.T) {
	type goroutineCase struct {
		name string
		// setup builds the controller and returns the call to sample and
		// the check of its result.
		setup func(t *testing.T) (call func(), check func(t *testing.T))
	}
	var tt []goroutineCase

	tt = append(tt, goroutineCase{
		name: "stream window",
		setup: func(t *testing.T) (func(), func(*testing.T)) {
			changes := []Change{
				upd(fn("t0", model.QM, 100000, 2000, 64)),
				upd(fn("t1", model.QM, 120000, 1500, 64)),
				upd(fn("t2", model.QM, 140000, 2500, 64)),
				upd(fn("t3", model.QM, 160000, 1800, 64)),
			}
			want := oracleDecide(t, changes)
			inj := faultinject.New(1, faultinject.Rule{
				Stage: "stream.prefetch", Mode: faultinject.ModeStall, StallUS: 2000,
			})
			sched := NewStreamScheduler(robustMCC(t, WithFaultInjector(inj)))
			var got []*Report
			return func() { got = sched.Run(changes) }, func(t *testing.T) {
				assertDecisionParity(t, changes, got, want)
				if st := sched.Stats(); st.Prefetched < 2 || inj.TotalFired() != st.Prefetched {
					t.Fatalf("stats = %+v with %d stalls, want every one of several window analyses stalled", st, inj.TotalFired())
				}
			}
		},
	})

	tt = append(tt, goroutineCase{
		name: "cold 2048p deploy",
		setup: func(t *testing.T) (func(), func(*testing.T)) {
			m, err := New(e13Platform(2048))
			if err != nil {
				t.Fatal(err)
			}
			fa := e13Functions(2048)
			var rep *Report
			return func() { rep = m.ProposeArchitecture(fa) }, func(t *testing.T) {
				if !rep.Accepted || rep.TimingDirty != 2048 {
					t.Fatalf("baseline decided %v@%q with %d dirty resources, want accepted with 2048",
						rep.Accepted, rep.RejectedAt, rep.TimingDirty)
				}
			}
		},
	})

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range tt {
		t.Run(tc.name, func(t *testing.T) {
			call, check := tc.setup(t)
			stop, peak := make(chan struct{}), make(chan [2]int)
			go func() {
				most, samples := 0, 0
				for {
					select {
					case <-stop:
						peak <- [2]int{most, samples}
						return
					default:
					}
					most, samples = max(most, runtime.NumGoroutine()), samples+1
					time.Sleep(20 * time.Microsecond)
				}
			}()
			before := runtime.NumGoroutine() // the sampler included
			call()
			close(stop)
			p := <-peak

			check(t)
			if p[1] == 0 {
				t.Fatal("the sampler took no sample during the call")
			}
			if p[0] > before {
				t.Fatalf("goroutines rose from %d before the call to %d during it", before, p[0])
			}
		})
	}
}

// A corrupted start snapshot during window rollback (the journal.undo
// fault) purges the incremental state and quarantines the controller:
// decisions keep matching the serial oracle (pinned from-scratch path),
// the affected proposals are marked degraded, and the first accepted commit rebuilds the snapshot
// bit-identically to a fresh serial controller.
func TestJournalUndoFaultPurgesAndRecovers(t *testing.T) {
	changes := []Change{
		// One window of same-platform QM additions: their optimistic
		// commits overlap on the snapshot parts of the processors they
		// share, so the rollback restores overlapping copy-on-write writes.
		upd(fn("t0", model.QM, 100000, 2000, 64)),
		upd(fn("t1", model.QM, 120000, 1500, 64)),
		upd(fn("t2", model.QM, 140000, 2500, 64)),
		upd(fn("t3", model.QM, 160000, 1800, 64)),
	}
	want := oracleDecide(t, changes)

	inj := faultinject.New(13,
		// Taint the first window so it rolls back...
		faultinject.Rule{Stage: "stream.prefetch", Mode: faultinject.ModeError, Count: 1},
		// ...and corrupt the start snapshot that rollback restores.
		faultinject.Rule{Stage: "journal.undo", Mode: faultinject.ModeError, Count: 1},
	)
	m := robustMCC(t, WithFaultInjector(inj))
	sched := NewStreamScheduler(m)
	sched.window = 8
	got := sched.Run(changes)

	assertDecisionParity(t, changes, got, want)
	assertSnapshotFresh(t, "faulted stream", m)
	if fired := inj.Fired(); fired["journal.undo|error"] == 0 {
		t.Fatalf("journal undo fault never fired: %v", fired)
	}
	degraded := 0
	for _, rep := range got {
		if rep.Degraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("quarantined replay produced no degraded proposal")
	}
	if m.quarantined {
		t.Fatal("quarantine not lifted by an accepted from-scratch commit")
	}

	// After recovery the rebuilt caches must be bit-identical to a fresh
	// full-incremental controller that proposed the same stream serially
	// and then decided one more clean change.
	post := upd(fn("t9", model.QM, 180000, 1200, 64))
	rep := m.integrateChangeCtx(context.Background(), post)
	if !rep.Accepted || rep.Degraded {
		t.Fatalf("post-recovery proposal = accepted %v, degraded %v", rep.Accepted, rep.Degraded)
	}
	assertSnapshotFresh(t, "post-recovery", m)
	fresh := robustMCC(t)
	for i, c := range append(slices.Clone(changes), post) {
		fresh.integrateChangeCtx(context.Background(), c)
		assertSnapshotFresh(t, fmt.Sprintf("serial step %d", i), fresh)
	}
	sf, ff := cacheFingerprint(m), cacheFingerprint(fresh)
	for key := range ff {
		if !reflect.DeepEqual(sf[key], ff[key]) {
			t.Errorf("cache %q diverges after quarantine recovery:\nfaulted %+v\nserial  %+v",
				key, sf[key], ff[key])
		}
	}
}

// Window rollback correctness under overlapping writes: a window whose
// changes all land on the same processors commits overlapping snapshot
// parts optimistically; a mid-window deferred timing failure forces the
// rollback + serial replay, after which every snapshot field must equal
// a fresh serial controller's. (The injected-fault variant of the same
// invariant is TestJournalUndoFaultPurgesAndRecovers.)
func TestJournalRollbackOverlappingKeyedWrites(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			changes := []Change{
				upd(fn("a0", model.QM, 100000, 2000+500*seed, 64)),
				upd(fn("a1", model.QM, 120000, 1500, 64)),
				// Near-capacity ASIL-D: its deferred busy-window verdict
				// fails next to the baseline load, tainting the window.
				upd(fn("heavy", model.ASILD, 10000, 4200+100*seed, 64)),
				upd(fn("a2", model.QM, 140000, 2500, 64)),
			}
			streamed := robustMCC(t)
			sched := NewStreamScheduler(streamed)
			sched.window = 8
			got := sched.Run(changes)

			fresh := robustMCC(t)
			want := make([]*Report, 0, len(changes))
			for _, c := range changes {
				want = append(want, fresh.integrateChangeCtx(context.Background(), c))
			}
			assertDecisionParity(t, changes, got, want)
			assertSnapshotFresh(t, "stream", streamed)
			for i := range want {
				if !reflect.DeepEqual(got[i].Findings, want[i].Findings) {
					t.Fatalf("change %d findings diverge:\nstream %v\nserial %v",
						i, got[i].Findings, want[i].Findings)
				}
			}
			sf, ff := cacheFingerprint(streamed), cacheFingerprint(fresh)
			for key := range ff {
				if !reflect.DeepEqual(sf[key], ff[key]) {
					t.Errorf("cache %q diverges after rollback:\nstream %+v\nserial %+v",
						key, sf[key], ff[key])
				}
			}
		})
	}
}

// assertExpiredShape checks one short-circuited report against the shape
// the pipeline's own pre-stage deadline check produces: rejected before
// the first stage, one pass, degraded with the deterministic finding.
func assertExpiredShape(t *testing.T, rep *Report) {
	t.Helper()
	if rep.Accepted || rep.RejectedAt != StageValidate || rep.Passes != 1 {
		t.Fatalf("short-circuited report = accepted %v @%q, %d passes; want rejection at %q with 1 pass",
			rep.Accepted, rep.RejectedAt, rep.Passes, StageValidate)
	}
	if !rep.Degraded || !slices.Contains(rep.DegradedReasons, "deadline") {
		t.Fatalf("short-circuited report not marked deadline-degraded: %v %v",
			rep.Degraded, rep.DegradedReasons)
	}
	if len(rep.Findings) != 1 || !strings.HasPrefix(rep.Findings[0], "deadline: proposal deadline expired before stage validate") {
		t.Fatalf("short-circuited findings = %v", rep.Findings)
	}
}

// An expired proposal's report must not depend on the path that resolved
// it: expiredReport's short-circuit and the pipeline's own pre-stage
// deadline check give the same verdict, passes, degraded reasons (in the
// same order) and findings, on a healthy and on a quarantined controller.
func TestExpiredReportMatchesPipelineExpiry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, quarantined := range []bool{false, true} {
		t.Run(fmt.Sprintf("quarantined=%v", quarantined), func(t *testing.T) {
			m := robustMCC(t)
			if quarantined {
				m.purgeIncrementalState()
			}
			ran := m.integrateChangeCtx(ctx, upd(fn("telem", model.QM, 200000, 2000, 64)))
			short := m.expiredReport(ctx)
			assertExpiredShape(t, ran)
			if ran.Accepted != short.Accepted || ran.RejectedAt != short.RejectedAt ||
				ran.Passes != short.Passes || ran.Degraded != short.Degraded ||
				!reflect.DeepEqual(ran.DegradedReasons, short.DegradedReasons) ||
				!reflect.DeepEqual(ran.Findings, short.Findings) {
				t.Fatalf("pipeline expiry and expiredReport diverge:\npipeline accepted %v @%q, %d passes, degraded %v %v, findings %v\nshort    accepted %v @%q, %d passes, degraded %v %v, findings %v",
					ran.Accepted, ran.RejectedAt, ran.Passes, ran.Degraded, ran.DegradedReasons, ran.Findings,
					short.Accepted, short.RejectedAt, short.Passes, short.Degraded, short.DegradedReasons, short.Findings)
			}
		})
	}
}

// A context cancelled mid-replay must stop the serial replay promptly:
// at most the in-flight proposal runs a pipeline after cancellation, and
// every remaining change of the window resolves as a deterministic
// deadline rejection without any pipeline setup.
func TestStreamCancellationStopsReplayPromptly(t *testing.T) {
	changes := []Change{
		upd(fn("t0", model.QM, 100000, 2000, 64)),
		upd(fn("t1", model.QM, 120000, 1500, 64)),
		upd(fn("t2", model.QM, 140000, 2500, 64)),
		upd(fn("t3", model.QM, 160000, 1800, 64)),
		upd(fn("t4", model.QM, 180000, 1200, 64)),
		upd(fn("t5", model.QM, 200000, 1000, 64)),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// A one-shot prefetch fault taints the only window, forcing the serial
	// replay; the stage hook cancels the context on the first replayed
	// proposal (Replays is incremented before the replay loop starts) and
	// counts how many stages still ran after the replay began.
	var sched *StreamScheduler
	runsAfterReplay := 0
	inj := faultinject.New(23, faultinject.Rule{
		Stage: "stream.prefetch", Mode: faultinject.ModeError, Count: 1,
	})
	m := robustMCC(t, WithFaultInjector(inj))
	m.onStage = func(*Report) {
		if sched != nil && sched.Stats().Replays > 0 {
			runsAfterReplay++
			cancel()
		}
	}
	sched = NewStreamScheduler(m)
	sched.window = 8

	got := sched.RunContext(ctx, changes)
	if len(got) != len(changes) {
		t.Fatalf("stream resolved %d/%d changes", len(got), len(changes))
	}
	if st := sched.Stats(); st.Replays != 1 {
		t.Fatalf("prefetch fault did not force exactly one replay: %+v", st)
	}
	// Only the proposal that was in flight when the context died may have
	// run a pipeline; everything after it short-circuits.
	if runsAfterReplay != 1 {
		t.Fatalf("%d pipelines ran after cancellation mid-replay, want 1", runsAfterReplay)
	}
	if got[0].Accepted || !got[0].Degraded || !slices.Contains(got[0].DegradedReasons, "deadline") {
		t.Fatalf("in-flight replayed proposal = accepted %v, degraded %v %v; want deadline rejection",
			got[0].Accepted, got[0].Degraded, got[0].DegradedReasons)
	}
	for i, rep := range got[1:] {
		if rep == got[0] {
			t.Fatalf("change %d shares the in-flight report", i+1)
		}
		assertExpiredShape(t, rep)
	}

	// The rolled-back controller must stay fully usable under a live
	// context: the same feasible change is accepted cleanly.
	rep := m.integrateChangeCtx(context.Background(), changes[0])
	if !rep.Accepted || rep.Degraded {
		t.Fatalf("post-cancellation proposal = accepted %v, degraded %v", rep.Accepted, rep.Degraded)
	}
}
