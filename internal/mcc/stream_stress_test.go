package mcc

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/safety"
	"repro/internal/security"
)

// Stress test for the stream scheduler's snapshot rollback: random
// streams of dependent changes and planted mid-window rejections
// (timing deadline-missers, which force optimistic windows to replay, and
// safety and security findings, which reject inline), and after every stream the controller's committed state —
// the timing table (jobs, digests, WCRT tables), every snapshot field,
// the monitor plan — must be bit-identical to a fresh controller that
// proposed the same stream serially, both must equal a rebuild of their
// own snapshot (assertSnapshotFresh) and pass the whole-model safety and
// security checks (assertFullChecks), both committed architectures must
// equal a clone-path shadow of the accepted changes — all three after
// every window and every serial step — and both must equal the
// from-scratch oracle.

// stressPlatform is deliberately tight: one slow safe core and one fast
// core, so random workloads regularly fail timing mid-window.
func stressPlatform() *model.Platform {
	return &model.Platform{
		Processors: []model.Processor{
			{Name: "safe", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD},
			{Name: "fast", Policy: model.SPP, SpeedFactor: 2.0, RAMKiB: 8192, MaxSafety: model.ASILB},
		},
		Networks: []model.Network{
			{Name: "bus", BitsPerSec: 500_000, Attached: []string{"safe", "fast"}, Kind: "can"},
		},
	}
}

// stressChange derives the i-th random change: mostly feasible additions
// with occasionally shared services, periodically a
// near-capacity function (deferred timing verdict fails mid-window), a
// redundancy violation (the safety stage rejects it inline), an update of
// an earlier function, or a removal.
func stressChange(rng *rand.Rand, i int) Change {
	switch rng.Intn(10) {
	case 0: // near-capacity ASIL-D load: its 5 ms release jitter makes it
		// miss deadlines next to others, failing its deferred timing verdict
		f := fn(fmt.Sprintf("heavy%d", i), model.ASILD, 10000, 4000+int64(rng.Intn(4))*500, 64)
		f.Contract.RealTime.JitterUS = 5000
		return upd(f)
	case 1: // fail-operational without replicas: inline safety finding
		f := fn(fmt.Sprintf("failop%d", i), model.ASILD, 40000, 1000, 64)
		f.Contract.FailOperational = true
		return upd(f)
	case 2: // update of an earlier telemetry function
		f := fn(fmt.Sprintf("t%d", rng.Intn(i+1)), model.QM, 100000, 1500+int64(rng.Intn(5))*200, 64)
		f.Version = i
		return upd(f)
	case 3: // removal: frees capacity mid-window
		return Change{Remove: fmt.Sprintf("t%d", rng.Intn(i+1))}
	case 4: // provider of a service other changes may share
		f := fn(fmt.Sprintf("svc%d", i), model.QM, 80000, 1200, 64)
		f.Provides = []string{fmt.Sprintf("shared%d", i%3)}
		return upd(f)
	case 5: // cross-domain client of the baseline gate: half granted, half
		// violating (the scoped security check rejects inline mid-window,
		// exercising the committed connection index under rollback)
		f := fn(fmt.Sprintf("xd%d", i), model.QM, 90000, 1000+int64(rng.Intn(3))*200, 64)
		f.Requires = []string{"core_svc"}
		f.Contract.Domain = "app"
		if rng.Intn(2) == 0 {
			f.Contract.AllowedPeers = []string{"core_svc"}
		}
		return upd(f)
	default: // feasible telemetry addition
		return upd(fn(fmt.Sprintf("t%d", i), model.QM, 100000+int64(rng.Intn(4))*20000, 1500, 64))
	}
}

// cacheFingerprint projects the controller's committed state into a
// comparable value: the architecture, the materialized implementation
// model, the timing table (WCRT tables, jobs, digests), the monitor plan,
// and every field of the committed snapshot (snapshotView).
func cacheFingerprint(m *MCC) map[string]any {
	// DeployedImpl materializes the flat Tasks/Instances lists, so a
	// streamed (lazily committed) controller fingerprints the same as a
	// serially rebuilt one.
	impl := m.DeployedImpl()
	fp := map[string]any{
		"deployed": m.Deployed(),
		"tasks":    impl.Tasks,
		"messages": impl.Messages,
		"conns":    impl.Connections,
		"timing":   m.snap.res.materializeTiming(),
		"jobs":     committedJobs(m),
		"digests":  committedDigests(m),
		"monitors": m.DeployedMonitors(),
	}
	for k, v := range snapshotView(m.snap) {
		fp["snap."+k] = v
	}
	return fp
}

// shadowApply advances a clone-path shadow of the committed architecture
// by one decided change: applyChange in stream order over the accepted
// ones, independent of the snapshot Deployed() derives the architecture
// from.
func shadowApply(shadow *model.FunctionalArchitecture, c Change, rep *Report) *model.FunctionalArchitecture {
	if rep.Accepted {
		return applyChange(shadow, c)
	}
	return shadow
}

// assertFullChecks runs the whole-model safety and security checks on
// the committed implementation model and requires no finding: a
// configuration commits only after its scoped checks passed, so a
// finding here is one the scoped checks missed.
func assertFullChecks(t *testing.T, label string, m *MCC) {
	t.Helper()
	impl := m.DeployedImpl()
	if f, _ := safety.CheckScoped(impl.Tech); len(f) > 0 {
		t.Fatalf("%s: committed configuration has safety findings %v", label, f)
	}
	if f, _ := security.CheckDomainsScoped(impl); len(f) > 0 {
		t.Fatalf("%s: committed configuration has security findings %v", label, f)
	}
}

func assertShadow(t *testing.T, label string, m *MCC, shadow *model.FunctionalArchitecture) {
	t.Helper()
	if got := m.Deployed(); !reflect.DeepEqual(got, shadow) {
		t.Fatalf("%s: deployed architecture\n%+v\ndiverges from the clone-path shadow\n%+v", label, got, shadow)
	}
}

func TestStreamSchedulerStressRollbackCacheParity(t *testing.T) {
	gate := fn("gate", model.QM, 80000, 1000, 64)
	gate.Provides = []string{"core_svc"}
	gate.Contract.Domain = "core"
	baseline := []model.Function{
		fn("base", model.ASILD, 10000, 3000, 128),
		fn("aux", model.QM, 50000, 4000, 256),
		gate,
	}
	var totalReplays, totalSpeculated, totalSecurityRejects int
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			changes := make([]Change, 0, 32)
			for i := 0; i < 32; i++ {
				changes = append(changes, stressChange(rng, i))
			}

			mk := func() *MCC {
				m, err := New(stressPlatform())
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

			// RunContext's window loop, with the architecture checked
			// against its shadow after every window.
			streamed := mk()
			sched := NewStreamScheduler(streamed)
			sched.window = 8
			streamShadow := streamed.Deployed()
			var got []*Report
			for lo := 0; lo < len(changes); lo += sched.window {
				hi := min(lo+sched.window, len(changes))
				for k, rep := range sched.runWindow(context.Background(), changes[lo:hi]) {
					streamShadow = shadowApply(streamShadow, changes[lo+k], rep)
					got = append(got, rep)
				}
				label := fmt.Sprintf("window [%d,%d)", lo, hi)
				assertShadow(t, label, streamed, streamShadow)
				assertSnapshotFresh(t, label, streamed)
				assertFullChecks(t, label, streamed)
			}

			fresh := mk()
			freshShadow := fresh.Deployed()
			want := make([]*Report, 0, len(changes))
			for i, c := range changes {
				want = append(want, fresh.integrateChangeCtx(context.Background(), c))
				freshShadow = shadowApply(freshShadow, c, want[i])
				label := fmt.Sprintf("serial step %d", i)
				assertSnapshotFresh(t, label, fresh)
				assertShadow(t, label, fresh, freshShadow)
				assertFullChecks(t, label, fresh)
			}

			for i := range want {
				if got[i].Accepted != want[i].Accepted || got[i].RejectedAt != want[i].RejectedAt {
					t.Fatalf("change %d (%s): stream decided %v@%q, serial %v@%q",
						i, changes[i], got[i].Accepted, got[i].RejectedAt, want[i].Accepted, want[i].RejectedAt)
				}
				if !reflect.DeepEqual(got[i].Findings, want[i].Findings) {
					t.Fatalf("change %d (%s): findings diverge:\nstream %v\nserial %v",
						i, changes[i], got[i].Findings, want[i].Findings)
				}
				if got[i].RejectedAt == StageSecurity {
					totalSecurityRejects++
				}
			}
			// The rollback invariant: after replays, every snapshot field
			// must be bit-identical to a fresh serial commit of the
			// same decisions.
			sf, ff := cacheFingerprint(streamed), cacheFingerprint(fresh)
			for key := range ff {
				if !reflect.DeepEqual(sf[key], ff[key]) {
					t.Errorf("cache %q diverges from a fresh serial commit:\nstream %+v\nserial %+v",
						key, sf[key], ff[key])
				}
			}

			// Both controllers' committed tables must also equal the
			// from-scratch oracle, not just each other.
			assertOracleParity(t, "stream", streamed, lastAccepted(got))
			assertOracleParity(t, "serial", fresh, lastAccepted(want))

			st := sched.Stats()
			totalReplays += st.Replays
			totalSpeculated += st.Speculated
		})
	}
	t.Logf("corpus totals: replays=%d speculated=%d securityRejects=%d",
		totalReplays, totalSpeculated, totalSecurityRejects)
	// The corpus must actually exercise the machinery it guards: rollbacks,
	// verified speculation and inline security rejections all have to occur.
	if totalReplays == 0 || totalSpeculated == 0 || totalSecurityRejects == 0 {
		t.Fatalf("stress corpus too tame: replays=%d speculated=%d securityRejects=%d, want all > 0",
			totalReplays, totalSpeculated, totalSecurityRejects)
	}
}
