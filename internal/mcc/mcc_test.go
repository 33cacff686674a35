package mcc

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

func testPlatform() *model.Platform {
	return &model.Platform{
		Processors: []model.Processor{
			{Name: "ecu-safe", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD},
			{Name: "ecu-safe2", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD},
			{Name: "ecu-perf", Policy: model.SPP, SpeedFactor: 2.0, RAMKiB: 8192, MaxSafety: model.ASILB},
		},
		Networks: []model.Network{
			{Name: "can0", BitsPerSec: 500_000, Attached: []string{"ecu-safe", "ecu-safe2", "ecu-perf"}, Kind: "can"},
		},
	}
}

func fn(name string, safetyLvl model.SafetyLevel, periodUS, wcetUS int64, ram int64) model.Function {
	return model.Function{
		Name: name,
		Contract: model.Contract{
			Safety:    safetyLvl,
			RealTime:  model.RealTimeContract{PeriodUS: periodUS, WCETUS: wcetUS},
			Resources: model.ResourceContract{RAMKiB: ram},
		},
	}
}

func TestInitialDeploymentAccepted(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	fa := &model.FunctionalArchitecture{
		Functions: []model.Function{
			fn("brake", model.ASILD, 5000, 500, 128),
			fn("acc", model.ASILC, 10000, 1500, 256),
			fn("infotainment", model.QM, 50000, 10000, 1024),
		},
	}
	rep := m.ProposeArchitecture(fa)
	if !rep.Accepted {
		t.Fatalf("rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}
	if len(rep.Impl.Tasks) != 3 {
		t.Fatalf("tasks = %d", len(rep.Impl.Tasks))
	}
	if monitors := rep.FullMonitors(); len(monitors) != 3 {
		t.Fatalf("monitors = %d", len(monitors))
	}
	if m.Deployed().FunctionByName("brake") == nil {
		t.Fatal("brake not deployed")
	}
	if m.DeployedImpl() == nil {
		t.Fatal("no deployed impl")
	}
}

func TestUpdateRejectedKeepsOldConfig(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	rep := m.ProposeUpdate(fn("brake", model.ASILD, 5000, 500, 128))
	if !rep.Accepted {
		t.Fatalf("initial deploy rejected: %v", rep.Findings)
	}
	// Overloading update: WCET 6000 in period 5000 violates the contract
	// validation (WCET > deadline).
	bad := fn("brake", model.ASILD, 5000, 6000, 128)
	rep = m.ProposeUpdate(bad)
	if rep.Accepted {
		t.Fatal("infeasible update accepted")
	}
	if rep.RejectedAt != StageValidate {
		t.Fatalf("rejected at %s, want validate", rep.RejectedAt)
	}
	// Deployed config untouched.
	if got := m.Deployed().FunctionByName("brake").Contract.RealTime.WCETUS; got != 500 {
		t.Fatalf("deployed WCET = %d, rollback failed", got)
	}
}

func TestTimingRejection(t *testing.T) {
	// Single ASIL-D-capable processor: force everything onto it and
	// overload it.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "only", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		},
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.ProposeUpdate(fn("a", model.ASILD, 10000, 6000, 1)); !rep.Accepted {
		t.Fatalf("a rejected: %v", rep.Findings)
	}
	// b fits utilization-wise only if a isn't there; together 0.6+0.6 > 1:
	// mapping fails (no feasible processor) — also a correct rejection.
	rep := m.ProposeUpdate(fn("b", model.ASILD, 10000, 6000, 1))
	if rep.Accepted {
		t.Fatal("overload accepted")
	}
	if rep.RejectedAt != StageMapping && rep.RejectedAt != StageTiming {
		t.Fatalf("rejected at %s", rep.RejectedAt)
	}

	// A subtler case: fits by utilization (89%) but is unschedulable under
	// any fixed-priority order: a: C=5200 T=10000, c: C=5200 T=14000.
	// WCRT(c) spans a multi-activation busy window: 15600 > 14000.
	m2, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep := m2.ProposeUpdate(fn("a", model.ASILD, 10000, 5200, 1)); !rep.Accepted {
		t.Fatalf("a rejected: %v", rep.Findings)
	}
	c := fn("c", model.ASILD, 14000, 5200, 1)
	rep = m2.ProposeUpdate(c)
	if rep.Accepted {
		t.Fatal("deadline-missing config accepted")
	}
	if rep.RejectedAt != StageTiming {
		t.Fatalf("rejected at %s, want timing", rep.RejectedAt)
	}
	found := false
	for _, f := range rep.Findings {
		if strings.Contains(f, "misses deadline") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no deadline finding: %v", rep.Findings)
	}
}

func TestSafetyPlacement(t *testing.T) {
	// Platform whose only fast processor is ASIL-B: an ASIL-D function
	// must land on the certified one; if none fits, reject at mapping.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "perf", Policy: model.SPP, SpeedFactor: 2.0, RAMKiB: 8192, MaxSafety: model.ASILB},
		},
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := m.ProposeUpdate(fn("brake", model.ASILD, 5000, 500, 128))
	if rep.Accepted {
		t.Fatal("ASIL-D on ASIL-B platform accepted")
	}
	if rep.RejectedAt != StageMapping {
		t.Fatalf("rejected at %s, want mapping", rep.RejectedAt)
	}
}

func TestFailOperationalReplicaSeparation(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	brake := fn("brake", model.ASILD, 5000, 500, 128)
	brake.Contract.FailOperational = true
	brake.Replicas = 2
	rep := m.ProposeUpdate(brake)
	if !rep.Accepted {
		t.Fatalf("rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
	procs := map[string]bool{}
	for _, in := range rep.Impl.Tech.Instances {
		procs[in.Processor] = true
	}
	if len(procs) != 2 {
		t.Fatalf("replicas share a processor: %v", rep.Impl.Tech.Instances)
	}
	// The first commit is a from-scratch one: its snapshot comes from the
	// pass index, held here to a rebuild that derives its own.
	assertSnapshotFresh(t, "replicated first deploy", m)
}

func TestSecurityRejection(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	srv := fn("acc", model.ASILC, 10000, 1000, 64)
	srv.Provides = []string{"accel_cmd"}
	srv.Contract.Domain = "drive"
	cli := fn("telematics", model.QM, 50000, 1000, 64)
	cli.Requires = []string{"accel_cmd"}
	cli.Contract.Domain = "connectivity"
	fa := &model.FunctionalArchitecture{Functions: []model.Function{srv, cli}}
	rep := m.ProposeArchitecture(fa)
	if rep.Accepted {
		t.Fatal("cross-domain access without permission accepted")
	}
	if rep.RejectedAt != StageSecurity {
		t.Fatalf("rejected at %s, want security", rep.RejectedAt)
	}
	// With the explicit permission the update passes.
	cli.Contract.AllowedPeers = []string{"accel_cmd"}
	fa2 := &model.FunctionalArchitecture{Functions: []model.Function{srv, cli}}
	rep = m.ProposeArchitecture(fa2)
	if !rep.Accepted {
		t.Fatalf("allowed cross-domain rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
}

func TestMessagesSynthesizedForCrossProcessorFlows(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	// Force separation: radar is QM (only fits ecu-perf is not forced...)
	// Use safety levels to split: producer ASIL-B fits perf cores too, so
	// instead use two ASIL-D functions with big RAM so they spread across
	// the two safe ECUs by best-fit, plus a flow between them.
	prod := fn("radar", model.ASILD, 20000, 9000, 2048)
	prod.Provides = []string{"objects"}
	cons := fn("acc", model.ASILD, 20000, 9000, 2048)
	cons.Requires = []string{"objects"}
	fa := &model.FunctionalArchitecture{
		Functions: []model.Function{prod, cons},
		Flows:     []model.Flow{{From: "radar", To: "acc", Service: "objects", MsgBytes: 8, PeriodUS: 20000}},
	}
	rep := m.ProposeArchitecture(fa)
	if !rep.Accepted {
		t.Fatalf("rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
	// Best-fit places the two heavy tasks on different ECUs -> one message.
	if len(rep.Impl.Messages) != 1 {
		t.Fatalf("messages = %v", rep.Impl.Messages)
	}
	msg := rep.Impl.Messages[0]
	if msg.Network != "can0" || msg.PeriodUS != 20000 {
		t.Fatalf("message = %+v", msg)
	}
	// The network timing table must include it.
	foundNet := false
	for _, tr := range rep.FullTiming() {
		if tr.Resource == "can0" {
			foundNet = true
			if len(tr.Results) != 1 || !tr.Results[0].Schedulable {
				t.Fatalf("can0 results = %+v", tr.Results)
			}
		}
	}
	if !foundNet {
		t.Fatal("no can0 timing result")
	}
	// Rate monitor planned for the message.
	monitors := rep.FullMonitors()
	rateFound := false
	for _, ms := range monitors {
		if ms.Kind == MonitorRate && ms.Enforce {
			rateFound = true
		}
	}
	if !rateFound {
		t.Fatalf("no rate monitor: %v", monitors)
	}
}

func TestProposeRemoval(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.ProposeUpdate(fn("a", model.QM, 10000, 1000, 64)); !rep.Accepted {
		t.Fatalf("deploy: %v", rep.Findings)
	}
	rep := m.ProposeRemoval("a")
	if !rep.Accepted {
		t.Fatalf("removal rejected: %v", rep.Findings)
	}
	if m.Deployed().FunctionByName("a") != nil {
		t.Fatal("function still deployed")
	}
}

func TestEvolvingContractFromObservations(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.ProposeUpdate(fn("acc", model.ASILC, 10000, 1000, 64)); !rep.Accepted {
		t.Fatalf("deploy: %v", rep.Findings)
	}
	// Execution domain observes 1500us max (model said 1000us).
	m.RecordObservedWCET("acc", 1500)
	rep := m.ReintegrateWithObservations()
	if !rep.Accepted {
		t.Fatalf("reintegration rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
	if got := m.Deployed().FunctionByName("acc").Contract.RealTime.WCETUS; got != 1500 {
		t.Fatalf("evolved WCET = %d, want 1500", got)
	}
	// An observation exceeding the deadline must be rejected and the
	// contract must not evolve.
	m.RecordObservedWCET("acc", 20000)
	rep = m.ReintegrateWithObservations()
	if rep.Accepted {
		t.Fatal("impossible observation accepted")
	}
	if got := m.Deployed().FunctionByName("acc").Contract.RealTime.WCETUS; got != 1500 {
		t.Fatalf("deployed WCET changed to %d after rejection", got)
	}
}

func TestSpeedScalingInSynthesis(t *testing.T) {
	// On the 2x processor, WCET halves.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "fast", Policy: model.SPP, SpeedFactor: 2.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		},
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := m.ProposeUpdate(fn("a", model.ASILB, 10000, 4000, 64))
	if !rep.Accepted {
		t.Fatalf("rejected: %v", rep.Findings)
	}
	if got := rep.Impl.Tasks[0].WCETUS; got != 2000 {
		t.Fatalf("scaled WCET = %d, want 2000", got)
	}
}

func TestRemovalOfRequiredProviderRejected(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	srv := fn("radar", model.ASILB, 20000, 1000, 64)
	srv.Provides = []string{"objects"}
	cli := fn("acc", model.ASILC, 20000, 1000, 64)
	cli.Requires = []string{"objects"}
	fa := &model.FunctionalArchitecture{Functions: []model.Function{srv, cli}}
	if rep := m.ProposeArchitecture(fa); !rep.Accepted {
		t.Fatalf("deploy rejected: %v", rep.Findings)
	}
	// Removing the provider strands acc's requirement: reject, keep old.
	rep := m.ProposeRemoval("radar")
	if rep.Accepted {
		t.Fatal("removal of required provider accepted")
	}
	if rep.RejectedAt != StageValidate {
		t.Fatalf("rejected at %s", rep.RejectedAt)
	}
	if m.Deployed().FunctionByName("radar") == nil {
		t.Fatal("rollback failed")
	}
}

func TestIntegrationDeterministic(t *testing.T) {
	run := func() *Report {
		m, err := New(testPlatform())
		if err != nil {
			t.Fatal(err)
		}
		fa := &model.FunctionalArchitecture{
			Functions: []model.Function{
				fn("a", model.ASILD, 10000, 1000, 64),
				fn("b", model.ASILB, 20000, 4000, 128),
				fn("c", model.QM, 50000, 9000, 256),
			},
		}
		return m.ProposeArchitecture(fa)
	}
	r1, r2 := run(), run()
	if !r1.Accepted || !r2.Accepted {
		t.Fatal("deploys rejected")
	}
	if len(r1.Impl.Tasks) != len(r2.Impl.Tasks) {
		t.Fatal("task counts differ")
	}
	for i := range r1.Impl.Tasks {
		if r1.Impl.Tasks[i] != r2.Impl.Tasks[i] {
			t.Fatalf("task %d differs: %+v vs %+v", i, r1.Impl.Tasks[i], r2.Impl.Tasks[i])
		}
	}
}

func TestStartupOrder(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	radar := fn("radar", model.ASILB, 20000, 1000, 64)
	radar.Provides = []string{"objects"}
	acc := fn("acc", model.ASILC, 20000, 1000, 64)
	acc.Requires = []string{"objects"}
	acc.Provides = []string{"accel_cmd"}
	brake := fn("brake", model.ASILD, 10000, 500, 64)
	brake.Requires = []string{"accel_cmd"}
	fa := &model.FunctionalArchitecture{Functions: []model.Function{radar, acc, brake}}
	rep := m.ProposeArchitecture(fa)
	if !rep.Accepted {
		t.Fatalf("rejected: %v", rep.Findings)
	}
	order, err := StartupOrder(rep.Impl)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	// Servers before clients: radar < acc < brake.
	if !(pos["radar#0"] < pos["acc#0"] && pos["acc#0"] < pos["brake#0"]) {
		t.Fatalf("order = %v", order)
	}
	if len(order) != 3 {
		t.Fatalf("order covers %d instances", len(order))
	}
}

func TestStartupOrderCycleDetected(t *testing.T) {
	// Hand-built implementation model with a session cycle.
	plat := testPlatform()
	fa := &model.FunctionalArchitecture{
		Functions: []model.Function{
			{Name: "a", Provides: []string{"sa"}, Requires: []string{"sb"},
				Contract: model.Contract{RealTime: model.RealTimeContract{PeriodUS: 10000, WCETUS: 100}}},
			{Name: "b", Provides: []string{"sb"}, Requires: []string{"sa"},
				Contract: model.Contract{RealTime: model.RealTimeContract{PeriodUS: 10000, WCETUS: 100}}},
		},
	}
	tech := &model.TechnicalArchitecture{
		Platform: plat, Func: fa,
		Instances: []model.Instance{
			{Function: "a", Processor: "ecu-safe"},
			{Function: "b", Processor: "ecu-safe"},
		},
	}
	impl := &model.ImplementationModel{
		Tech: tech,
		Connections: []model.Connection{
			{Client: "a#0", Server: "b#0", Service: "sb"},
			{Client: "b#0", Server: "a#0", Service: "sa"},
		},
	}
	if _, err := StartupOrder(impl); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestNewRejectsInvalidPlatform(t *testing.T) {
	bad := &model.Platform{Processors: []model.Processor{{Name: "x", Policy: "bogus", SpeedFactor: 1}}}
	if _, err := New(bad); err == nil {
		t.Fatal("invalid platform accepted")
	}
}

// TestIncrementalMatchesSerialBaseline drives the same proposal stream
// through the full-incremental engine and the seed-equivalent serial
// baseline; every decision must be identical — the optimizations may only
// change how fast the answer arrives, never the answer. Its memoized WCRT
// tables are held to a from-scratch analysis: every accepted report's
// whole-table view must equal FromScratchTables over the implementation it
// committed.
func TestIncrementalMatchesSerialBaseline(t *testing.T) {
	stream := []model.Function{
		fn("brake", model.ASILD, 5000, 500, 128),
		fn("acc", model.ASILC, 10000, 1500, 256),
		fn("infotainment", model.QM, 50000, 10000, 1024),
		fn("hog", model.ASILD, 10000, 9800, 64), // timing/mapping trouble
		fn("telemetry", model.QM, 100000, 2000, 64),
		fn("acc", model.ASILC, 10000, 1800, 256), // update in place
	}
	full, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	ser, err := New(testPlatform(), WithoutIncremental())
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for i, f := range stream {
		rf := full.ProposeUpdate(f)
		rs := ser.ProposeUpdate(f)
		if rf.Accepted != rs.Accepted || rf.RejectedAt != rs.RejectedAt {
			t.Fatalf("proposal %d (%s): full-incremental %v/%s vs serial %v/%s",
				i, f.Name, rf.Accepted, rf.RejectedAt, rs.Accepted, rs.RejectedAt)
		}
		if !rf.Accepted {
			continue
		}
		accepted++
		// The delta legitimately covers only the dirty resources; the
		// materialized whole-table view must equal a from-scratch
		// analysis at the committed placement.
		want, _, err := FromScratchTables(full.platform, full.DeployedImpl())
		if err != nil {
			t.Fatalf("proposal %d: from-scratch oracle failed: %v", i, err)
		}
		if got := rf.FullTiming(); !reflect.DeepEqual(got, want) {
			t.Fatalf("proposal %d timing tables diverge from the from-scratch analysis:\nfull-incremental %+v\nfrom scratch     %+v", i, got, want)
		}
	}
	if accepted == 0 {
		t.Fatal("stream accepted nothing; the table check never ran")
	}
	if st := ser.TimingCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("serial baseline used the analyzer: %+v", st)
	}
}

// TestDirtyTrackingSkipsUntouchedResources verifies that re-proposing a
// configuration identical to the deployed one performs no new analysis.
func TestDirtyTrackingSkipsUntouchedResources(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	f := fn("brake", model.ASILD, 5000, 500, 128)
	if rep := m.ProposeUpdate(f); !rep.Accepted {
		t.Fatalf("rejected: %v", rep.Findings)
	}
	before := m.TimingCacheStats()
	rep := m.ProposeUpdate(f) // identical contract: every resource clean
	if !rep.Accepted {
		t.Fatalf("identical re-proposal rejected: %v", rep.Findings)
	}
	if len(rep.FullTiming()) == 0 {
		t.Fatal("clean re-proposal lost its timing tables")
	}
	if len(rep.TimingDelta) != 0 {
		t.Fatalf("clean re-proposal carries a non-empty timing delta: %+v", rep.TimingDelta)
	}
	after := m.TimingCacheStats()
	if after.Misses != before.Misses || after.Hits != before.Hits {
		t.Fatalf("clean re-proposal touched the analyzer: before %+v after %+v", before, after)
	}
}
