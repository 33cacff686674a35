package mcc

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
)

// --- warm-started mapping --------------------------------------------------

func TestWarmStartKeepsUntouchedPlacement(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []model.Function{
		fn("brake", model.ASILD, 5000, 500, 128),
		fn("acc", model.ASILC, 10000, 1500, 256),
		fn("infotainment", model.QM, 50000, 10000, 1024),
	} {
		if rep := m.ProposeUpdate(f); !rep.Accepted {
			t.Fatalf("deploy %s: %v", f.Name, rep.Findings)
		}
	}
	before := make(map[string]string)
	for _, in := range m.DeployedImpl().Tech.Instances {
		before[in.ID()] = in.Processor
	}

	rep := m.ProposeUpdate(fn("telemetry", model.QM, 100000, 2000, 64))
	if !rep.Accepted {
		t.Fatalf("telemetry rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
	tr := rep.StageTraceFor(StageMapping)
	if tr == nil || !strings.Contains(tr.Note(), "warm-start") {
		t.Fatalf("mapping trace = %+v, want warm-start note", tr)
	}
	for _, in := range m.DeployedImpl().Tech.Instances {
		if want, ok := before[in.ID()]; ok && in.Processor != want {
			t.Fatalf("warm start moved %s from %s to %s", in.ID(), want, in.Processor)
		}
	}
}

func TestWarmStartFallsBackToFullBestFit(t *testing.T) {
	// A 600 KiB function only fits if the deployed 500 KiB one is
	// reshuffled from the big processor to the small one — the residual
	// capacity alone cannot hold it, so warm-start must fall back to the
	// full best-fit instead of rejecting.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "big", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 1000, MaxSafety: model.ASILB},
			{Name: "small", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 500, MaxSafety: model.ASILB},
		},
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.ProposeUpdate(fn("f1", model.QM, 100000, 1000, 500)); !rep.Accepted {
		t.Fatalf("f1 rejected: %v", rep.Findings)
	}
	if got := m.DeployedImpl().Tech.Instances[0].Processor; got != "big" {
		t.Fatalf("f1 deployed on %s, want big", got)
	}

	rep := m.ProposeUpdate(fn("f2", model.QM, 100000, 2000, 600))
	if !rep.Accepted {
		t.Fatalf("f2 rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
	tr := rep.StageTraceFor(StageMapping)
	if tr == nil || !strings.Contains(tr.Note(), "fell back") {
		t.Fatalf("mapping trace = %+v, want fallback note", tr)
	}
	got := make(map[string]string)
	for _, in := range m.DeployedImpl().Tech.Instances {
		got[in.Function] = in.Processor
	}
	if got["f2"] != "big" || got["f1"] != "small" {
		t.Fatalf("placement = %v, want f2 on big, f1 reshuffled to small", got)
	}
}

func TestWarmStartRejectionRedecidedCold(t *testing.T) {
	// A warm-started placement that fails an acceptance test is re-decided
	// from scratch, so the verdict never depends on the warm-start
	// heuristic: the mapping stage must appear twice in the telemetry.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "only", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		},
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.ProposeUpdate(fn("a", model.ASILD, 10000, 5200, 1)); !rep.Accepted {
		t.Fatalf("a rejected: %v", rep.Findings)
	}
	rep := m.ProposeUpdate(fn("c", model.ASILD, 14000, 5200, 1))
	if rep.Accepted {
		t.Fatal("unschedulable update accepted")
	}
	if rep.RejectedAt != StageTiming {
		t.Fatalf("rejected at %s, want timing", rep.RejectedAt)
	}
	mappings := 0
	for _, tr := range rep.Stages {
		if tr.Stage == StageMapping {
			mappings++
		}
	}
	if mappings != 2 {
		t.Fatalf("mapping ran %d times, want 2 (warm pass + cold retry)", mappings)
	}
	// The rollback invariant holds across the retry.
	if m.Deployed().FunctionByName("c") != nil {
		t.Fatal("rejected function deployed")
	}
}

func TestSecurityRejectionSkipsColdRetry(t *testing.T) {
	// The security verdict depends on contracts and function/replica
	// identities only, never on placement, so a warm-started attempt it
	// rejects stands without the cold re-decision (no doubled pipeline
	// cost on policy-rejection-heavy streams).
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	srv := fn("acc", model.ASILC, 10000, 1000, 64)
	srv.Provides = []string{"accel_cmd"}
	srv.Contract.Domain = "drive"
	if rep := m.ProposeUpdate(srv); !rep.Accepted {
		t.Fatalf("server rejected: %v", rep.Findings)
	}
	cli := fn("telematics", model.QM, 50000, 1000, 64)
	cli.Requires = []string{"accel_cmd"}
	cli.Contract.Domain = "connectivity" // cross-domain, no permission
	rep := m.ProposeUpdate(cli)
	if rep.Accepted {
		t.Fatal("cross-domain access without permission accepted")
	}
	if rep.RejectedAt != StageSecurity {
		t.Fatalf("rejected at %s, want security", rep.RejectedAt)
	}
	mappings := 0
	for _, tr := range rep.Stages {
		if tr.Stage == StageMapping {
			mappings++
		}
	}
	if mappings != 1 {
		t.Fatalf("mapping ran %d times, want 1 (no cold retry for a placement-independent verdict)", mappings)
	}
}

// --- incremental synthesis -------------------------------------------------

func TestIncrementalSynthesisReusesUntouchedArtifacts(t *testing.T) {
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	prod := fn("radar", model.ASILD, 20000, 9000, 2048)
	prod.Provides = []string{"objects"}
	cons := fn("acc", model.ASILD, 20000, 9000, 2048)
	cons.Requires = []string{"objects"}
	fa := &model.FunctionalArchitecture{
		Functions: []model.Function{prod, cons},
		Flows:     []model.Flow{{From: "radar", To: "acc", Service: "objects", MsgBytes: 8, PeriodUS: 20000}},
	}
	if rep := m.ProposeArchitecture(fa); !rep.Accepted {
		t.Fatalf("baseline rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
	dep := m.DeployedImpl()
	depMsgs := append([]model.Message(nil), dep.Messages...)
	depConns := append([]model.Connection(nil), dep.Connections...)

	// A serviceless, flowless addition must not rebuild messages or
	// connections, and must reuse the task lists of untouched processors.
	rep := m.ProposeUpdate(fn("telemetry", model.QM, 100000, 2000, 64))
	if !rep.Accepted {
		t.Fatalf("telemetry rejected: %v (%s)", rep.Findings, rep.RejectedAt)
	}
	tr := rep.StageTraceFor(StageSynth)
	if tr == nil || !strings.Contains(tr.Note(), "reused") {
		t.Fatalf("synthesis trace = %+v, want reuse note", tr)
	}
	if !strings.Contains(tr.Note(), "messages reused") || !strings.Contains(tr.Note(), "connections reused") {
		t.Fatalf("synthesis note = %q, want reused messages and connections", tr.Note())
	}
	impl := m.DeployedImpl()
	if !reflect.DeepEqual(impl.Messages, depMsgs) {
		t.Fatalf("messages changed:\nwas %+v\nnow %+v", depMsgs, impl.Messages)
	}
	if !reflect.DeepEqual(impl.Connections, depConns) {
		t.Fatalf("connections changed:\nwas %+v\nnow %+v", depConns, impl.Connections)
	}
	// The incrementally assembled model must still be structurally sound.
	if err := impl.Validate(); err != nil {
		t.Fatalf("incremental impl invalid: %v", err)
	}
	if len(impl.Tasks) != len(dep.Tasks)+1 {
		t.Fatalf("tasks = %d, want %d", len(impl.Tasks), len(dep.Tasks)+1)
	}
}

func TestIncrementalSynthesisRejectsZeroScaledWCET(t *testing.T) {
	// A 1us WCET on a 2x processor scales to a zero-WCET task. The
	// from-scratch path rejects that via impl.Validate; the incremental
	// path must reach the same synthesis-stage verdict through its scoped
	// check of the rebuilt task set, not commit an invalid model.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "fast", Policy: model.SPP, SpeedFactor: 2.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		},
	}
	run := func(opts ...Option) *Report {
		m, err := New(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if rep := m.ProposeUpdate(fn("base", model.QM, 10000, 4000, 64)); !rep.Accepted {
			t.Fatalf("base rejected: %v", rep.Findings)
		}
		rep := m.ProposeUpdate(fn("tiny", model.QM, 10000, 1, 64))
		if m.Deployed().FunctionByName("tiny") != nil {
			t.Fatal("invalid function deployed")
		}
		return rep
	}
	ri := run()
	rs := run(WithoutIncremental())
	if ri.Accepted || rs.Accepted {
		t.Fatal("zero-scaled-WCET function accepted")
	}
	if ri.RejectedAt != StageSynth || rs.RejectedAt != StageSynth {
		t.Fatalf("rejected at %s / %s, want synthesis", ri.RejectedAt, rs.RejectedAt)
	}
}

func TestIncrementalValidationMatchesFullFindings(t *testing.T) {
	mkMCC := func(opts ...Option) *MCC {
		m, err := New(testPlatform(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if rep := m.ProposeUpdate(fn("base", model.QM, 50000, 1000, 64)); !rep.Accepted {
			t.Fatalf("base rejected: %v", rep.Findings)
		}
		return m
	}
	inc := mkMCC()
	ser := mkMCC(WithoutIncremental())

	bad := fn("broken", model.QM, 1000, 5000, 64) // WCET > deadline
	ri := inc.ProposeUpdate(bad)
	rs := ser.ProposeUpdate(bad)
	if ri.Accepted || rs.Accepted {
		t.Fatal("broken contract accepted")
	}
	if ri.RejectedAt != StageValidate || rs.RejectedAt != StageValidate {
		t.Fatalf("rejected at %s / %s, want validate", ri.RejectedAt, rs.RejectedAt)
	}
	if !reflect.DeepEqual(ri.Findings, rs.Findings) {
		t.Fatalf("findings diverge:\nincremental %v\nserial      %v", ri.Findings, rs.Findings)
	}
}

// --- satellite: one message per distinct crossed network -------------------

func TestSynthesizeMessagePerCrossedNetwork(t *testing.T) {
	// src on p0 fans out to dst replicas on p1 (reachable via netA) and p2
	// (reachable via netB): the flow loads BOTH buses, so one message per
	// distinct crossed network must be synthesized — charging only the
	// last-seen network would leave netA's real load out of the timing
	// acceptance test entirely.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "p0", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD},
			{Name: "p1", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILB},
			{Name: "p2", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILB},
		},
		Networks: []model.Network{
			{Name: "netA", BitsPerSec: 500_000, Attached: []string{"p0", "p1"}, Kind: "can"},
			{Name: "netB", BitsPerSec: 500_000, Attached: []string{"p0", "p2"}, Kind: "can"},
		},
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	src := fn("src", model.ASILD, 10000, 1000, 64)
	src.Provides = []string{"s"}
	dst := fn("dst", model.ASILB, 10000, 1000, 64)
	dst.Requires = []string{"s"}
	dst.Replicas = 2
	fa := &model.FunctionalArchitecture{
		Functions: []model.Function{src, dst},
		Flows:     []model.Flow{{From: "src", To: "dst", Service: "s", MsgBytes: 8, PeriodUS: 10000}},
	}
	tech := &model.TechnicalArchitecture{
		Platform: p,
		Func:     fa,
		Instances: []model.Instance{
			{Function: "src", Replica: 0, Processor: "p0"},
			{Function: "dst", Replica: 0, Processor: "p1"},
			{Function: "dst", Replica: 1, Processor: "p2"},
		},
	}
	impl, err := m.synthesize(tech, referenceIndex(m, fa, tech.Instances, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(impl.Messages) != 2 {
		t.Fatalf("messages = %+v, want one per crossed network", impl.Messages)
	}
	byNet := make(map[string]model.Message)
	for _, msg := range impl.Messages {
		byNet[msg.Network] = msg
	}
	for _, net := range []string{"netA", "netB"} {
		msg, ok := byNet[net]
		if !ok {
			t.Fatalf("no message on %s: %+v", net, impl.Messages)
		}
		if msg.Priority != 1 || msg.PeriodUS != 10000 {
			t.Fatalf("message on %s = %+v", net, msg)
		}
		if !strings.HasSuffix(msg.Name, "@"+net) {
			t.Fatalf("message name %q lacks network disambiguator", msg.Name)
		}
	}
	// Both buses must show up in the timing acceptance test.
	resources := make(map[string]bool)
	jobs := m.scanJobs(impl)
	for _, j := range jobs {
		resources[j.resource] = true
	}
	if !resources["netA"] || !resources["netB"] {
		t.Fatalf("timing jobs cover %v, want both networks", resources)
	}
	// Determinism: a second synthesis yields the identical message list.
	impl2, err := m.synthesize(tech, referenceIndex(m, fa, tech.Instances, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(impl.Messages, impl2.Messages) {
		t.Fatalf("message synthesis nondeterministic:\n%v\n%v", impl.Messages, impl2.Messages)
	}
}

func TestSynthesizeSingleNetworkNameUnchanged(t *testing.T) {
	// Flows crossing exactly one network keep the plain service:from->to
	// message name (no @network suffix).
	m, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatalf("rejected: %v", rep.Findings)
	}
	if len(rep.Impl.Messages) != 1 || rep.Impl.Messages[0].Name != "objects:radar->acc" {
		t.Fatalf("messages = %+v", rep.Impl.Messages)
	}
}

// --- satellite: timing analysis errors surface as findings -----------------

// A message rebuild re-derives every network's job, but a network whose
// message list came out unchanged keeps its digest: it stays clean (no
// re-analysis, no TimingDirty count), while its rate monitors still come
// back in the monitor delta like every rebuilt resource's.
func TestMessageRebuildKeepsUnchangedNetworkClean(t *testing.T) {
	// Safety levels and RAM budgets pin every placement: src, w and the
	// moved dst fit only p0; dst, x and v only p1; u only p2. netA links
	// p0-p1, netB p1-p2.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "p0", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 256, MaxSafety: model.ASILD},
			{Name: "p1", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 1024, MaxSafety: model.ASILB},
			{Name: "p2", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.QM},
		},
		Networks: []model.Network{
			{Name: "netA", BitsPerSec: 500_000, Attached: []string{"p0", "p1"}, Kind: "can"},
			{Name: "netB", BitsPerSec: 500_000, Attached: []string{"p1", "p2"}, Kind: "can"},
		},
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	pair := func(from, to, svc string, fromSafety, toSafety model.SafetyLevel, fromRAM, toRAM int64) (model.Function, model.Function, model.Flow) {
		a, b := fn(from, fromSafety, 20000, 500, fromRAM), fn(to, toSafety, 20000, 500, toRAM)
		a.Provides, b.Requires = []string{svc}, []string{svc}
		return a, b, model.Flow{From: from, To: to, Service: svc, MsgBytes: 8, PeriodUS: 20000}
	}
	src, dst, f1 := pair("src", "dst", "s1", model.ASILD, model.ASILB, 64, 512)
	w, x, f3 := pair("w", "x", "s3", model.ASILD, model.ASILB, 64, 256)
	u, v, f2 := pair("u", "v", "s2", model.QM, model.ASILB, 2048, 200)
	fa := &model.FunctionalArchitecture{
		Functions: []model.Function{src, dst, w, x, u, v},
		Flows:     []model.Flow{f1, f3, f2},
	}
	if rep := m.ProposeArchitecture(fa); !rep.Accepted {
		t.Fatalf("baseline rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}
	netsOf := func() map[string]bool {
		nets := make(map[string]bool)
		for _, msg := range m.DeployedImpl().Messages {
			nets[msg.Network] = true
		}
		return nets
	}
	if nets := netsOf(); !nets["netA"] || !nets["netB"] {
		t.Fatalf("baseline loads networks %v, want netA and netB", nets)
	}
	netB := m.DeployedImpl().MessagesOn("netB")

	// Moving dst next to src drops f1's message from netA; netB's list
	// is untouched.
	moved := dst
	moved.Contract.Safety, moved.Contract.Resources.RAMKiB = model.ASILD, 64
	rep := m.ProposeUpdate(moved)
	if !rep.Accepted {
		t.Fatalf("move rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}
	if tr := rep.StageTraceFor(StageSynth); tr == nil || !strings.Contains(tr.Note(), "messages rebuilt") {
		t.Fatalf("move did not rebuild messages: %+v", tr)
	}
	if got := m.DeployedImpl().MessagesOn("netB"); !reflect.DeepEqual(got, netB) {
		t.Fatalf("netB list changed: %v, was %v", got, netB)
	}
	var reanalyzed []string
	for _, tr := range rep.TimingDelta {
		reanalyzed = append(reanalyzed, tr.Resource)
	}
	slices.Sort(reanalyzed)
	if want := []string{"netA", "p0", "p1"}; !slices.Equal(reanalyzed, want) || rep.TimingDirty != len(want) {
		t.Fatalf("re-analyzed %v (TimingDirty %d), want %v", reanalyzed, rep.TimingDirty, want)
	}
	if rep.TimingScans != 2+len(p.Networks) {
		t.Fatalf("TimingScans = %d, want the 2 affected processors and every network", rep.TimingScans)
	}
	for _, msg := range netB {
		if !slices.ContainsFunc(rep.MonitorDelta, func(s MonitorSpec) bool { return s.Kind == MonitorRate && s.Target == msg.Name }) {
			t.Fatalf("monitor delta %v lacks netB's rate monitor %s", rep.MonitorDelta, msg.Name)
		}
	}
	assertSnapshotFresh(t, "after the move", m)
}

func TestTimingAnalysisErrorSurfacedAsFinding(t *testing.T) {
	// A runTimingJob error (here: a malformed task set with duplicate
	// priorities, which the CPA layer refuses to analyze) must reject the
	// candidate with a finding naming the resource — not flip the verdict
	// silently while dropping the resource from the report.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "only", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		},
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	impl := &model.ImplementationModel{
		Tasks: []model.Task{
			{Name: "a#0", Processor: "only", Priority: 1, PeriodUS: 10000, WCETUS: 1000, DeadlineUS: 10000},
			{Name: "b#0", Processor: "only", Priority: 1, PeriodUS: 10000, WCETUS: 1000, DeadlineUS: 10000},
		},
	}
	m.att.ctx = t.Context()
	out := m.analyzeTiming(m.scanJobs(impl))
	if len(out.findings) == 0 {
		t.Fatal("analysis error produced no findings")
	}
	found := false
	for _, f := range out.findings {
		if strings.Contains(f, "analysis of only failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no analysis-error finding naming the resource: %v", out.findings)
	}
	// The errored resource is excluded from the timing delta but the job
	// list (the digests a commit would persist) still covers it, so a
	// later fix is detected as dirty.
	if len(out.delta) != 0 {
		t.Fatalf("errored resource kept a WCRT table: %+v", out.delta)
	}
	if len(m.att.jobs) != 1 || m.att.jobs[0].resource != "only" {
		t.Fatalf("errored resource missing from the job list: %+v", m.att.jobs)
	}
}

// --- satellite: reintegration rollback invariant ---------------------------

func TestReintegrationRejectionKeepsDeployedStateUntouched(t *testing.T) {
	// An observed WCET that passes contract validation but breaks
	// schedulability must leave the deployed configuration, the WCRT
	// tables, and the dirty-tracking digests untouched.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "only", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 8192, MaxSafety: model.ASILD},
		},
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.ProposeUpdate(fn("a", model.ASILD, 10000, 5200, 1)); !rep.Accepted {
		t.Fatalf("a rejected: %v", rep.Findings)
	}
	if rep := m.ProposeUpdate(fn("c", model.ASILD, 14000, 3000, 1)); !rep.Accepted {
		t.Fatalf("c rejected: %v", rep.Findings)
	}

	implBefore := m.DeployedImpl()
	snapBefore, tableBefore := m.snap, m.snap.res

	// Observed 5200us for c: within its 14000us deadline (contract
	// validation passes) but unschedulable next to a (WCRT 15600).
	m.RecordObservedWCET("c", 5200)
	rep := m.ReintegrateWithObservations()
	if rep.Accepted {
		t.Fatal("schedulability-breaking observation accepted")
	}
	if rep.RejectedAt != StageTiming {
		t.Fatalf("rejected at %s, want timing", rep.RejectedAt)
	}

	if got := m.Deployed().FunctionByName("c").Contract.RealTime.WCETUS; got != 3000 {
		t.Fatalf("deployed WCET evolved to %d after rejection", got)
	}
	if m.DeployedImpl() != implBefore {
		t.Fatal("deployed implementation model replaced after rejection")
	}
	// The committed table (WCRT tables and dirty-tracking digests) is
	// immutable once installed, so an untouched pointer means untouched
	// content.
	if m.snap.res != tableBefore {
		t.Fatal("committed timing table replaced after rejection")
	}
	if m.snap != snapBefore {
		t.Fatal("committed snapshot replaced after rejection")
	}
	// A subsequent benign proposal still integrates cleanly.
	if rep := m.ProposeUpdate(fn("t", model.QM, 100000, 1000, 1)); !rep.Accepted {
		t.Fatalf("post-rejection proposal rejected: %v", rep.Findings)
	}
}
