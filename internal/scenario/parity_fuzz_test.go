package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/safety"
	"repro/internal/security"
)

// Differential parity harness: genfleet-random platforms and change
// streams are driven through the fully incremental engine, the
// from-scratch serial oracle (WithoutIncremental), and the stream
// scheduler side by side. Every engine places by one policy — keep the
// committed instances of untouched functions, best-fit the diff, fall back
// to a full best-fit when the diff does not fit or a placement-dependent
// stage rejects — so every comparison is strict:
//
//   - incremental vs from-scratch serial: equal verdicts and findings on
//     every change, and after every change equal placements and equal
//     DeployedImpl() tasks, messages and connections;
//   - incremental vs stream-parallel: equal verdicts, findings and
//     materialized tables on every change, and an equal final deployment
//     (the scheduler's window/replay construction guarantees identity
//     with serial proposals on the same engine).
//
// The corpus below runs in CI on every build, plain and with replicated
// baseline functions, and so does a bounded run of FuzzMCCDecisionParity;
// any divergence the fuzzer finds is a bug. The checked-in fuzz testdata
// seed (28) is one the harness found while the oracle still re-placed the
// whole fleet on every proposal: serial rejected at timing where the
// incremental engine accepted.

// parityCorpus seeds the CI corpus: a spread of platform sizes, chain
// depths, headrooms, and change mixes, including removal-heavy and
// rejection-heavy streams. 28, 168, 483 and 489 decided differently while
// the oracle re-placed the whole fleet; the seeds from 0x2a5f on set
// paritySpec's bits 9–16, so updates, removals, broken contracts and
// cross-domain clients occur too (TestMCCDecisionParityCorpus asserts it).
var parityCorpus = []uint64{0, 1, 2, 3, 5, 8, 13, 21, 28, 42, 99, 168, 483, 489, 1234, 0xdead,
	0x2a5f, 0xca1a, 0x1367b, 0x15ad7}

// parityChanges is the length of every parity case's change stream.
const parityChanges = 24

// paritySpec derives a small randomized fleet spec from a fuzz seed. The
// shape parameters are folded out of the seed so the fuzzer explores
// platform size, topology, headroom, and change mix together. Seeds below
// 512 stream adds only: the other kinds' weights come from bits 9–16.
func paritySpec(seed uint64) FleetSpec {
	return FleetSpec{
		Seed:       int64(seed),
		Processors: 4 + int(seed%13),      // 4..16
		Segments:   int(seed % 3),         // 0..2 (+ backbone)
		ChainDepth: 2 + int(seed>>3)%3,    // 2..4
		FnsPerProc: 1.5 + float64(seed%5), // 1.5..5.5
		Headroom:   0.2 + float64(seed>>5%5)*0.15,
		Mix: ChangeMix{
			Add:         1 + int(seed>>7%6),
			Update:      int(seed >> 9 % 4),
			Remove:      int(seed >> 11 % 3),
			Broken:      int(seed >> 13 % 3),
			CrossDomain: int(seed >> 15 % 3),
		},
	}
}

// replicateEvery5th sets Replicas: 2 on every 5th baseline function. Run
// before fleet.Changes, so generated updates of those functions copy it.
func replicateEvery5th(fleet *Fleet) {
	for i := 0; i < len(fleet.Baseline.Functions); i += 5 {
		fleet.Baseline.Functions[i].Replicas = 2
	}
}

// changeKind names the ChangeMix kind that generated c.
func changeKind(c mcc.Change) string {
	switch {
	case c.Update == nil:
		return "remove"
	case strings.HasPrefix(c.Update.Name, "telem"):
		return "add"
	case strings.HasPrefix(c.Update.Name, "broken"):
		return "broken"
	case strings.HasPrefix(c.Update.Name, "xdom"):
		return "cross-domain"
	}
	return "update"
}

func verdict(rep *mcc.Report) string {
	if rep.Accepted {
		return "accept"
	}
	return fmt.Sprintf("reject@%s", rep.RejectedAt)
}

func verdicts(reports []*mcc.Report) []string {
	out := make([]string, 0, len(reports))
	for _, rep := range reports {
		out = append(out, verdict(rep))
	}
	return out
}

func placements(m *mcc.MCC) []string {
	impl := m.DeployedImpl()
	if impl == nil {
		return nil
	}
	out := make([]string, 0, len(impl.Tech.Instances))
	for _, in := range impl.Tech.Instances {
		out = append(out, in.ID()+"@"+in.Processor)
	}
	return out
}

// assertSameDeployment fails unless two engines hold equal placements and
// equal DeployedImpl() tasks, messages and connections.
func assertSameDeployment(t *testing.T, seed uint64, change int, label string, a, b *mcc.MCC) {
	t.Helper()
	if pa, pb := placements(a), placements(b); !slices.Equal(pa, pb) {
		t.Fatalf("seed %#x: %s placements diverge after change %d:\n%v\n%v", seed, label, change, pa, pb)
	}
	ia, ib := a.DeployedImpl(), b.DeployedImpl()
	switch {
	case !slices.Equal(ia.Tasks, ib.Tasks):
		t.Fatalf("seed %#x: %s tasks diverge after change %d", seed, label, change)
	case !slices.Equal(ia.Messages, ib.Messages):
		t.Fatalf("seed %#x: %s messages diverge after change %d", seed, label, change)
	case !slices.Equal(ia.Connections, ib.Connections):
		t.Fatalf("seed %#x: %s connections diverge after change %d", seed, label, change)
	}
}

// runParityCase decides fleet's baseline and change stream on the three
// engines and holds them to each other strictly (see the file comment).
func runParityCase(t *testing.T, seed uint64, fleet *Fleet, changes []mcc.Change) {
	t.Helper()
	newMCC := func(opts ...mcc.Option) *mcc.MCC {
		m, err := mcc.New(fleet.Platform, opts...)
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		return m
	}
	propose := func(m *mcc.MCC, c mcc.Change) *mcc.Report {
		if c.Update != nil {
			return m.ProposeUpdate(*c.Update)
		}
		return m.ProposeRemoval(c.Remove)
	}

	serial := newMCC(mcc.WithoutIncremental())
	inc := newMCC()
	streamed := newMCC()
	sBase := serial.ProposeArchitecture(fleet.Baseline)
	iBase := inc.ProposeArchitecture(fleet.Baseline)
	tBase := streamed.ProposeArchitecture(fleet.Baseline)
	if sBase.Accepted != iBase.Accepted || iBase.Accepted != tBase.Accepted {
		t.Fatalf("seed %#x: baseline verdicts diverge: serial=%v incremental=%v stream=%v",
			seed, sBase.Accepted, iBase.Accepted, tBase.Accepted)
	}
	if !sBase.Accepted {
		return // infeasible baseline: nothing to stream
	}
	assertReportMatchesOracle(t, seed, -1, "serial", fleet.Platform, serial, sBase)
	assertReportMatchesOracle(t, seed, -1, "incremental", fleet.Platform, inc, iBase)
	assertReportMatchesOracle(t, seed, -1, "stream", fleet.Platform, streamed, tBase)
	assertSameDeployment(t, seed, -1, "serial/incremental", serial, inc)

	// Serial vs incremental: verdicts, findings and the whole deployment
	// after every change — a scoped safety/security rejection must name
	// exactly the findings the from-scratch check names.
	var incReports []*mcc.Report
	for i, c := range changes {
		sr, ir := propose(serial, c), propose(inc, c)
		incReports = append(incReports, ir)
		assertReportMatchesOracle(t, seed, i, "serial", fleet.Platform, serial, sr)
		assertReportMatchesOracle(t, seed, i, "incremental", fleet.Platform, inc, ir)
		if verdict(sr) != verdict(ir) {
			t.Fatalf("seed %#x: verdict divergence at change %d: serial %s, incremental %s",
				seed, i, verdict(sr), verdict(ir))
		}
		if !reflect.DeepEqual(sr.Findings, ir.Findings) {
			t.Fatalf("seed %#x: findings divergence at change %d (%s):\nserial      %v\nincremental %v",
				seed, i, verdict(sr), sr.Findings, ir.Findings)
		}
		assertSameDeployment(t, seed, i, "serial/incremental", serial, inc)
		assertCommittedClean(t, seed, i, "incremental", inc)
	}

	// Incremental vs stream-parallel: verdicts AND findings, including
	// across rollback-then-recheck sequences (a window replay must
	// reproduce the serial findings verbatim).
	streamReports := mcc.NewStreamScheduler(streamed).Run(changes)
	want, got := verdicts(incReports), verdicts(streamReports)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %#x: stream verdicts diverge from serial proposals on the same engine:\nproposals %v\nstream %v",
			seed, want, got)
	}
	for i := range incReports {
		if !reflect.DeepEqual(streamReports[i].Findings, incReports[i].Findings) {
			t.Fatalf("seed %#x: stream findings diverge at change %d:\nproposals %v\nstream %v",
				seed, i, incReports[i].Findings, streamReports[i].Findings)
		}
		// Same engine, serial-equivalent commit order: every accepted
		// report's materialized tables must reproduce the serial
		// proposal's — bound snapshots mid-window included.
		if streamReports[i].Accepted {
			if !reflect.DeepEqual(streamReports[i].FullTiming(), incReports[i].FullTiming()) {
				t.Fatalf("seed %#x: stream FullTiming diverges at change %d", seed, i)
			}
			if !reflect.DeepEqual(streamReports[i].FullMonitors(), incReports[i].FullMonitors()) {
				t.Fatalf("seed %#x: stream FullMonitors diverges at change %d", seed, i)
			}
		}
	}
	// The engine state now reflects the final commit, so the from-scratch
	// oracle applies to the last accepted report.
	for i := len(streamReports) - 1; i >= 0; i-- {
		if streamReports[i].Accepted {
			assertReportMatchesOracle(t, seed, i, "stream", fleet.Platform, streamed, streamReports[i])
			break
		}
	}
	assertSameDeployment(t, seed, len(changes)-1, "incremental/stream", inc, streamed)
	assertCommittedClean(t, seed, len(changes)-1, "stream", streamed)
}

// assertReportMatchesOracle compares an accepted report's materialized
// whole-table views against a cold from-scratch analysis of the engine's
// committed implementation. This is the delta-report completeness oracle:
// however small the report's TimingDelta/MonitorDelta, FullTiming and
// FullMonitors must reconstruct exactly the tables a from-scratch
// analysis of the committed configuration produces, on each engine.
func assertReportMatchesOracle(t *testing.T, seed uint64, change int, label string, p *model.Platform, m *mcc.MCC, rep *mcc.Report) {
	t.Helper()
	if rep == nil || !rep.Accepted {
		return
	}
	wantTiming, wantMonitors, err := mcc.FromScratchTables(p, m.DeployedImpl())
	if err != nil {
		t.Fatalf("seed %#x: %s from-scratch oracle failed after change %d: %v", seed, label, change, err)
	}
	if got := rep.FullTiming(); !reflect.DeepEqual(got, wantTiming) {
		t.Fatalf("seed %#x: %s FullTiming diverges from the from-scratch oracle after change %d:\ngot  %+v\nwant %+v",
			seed, label, change, got, wantTiming)
	}
	if got := rep.FullMonitors(); !reflect.DeepEqual(got, wantMonitors) {
		t.Fatalf("seed %#x: %s FullMonitors diverges from the from-scratch oracle after change %d:\ngot  %+v\nwant %+v",
			seed, label, change, got, wantMonitors)
	}
}

// assertCommittedClean runs the from-scratch safety and security checks
// over an engine's deployed implementation model and fails on any
// finding. This is the scoped-vs-full findings-parity oracle on the
// accept side: the diff-scoped verdict stages splice untouched entities
// as committed-clean, so a single finding surviving into a committed
// configuration would mean the splice waved a violation through where
// the full check would have rejected.
func assertCommittedClean(t *testing.T, seed uint64, change int, label string, m *mcc.MCC) {
	t.Helper()
	impl := m.DeployedImpl()
	if impl == nil {
		return
	}
	if f := safety.Check(impl.Tech); len(f) > 0 {
		t.Fatalf("seed %#x: %s engine committed safety findings after change %d: %v", seed, label, change, f)
	}
	if f := security.CheckDomains(impl); len(f) > 0 {
		t.Fatalf("seed %#x: %s engine committed security findings after change %d: %v", seed, label, change, f)
	}
}

// TestMCCDecisionParityCorpus is the CI leg of the harness: every corpus
// seed must decide and deploy identically on the three engines, and the
// corpus as a whole must stream every ChangeMix kind.
func TestMCCDecisionParityCorpus(t *testing.T) {
	kinds := make(map[string]int)
	for _, seed := range parityCorpus {
		fleet := GenFleet(paritySpec(seed))
		changes := fleet.Changes(parityChanges)
		for _, c := range changes {
			kinds[changeKind(c)]++
		}
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			runParityCase(t, seed, fleet, changes)
		})
	}
	for _, k := range []string{"add", "update", "remove", "broken", "cross-domain"} {
		if kinds[k] == 0 {
			t.Errorf("the parity corpus streams no %s change (kinds %v)", k, kinds)
		}
	}
}

// TestMCCDecisionParityReplicated runs the corpus with every 5th baseline
// function replicated twice, so the warm start discounts, separates and
// re-places several replicas of one function; generated updates keep the
// replica count.
func TestMCCDecisionParityReplicated(t *testing.T) {
	for _, seed := range parityCorpus {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			fleet := GenFleet(paritySpec(seed))
			replicateEvery5th(fleet)
			runParityCase(t, seed, fleet, fleet.Changes(parityChanges))
		})
	}
}

// FuzzMCCDecisionParity mutates the seed, each value generating a fresh
// platform and stream, decided plain and with replicated baseline
// functions; any divergence is a crash to minimize.
func FuzzMCCDecisionParity(f *testing.F) {
	for _, seed := range parityCorpus {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		fleet := GenFleet(paritySpec(seed))
		runParityCase(t, seed, fleet, fleet.Changes(parityChanges))
		fleet = GenFleet(paritySpec(seed))
		replicateEvery5th(fleet)
		runParityCase(t, seed, fleet, fleet.Changes(parityChanges))
	})
}
