package scenario

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/safety"
	"repro/internal/security"
)

// Differential parity harness: genfleet-random platforms and change
// streams are driven through the fully incremental engine, the
// from-scratch serial baseline, and the stream scheduler side by side,
// comparing verdict sequences. It directly probes the ROADMAP's known
// accept-side warm-start parity gap — an accepted warm placement may
// differ from the full best-fit placement, so on capacity-marginal
// workloads the two engines can legitimately accept different
// configurations — which the curated E12 stream alone can never
// exercise. The oracle is therefore two-tiered:
//
//   - incremental vs stream-parallel: STRICT sequence equality,
//     always. The scheduler's window/replay construction guarantees
//     identity with serial proposals on the same engine; any divergence
//     here is a journal/rollback/cache bug.
//   - incremental vs from-scratch serial: strict until the first
//     divergence carrying the documented gap signature (serial rejects
//     at a placement-dependent stage where a warm-mapped attempt
//     accepted, or the two accepted placements silently part ways);
//     everything downstream of a diverged deployment is incomparable.
//     Any other divergence — validation or security flips, differing
//     rejection stages, a cold-retried rejection that serial accepts —
//     fails the harness.
//
// The corpus below runs strictly (zero divergences of any kind) in CI on
// every build; `go test -fuzz FuzzMCCDecisionParity ./internal/scenario`
// hunts for new divergences locally. The checked-in fuzz testdata seed
// (found by this harness) regression-tests the gap detector itself.

// parityCorpus seeds the CI corpus: a spread of platform sizes, chain
// depths, headrooms, and change mixes, including removal-heavy and
// rejection-heavy streams. Every seed must decide divergence-free.
var parityCorpus = []uint64{0, 1, 2, 3, 5, 8, 13, 21, 42, 99, 1234, 0xdead}

// paritySpec derives a small randomized fleet spec from a fuzz seed. The
// shape parameters are folded out of the seed so the fuzzer explores
// platform size, topology, headroom, and change mix together.
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

// warmMapped reports whether the attempt's surviving pass used the
// warm-started mapping (detected via the mapping stage's telemetry note).
func warmMapped(rep *mcc.Report) bool {
	tr := rep.StageTraceFor(mcc.StageMapping)
	return tr != nil && strings.HasPrefix(tr.Note(), "warm-start:")
}

// placementDependent mirrors mcc's notion: validation and security decide
// on contracts and identities alone; every other stage's verdict can
// depend on the instance placement and hence on the warm-start heuristic.
func placementDependentStage(s mcc.Stage) bool {
	return s != mcc.StageValidate && s != mcc.StageSecurity
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

// runParityCase generates the fleet for one seed and applies the
// two-tiered oracle. strict additionally fails on the documented
// warm-start gap (used for the curated CI corpus, which must be
// divergence-free outright).
func runParityCase(t *testing.T, seed uint64, strict bool) {
	t.Helper()
	spec := paritySpec(seed)
	fleet := GenFleet(spec)
	changes := fleet.Changes(24)

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

	// Serial vs incremental: strict verdict-sequence equality until the
	// documented gap signature appears, and — satellite of the scoped
	// verdict stages — strict FINDINGS equality wherever the verdicts
	// agree: a scoped safety/security rejection must name exactly the
	// findings the from-scratch check names. Placements are NOT compared
	// here: the from-scratch engine reshuffles the whole fleet on every
	// proposal, so equally valid placements routinely differ while every
	// verdict agrees — which is exactly the empirical accept-side parity
	// the harness is quantifying.
	var incReports []*mcc.Report
	gapAt := -1
	for i, c := range changes {
		sr, ir := propose(serial, c), propose(inc, c)
		incReports = append(incReports, ir)
		// The whole-table oracle is per-engine (each engine's accepted
		// report against a cold analysis of ITS committed implementation),
		// so it stays valid even downstream of a cross-engine divergence.
		assertReportMatchesOracle(t, seed, i, "serial", fleet.Platform, serial, sr)
		assertReportMatchesOracle(t, seed, i, "incremental", fleet.Platform, inc, ir)
		if gapAt >= 0 {
			continue // downstream of a diverged decision: incomparable
		}
		if verdict(sr) != verdict(ir) {
			gapSig := sr.Accepted != ir.Accepted && ir.Accepted == warmMapped(ir) &&
				placementDependentStage(sr.RejectedAt) && placementDependentStage(ir.RejectedAt)
			if gapSig && !strict {
				gapAt = i
				t.Logf("seed %#x: accept-side warm-start gap at change %d (serial %s, incremental %s) — documented, downstream incomparable",
					seed, i, verdict(sr), verdict(ir))
				continue
			}
			t.Fatalf("seed %#x: verdict divergence at change %d: serial %s, incremental %s (warm=%v)",
				seed, i, verdict(sr), verdict(ir), warmMapped(ir))
		}
		if !reflect.DeepEqual(sr.Findings, ir.Findings) {
			t.Fatalf("seed %#x: findings divergence at change %d (%s):\nserial      %v\nincremental %v",
				seed, i, verdict(sr), sr.Findings, ir.Findings)
		}
		assertCommittedClean(t, seed, i, "incremental", inc)
	}

	// Incremental vs stream-parallel: strict, always — verdicts AND
	// findings, including across rollback-then-recheck sequences (a
	// window replay must reproduce the serial findings verbatim).
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
	if !reflect.DeepEqual(placements(inc), placements(streamed)) {
		t.Fatalf("seed %#x: stream deployment diverges from serial proposals on the same engine", seed)
	}
	assertCommittedClean(t, seed, len(changes)-1, "stream", streamed)
}

// assertReportMatchesOracle compares an accepted report's materialized
// whole-table views against a cold from-scratch analysis of the engine's
// committed implementation. This is the delta-report completeness oracle:
// however small the report's TimingDelta/MonitorDelta, FullTiming and
// FullMonitors must reconstruct exactly the tables a from-scratch
// analysis of the committed configuration produces. The comparison is
// per-engine (engines may legitimately commit different placements), so
// it stays valid downstream of cross-engine divergences.
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
// seed must show zero verdict divergences across the four engines.
func TestMCCDecisionParityCorpus(t *testing.T) {
	for _, seed := range parityCorpus {
		seed := seed
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			runParityCase(t, seed, true)
		})
	}
}

// FuzzMCCDecisionParity is the local hunting leg: the fuzzer mutates the
// seed, each value generating a fresh platform + stream; any divergence
// that is not the documented warm-start gap is a crash to minimize.
func FuzzMCCDecisionParity(f *testing.F) {
	for _, seed := range parityCorpus {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runParityCase(t, seed, false)
	})
}
