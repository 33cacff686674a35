package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"time"

	"repro/internal/cpa"
	"repro/internal/faultinject"
	"repro/internal/mcc"
)

// E14 is the chaos tier: the generated-fleet change stream of E13 driven
// under a deterministic fault matrix (internal/faultinject), proving the
// robustness contract of the degradation ladder. For every fault spec and
// integration mode the tier asserts three properties:
//
//  1. The MCC never crashes or hangs — injected panics are recovered,
//     injected stalls are bounded by the per-proposal deadline.
//  2. Every proposal resolves: accepted, rejected, or an explicit
//     deadline rejection, each within the configured deadline.
//  3. Every decision (verdict, rejection stage, findings) equals the
//     clean serial from-scratch oracle's — including the decisions the
//     ladder re-derived on the pinned from-scratch path, which the
//     Report marks Degraded. Only deadline expiries are excused, and
//     those are explicitly labeled in DegradedReasons. Without a
//     deadline the final deployment (instances, tasks, messages,
//     connections and monitor plan) equals the oracle's too.
//
// The emitted rows carry the recovery telemetry (panics recovered,
// bounded analysis retries, faults actually fired), the availability of
// the fast incremental path (share of proposals decided without
// degradation), and the latency distribution including the recovery
// latency of degraded proposals.

// chaosSeed seeds every injector so rate-based rules are reproducible.
const chaosSeed = 0x0E14

// ChaosFaultSpec is one column of the E14 fault matrix.
type ChaosFaultSpec struct {
	// Name labels the spec in rows and JSON.
	Name string
	// Rules configures the injector for the run.
	Rules []faultinject.Rule
	// DeadlineMS, when > 0, arms the per-proposal deadline
	// (mcc.WithProposalDeadline). Deadline specs run in the
	// full-incremental mode only: a deadline rejection legitimately
	// diverges from the clean oracle, so parity needs the per-proposal
	// replay oracle of the serial drive loop.
	DeadlineMS int
	// Modes, when non-empty, restricts the spec to these integration
	// modes (e.g. journal faults only fire under the stream scheduler).
	Modes []MCCThroughputMode
}

func (fs ChaosFaultSpec) appliesTo(mode MCCThroughputMode) bool {
	if len(fs.Modes) == 0 {
		return true
	}
	for _, m := range fs.Modes {
		if m == mode {
			return true
		}
	}
	return false
}

// DefaultChaosSpecs returns the E14 fault matrix: a clean control column
// plus one column per hardening mechanism — transient analyzer errors
// (bounded retry), a total analyzer outage (every proposal rides the
// pinned path), injected latency, worker panics, cache corruption, a
// stalled stage racing the proposal deadline, journal-undo failure, and
// a mixed storm.
func DefaultChaosSpecs() []ChaosFaultSpec {
	return []ChaosFaultSpec{
		{Name: "none"},
		{
			// Every 7th busy-window analysis fails transiently; the
			// bounded retry absorbs nearly all of them.
			Name:  "analyzer-error",
			Rules: []faultinject.Rule{{Stage: "cpa.analyze", Mode: faultinject.ModeError, Every: 7}},
		},
		{
			// Total analyzer outage: every analysis fails, retries
			// included, so every proposal degrades to the pinned
			// from-scratch path — availability collapses, parity holds.
			Name:  "analyzer-burst",
			Rules: []faultinject.Rule{{Stage: "cpa.analyze", Mode: faultinject.ModeError, Rate: 1.0}},
		},
		{
			// Injected latency only: decisions and availability unchanged.
			Name:  "analyzer-slow",
			Rules: []faultinject.Rule{{Stage: "cpa.analyze", Mode: faultinject.ModeSlow, Every: 5, StallUS: 200}},
		},
		{
			// Every 11th timing-stage analysis panics mid-analysis.
			Name:  "worker-panic",
			Rules: []faultinject.Rule{{Stage: "timing.worker", Mode: faultinject.ModePanic, Every: 11}},
		},
		{
			// Every other memo hit hands back a truncated entry; the
			// length sanity check resets the analyzer and the window
			// replays. Memo hits need a re-read of a cached analysis,
			// which no engine does within one stream, so a stream run
			// of a spec corrupting "cpa.cache" starts from the analyzer
			// a clean stream run loaded: the damaged loaded-cache case
			// (see runChaosStream). (The full-incremental corruption
			// path is pinned by the dedicated mcc robustness tier.)
			Name:  "cache-corrupt",
			Rules: []faultinject.Rule{{Stage: "cpa.cache", Mode: faultinject.ModeCorrupt, Every: 2}},
			Modes: []MCCThroughputMode{ThroughputStream},
		},
		{
			// A stage stalls far past the proposal deadline; the deadline
			// must convert the hang into a bounded, explicit rejection.
			// Skip:1 spares the fleet-baseline deployment.
			Name: "stage-stall-deadline",
			Rules: []faultinject.Rule{
				{Stage: "stage.timing", Mode: faultinject.ModeStall, Skip: 1, Every: 5, Count: 3, StallUS: 1_500_000},
			},
			DeadlineMS: 600,
			Modes:      []MCCThroughputMode{ThroughputFull},
		},
		{
			// Prefetch faults taint windows into rollback, and the
			// journal undo itself fails: incremental state is purged and
			// rebuilt. Only the stream scheduler exercises the journal.
			Name: "journal-undo",
			Rules: []faultinject.Rule{
				{Stage: "stream.prefetch", Mode: faultinject.ModeError, Every: 3, Count: 6},
				{Stage: "journal.undo", Mode: faultinject.ModeError, Every: 2},
			},
			Modes: []MCCThroughputMode{ThroughputStream},
		},
		{
			// Everything at once, at lower rates.
			Name: "mixed",
			Rules: []faultinject.Rule{
				{Stage: "cpa.analyze", Mode: faultinject.ModeError, Every: 9},
				{Stage: "timing.worker", Mode: faultinject.ModePanic, Every: 17, Count: 8},
				{Stage: "cpa.cache", Mode: faultinject.ModeCorrupt, Every: 23},
				{Stage: "stream.prefetch", Mode: faultinject.ModePanic, Every: 13, Count: 4},
			},
		},
	}
}

// MCCChaosConfig parameterizes the E14 run.
type MCCChaosConfig struct {
	// Procs is the generated platform's processor count.
	Procs int
	// Updates is the number of streamed change requests per run.
	Updates int
	// Modes lists the integration strategies to drive under faults.
	// Only ThroughputFull (serial drive loop, per-proposal latency) and
	// ThroughputStream (the concurrent scheduler) are supported.
	Modes []MCCThroughputMode
	// Specs is the fault matrix.
	Specs []ChaosFaultSpec
	// Spec is the generator template; Processors is overridden by
	// Procs. The zero value selects DefaultFleetSpec.
	Spec FleetSpec
}

// DefaultMCCChaosConfig returns the baseline E14 parameters.
func DefaultMCCChaosConfig() MCCChaosConfig {
	return MCCChaosConfig{
		Procs:   32,
		Updates: 24,
		Modes:   []MCCThroughputMode{ThroughputFull, ThroughputStream},
		Specs:   DefaultChaosSpecs(),
	}
}

// MCCChaosRow is one (fault spec, mode) point of the matrix.
type MCCChaosRow struct {
	// Spec names the fault spec.
	Spec string
	// Mode is the integration strategy driven under the faults.
	Mode MCCThroughputMode
	// Procs is the generated platform's processor count.
	Procs int
	// Changes/Accepted/Rejected count the streamed decisions.
	Changes  int
	Accepted int
	Rejected int
	// Degraded counts proposals the ladder re-decided on the pinned
	// from-scratch path (or rejected on deadline expiry).
	Degraded int
	// DeadlineExpired counts deadline rejections (a subset of Degraded);
	// these are the only decisions excused from oracle parity.
	DeadlineExpired int
	// PanicsRecovered/RetriedAnalyses sum the recovery telemetry.
	PanicsRecovered int
	RetriedAnalyses int
	// Replays/DiscardedPasses are the stream scheduler's replayed windows
	// and the optimistic passes they discarded: a fault's blast radius
	// on the stream engine (0 on full-incremental rows).
	Replays         int
	DiscardedPasses int
	// FaultsInjected is the injector's total fire count for the run
	// (baseline deployment included).
	FaultsInjected int
	// Mismatches counts decisions that differ from the clean serial
	// oracle; FirstMismatch describes the first one. ParityOK is the
	// headline robustness verdict: no mismatches.
	Mismatches    int
	FirstMismatch string
	ParityOK      bool
	// AvailabilityPct is the share of proposals decided on the normal
	// incremental path (100 × (Changes−Degraded)/Changes).
	AvailabilityPct float64
	// MeanLatencyUS/P99LatencyUS/MaxLatencyUS describe the per-proposal
	// decision latency. The stream scheduler decides windows, not
	// individual proposals, so its rows report only the mean
	// (wall/changes); P99 and Max stay 0.
	MeanLatencyUS int64
	P99LatencyUS  int64
	MaxLatencyUS  int64
	// RecoveryUS is the mean decision latency of the degraded proposals
	// — the price of riding the ladder (full-incremental mode only).
	RecoveryUS int64
	// WallUS is the wall clock of the whole change stream.
	WallUS int64
}

// RunMCCChaos executes E14: generate the fleet, derive the clean serial
// oracle decisions once, then drive the same change stream under every
// (fault spec, mode) combination and compare every decision.
func RunMCCChaos(cfg MCCChaosConfig) ([]MCCChaosRow, error) {
	if cfg.Procs < 2 {
		return nil, fmt.Errorf("scenario: chaos platform needs >= 2 processors, got %d", cfg.Procs)
	}
	if cfg.Updates < 1 {
		return nil, fmt.Errorf("scenario: chaos stream needs >= 1 update, got %d", cfg.Updates)
	}
	spec := cfg.Spec
	if spec.Processors == 0 {
		spec = DefaultFleetSpec(cfg.Procs)
	} else {
		spec.Processors = cfg.Procs
	}
	fleet := GenFleet(spec)
	changes := fleet.Changes(cfg.Updates)

	// One memo table shared by the oracle runs only — the faulted runs
	// get analyzers of their own (see runChaosStream) so injected cache
	// corruption cannot leak.
	memo := cpa.NewAnalyzer()
	om, oracle, err := chaosOracle(fleet, changes, memo)
	if err != nil {
		return nil, err
	}

	var rows []MCCChaosRow
	for _, fs := range cfg.Specs {
		for _, mode := range cfg.Modes {
			if !fs.appliesTo(mode) {
				continue
			}
			var row MCCChaosRow
			switch mode {
			case ThroughputFull:
				row, err = runChaosFull(fleet, changes, fs, om, oracle, memo)
			case ThroughputStream:
				row, err = runChaosStream(fleet, changes, fs, om, oracle)
			default:
				err = fmt.Errorf("scenario: chaos does not support mode %q", mode)
			}
			if err != nil {
				return nil, fmt.Errorf("chaos %s/%s: %w", fs.Name, mode, err)
			}
			row.Procs = cfg.Procs
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// chaosOracle replays the change stream on a clean serial from-scratch
// MCC — the reference every faulted decision and final deployment must
// match — and returns that MCC with its reports.
func chaosOracle(fleet *Fleet, changes []mcc.Change, memo *cpa.Analyzer) (*mcc.MCC, []*mcc.Report, error) {
	m, err := mcc.New(fleet.Platform,
		mcc.WithoutIncremental(), mcc.WithAnalyzer(memo))
	if err != nil {
		return nil, nil, err
	}
	if rep := m.ProposeArchitecture(fleet.Baseline); !rep.Accepted {
		return nil, nil, fmt.Errorf("oracle baseline rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}
	out := make([]*mcc.Report, len(changes))
	for i, c := range changes {
		out[i] = proposeChaosChange(m, c)
	}
	return m, out, nil
}

func proposeChaosChange(m *mcc.MCC, c mcc.Change) *mcc.Report {
	if c.Update != nil {
		return m.ProposeUpdate(*c.Update)
	}
	return m.ProposeRemoval(c.Remove)
}

// chaosReplayOracle re-derives the clean verdict for one proposal on the
// exact deployed state the faulted MCC had when deciding it. Deadline
// rejections keep the deployed state but drop changes the fixed oracle
// would have accepted, so after the first expiry the fixed decision
// sequence no longer applies; replaying the faulted MCC's accepted
// prefix on a fresh serial MCC does.
type chaosReplayOracle struct {
	fleet    *Fleet
	accepted []mcc.Change
	memo     *cpa.Analyzer
}

func (o *chaosReplayOracle) decide(c mcc.Change) (*mcc.Report, error) {
	m, err := mcc.New(o.fleet.Platform,
		mcc.WithoutIncremental(), mcc.WithAnalyzer(o.memo))
	if err != nil {
		return nil, err
	}
	if rep := m.ProposeArchitecture(o.fleet.Baseline); !rep.Accepted {
		return nil, fmt.Errorf("replay oracle baseline rejected at %s", rep.RejectedAt)
	}
	for i, a := range o.accepted {
		if rep := proposeChaosChange(m, a); !rep.Accepted {
			return nil, fmt.Errorf("replay oracle diverged: accepted change %d rejected at %s", i, rep.RejectedAt)
		}
	}
	return proposeChaosChange(m, c), nil
}

// runChaosFull drives the stream serially through the full-incremental
// engine under the fault spec, measuring per-proposal latency and
// checking every non-deadline decision against the oracle, and without a
// deadline the final deployment against the oracle controller om's.
func runChaosFull(fleet *Fleet, changes []mcc.Change, fs ChaosFaultSpec, om *mcc.MCC, oracle []*mcc.Report, memo *cpa.Analyzer) (MCCChaosRow, error) {
	row := MCCChaosRow{Spec: fs.Name, Mode: ThroughputFull, Changes: len(changes)}
	inj := faultinject.New(chaosSeed, fs.Rules...)
	opts := []mcc.Option{mcc.WithFaultInjector(inj)}
	if fs.DeadlineMS > 0 {
		opts = append(opts, mcc.WithProposalDeadline(time.Duration(fs.DeadlineMS)*time.Millisecond))
	}
	m, err := mcc.New(fleet.Platform, opts...)
	if err != nil {
		return row, err
	}
	if rep := m.ProposeArchitecture(fleet.Baseline); !rep.Accepted {
		return row, fmt.Errorf("baseline rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}
	var replay *chaosReplayOracle
	if fs.DeadlineMS > 0 {
		replay = &chaosReplayOracle{fleet: fleet, memo: memo}
	}

	lats := make([]int64, 0, len(changes))
	var recovery int64
	start := time.Now()
	for i, c := range changes {
		t0 := time.Now()
		rep := proposeChaosChange(m, c)
		lat := time.Since(t0).Microseconds()
		lats = append(lats, lat)
		if rep.Accepted {
			row.Accepted++
		} else {
			row.Rejected++
		}
		row.PanicsRecovered += rep.PanicsRecovered
		row.RetriedAnalyses += rep.RetriedAnalyses
		deadlined := false
		for _, r := range rep.DegradedReasons {
			if r == "deadline" {
				deadlined = true
			}
		}
		if rep.Degraded {
			row.Degraded++
			recovery += lat
		}
		if deadlined {
			row.DeadlineExpired++
		} else {
			want := oracle[i]
			if replay != nil {
				if want, err = replay.decide(c); err != nil {
					return row, err
				}
			}
			if diff := chaosCompare(rep, want); diff != "" {
				row.Mismatches++
				if row.FirstMismatch == "" {
					row.FirstMismatch = fmt.Sprintf("change %d: %s", i, diff)
				}
			}
		}
		if rep.Accepted && replay != nil {
			replay.accepted = append(replay.accepted, c)
		}
	}
	row.WallUS = time.Since(start).Microseconds()
	if replay == nil {
		chaosCompareDeployment(&row, m, om)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum int64
	for _, l := range lats {
		sum += l
	}
	row.MeanLatencyUS = sum / int64(len(lats))
	row.P99LatencyUS = lats[(99*len(lats)+99)/100-1]
	row.MaxLatencyUS = lats[len(lats)-1]
	if row.Degraded > 0 {
		row.RecoveryUS = recovery / int64(row.Degraded)
	}
	finishChaosRow(&row, inj)
	return row, nil
}

// runChaosStream drives the stream through the concurrent scheduler
// under the fault spec. No deadline applies, so parity is total: every
// decision — degraded ones included — must equal the fixed oracle's, and
// the final deployment the oracle controller om's. A spec corrupting
// memo entries ("cpa.cache") starts from an analyzer a clean stream run
// of the same changes loaded, so the run's analyses are memo hits.
func runChaosStream(fleet *Fleet, changes []mcc.Change, fs ChaosFaultSpec, om *mcc.MCC, oracle []*mcc.Report) (MCCChaosRow, error) {
	row := MCCChaosRow{Spec: fs.Name, Mode: ThroughputStream, Changes: len(changes)}
	if fs.DeadlineMS > 0 {
		return row, fmt.Errorf("deadline specs are full-incremental only")
	}
	inj := faultinject.New(chaosSeed, fs.Rules...)
	opts := []mcc.Option{mcc.WithFaultInjector(inj)}
	if slices.ContainsFunc(fs.Rules, func(r faultinject.Rule) bool { return r.Stage == "cpa.cache" }) {
		warm, err := mcc.New(fleet.Platform)
		if err != nil {
			return row, err
		}
		if rep := warm.ProposeArchitecture(fleet.Baseline); !rep.Accepted {
			return row, fmt.Errorf("warm-up baseline rejected at %s: %v", rep.RejectedAt, rep.Findings)
		}
		mcc.NewStreamScheduler(warm).Run(changes)
		opts = append(opts, mcc.WithAnalyzer(warm.Analyzer()))
	}
	m, err := mcc.New(fleet.Platform, opts...)
	if err != nil {
		return row, err
	}
	if rep := m.ProposeArchitecture(fleet.Baseline); !rep.Accepted {
		return row, fmt.Errorf("baseline rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}
	sched := mcc.NewStreamScheduler(m)
	start := time.Now()
	reps := sched.Run(changes)
	row.WallUS = time.Since(start).Microseconds()

	for i, rep := range reps {
		if rep.Accepted {
			row.Accepted++
		} else {
			row.Rejected++
		}
		if rep.Degraded {
			row.Degraded++
		}
		row.PanicsRecovered += rep.PanicsRecovered
		row.RetriedAnalyses += rep.RetriedAnalyses
		if diff := chaosCompare(rep, oracle[i]); diff != "" {
			row.Mismatches++
			if row.FirstMismatch == "" {
				row.FirstMismatch = fmt.Sprintf("change %d: %s", i, diff)
			}
		}
	}
	chaosCompareDeployment(&row, m, om)
	st := sched.Stats()
	row.PanicsRecovered += st.PanicsRecovered
	row.Replays, row.DiscardedPasses = st.Replays, st.DiscardedPasses
	row.MeanLatencyUS = row.WallUS / int64(len(changes))
	finishChaosRow(&row, inj)
	return row, nil
}

func finishChaosRow(row *MCCChaosRow, inj *faultinject.Injector) {
	row.FaultsInjected = inj.TotalFired()
	row.ParityOK = row.Mismatches == 0
	row.AvailabilityPct = 100 * float64(row.Changes-row.Degraded) / float64(row.Changes)
}

// chaosCompare reports how a faulted decision differs from the clean
// oracle's ("" when identical): verdict, rejection stage, and findings.
func chaosCompare(got, want *mcc.Report) string {
	if got.Accepted != want.Accepted {
		return fmt.Sprintf("accepted=%v, oracle %v (rejected at %q, findings %v)",
			got.Accepted, want.Accepted, got.RejectedAt, got.Findings)
	}
	if !got.Accepted && got.RejectedAt != want.RejectedAt {
		return fmt.Sprintf("rejected at %q, oracle %q", got.RejectedAt, want.RejectedAt)
	}
	gf, wf := got.Findings, want.Findings
	if len(gf) == 0 {
		gf = nil
	}
	if len(wf) == 0 {
		wf = nil
	}
	if !reflect.DeepEqual(gf, wf) {
		return fmt.Sprintf("findings %v, oracle %v", gf, wf)
	}
	return ""
}

// chaosCompareDeployment counts a mismatch on row unless the faulted
// controller got holds the oracle want's final deployment: instances,
// tasks, messages, connections and monitor plan.
func chaosCompareDeployment(row *MCCChaosRow, got, want *mcc.MCC) {
	gi, wi := got.DeployedImpl(), want.DeployedImpl()
	var diff string
	switch {
	case !slices.Equal(gi.Tech.Instances, wi.Tech.Instances):
		diff = "instances"
	case !slices.Equal(gi.Tasks, wi.Tasks):
		diff = "tasks"
	case !slices.Equal(gi.Messages, wi.Messages):
		diff = "messages"
	case !slices.Equal(gi.Connections, wi.Connections):
		diff = "connections"
	case !slices.Equal(got.DeployedMonitors(), want.DeployedMonitors()):
		diff = "monitor plan"
	default:
		return
	}
	row.Mismatches++
	if row.FirstMismatch == "" {
		row.FirstMismatch = "final deployment: " + diff + " differ from the oracle's"
	}
}
