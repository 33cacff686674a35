package scenario

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cpa"
	"repro/internal/mcc"
	"repro/internal/model"
)

// MCCStreamConfig parameterizes E3: a stream of in-field updates proposed
// to the MCC on a reference platform.
type MCCStreamConfig struct {
	// Updates is the number of proposals (a deterministic mix of feasible
	// and infeasible ones is generated).
	Updates int
	// Analyzer, when non-nil, is shared with the MCC so a persistent
	// busy-window memo table warm-starts the timing acceptance test
	// across sessions (cmd/mcc -cache).
	Analyzer *cpa.Analyzer
}

// DefaultMCCStreamConfig returns the baseline E3 parameters.
func DefaultMCCStreamConfig() MCCStreamConfig { return MCCStreamConfig{Updates: 24} }

// MCCStreamResult is the E3 outcome.
type MCCStreamResult struct {
	Config   MCCStreamConfig
	Accepted int
	Rejected int
	// RejectedByStage counts rejections per pipeline stage.
	RejectedByStage map[mcc.Stage]int
	// FinalTasks is the deployed task count at the end.
	FinalTasks int
	// FinalMonitors is the planned monitor count at the end.
	FinalMonitors int
	// WorstWCRTUS is the largest accepted WCRT in the final config.
	WorstWCRTUS int64
}

// Rows renders the E3 table.
func (r MCCStreamResult) Rows() []string {
	out := []string{
		fmt.Sprintf("proposals: %d, accepted: %d, rejected: %d", r.Config.Updates, r.Accepted, r.Rejected),
	}
	for _, st := range []mcc.Stage{mcc.StageValidate, mcc.StageMapping, mcc.StageSafety, mcc.StageSecurity, mcc.StageTiming} {
		if n := r.RejectedByStage[st]; n > 0 {
			out = append(out, fmt.Sprintf("  rejected at %-9s: %d", st, n))
		}
	}
	out = append(out,
		fmt.Sprintf("deployed tasks: %d, configured monitors: %d", r.FinalTasks, r.FinalMonitors),
		fmt.Sprintf("worst accepted WCRT: %dus", r.WorstWCRTUS),
	)
	return out
}

// ReferencePlatform returns the E3 target platform: two ASIL-D lockstep
// ECUs, one fast QM/B core, one CAN bus.
func ReferencePlatform() *model.Platform {
	return &model.Platform{
		Processors: []model.Processor{
			{Name: "lockstep-a", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD},
			{Name: "lockstep-b", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD},
			{Name: "perf", Policy: model.SPP, SpeedFactor: 2.5, RAMKiB: 16384, MaxSafety: model.ASILB},
		},
		Networks: []model.Network{
			{Name: "can0", BitsPerSec: 500_000, Attached: []string{"lockstep-a", "lockstep-b", "perf"}, Kind: "can"},
		},
	}
}

// RunMCCStream executes E3: propose a deterministic mix of updates —
// growing workload, occasional contract violations, an unmappable ASIL-D
// giant, a security violation — and collect the acceptance statistics.
func RunMCCStream(cfg MCCStreamConfig) (MCCStreamResult, error) {
	res := MCCStreamResult{Config: cfg, RejectedByStage: make(map[mcc.Stage]int)}
	var opts []mcc.Option
	if cfg.Analyzer != nil {
		opts = append(opts, mcc.WithAnalyzer(cfg.Analyzer))
	}
	m, err := mcc.New(ReferencePlatform(), opts...)
	if err != nil {
		return res, err
	}

	var last *mcc.Report // newest accepted report
	for i := 0; i < cfg.Updates; i++ {
		fn := generateUpdate(i)
		rep := m.ProposeUpdate(fn)
		if rep.Accepted {
			res.Accepted++
			last = rep
		} else {
			res.Rejected++
			res.RejectedByStage[rep.RejectedAt]++
		}
	}

	impl := m.DeployedImpl()
	if impl != nil {
		res.FinalTasks = len(impl.Tasks)
	}
	if last != nil {
		res.FinalMonitors = len(last.FullMonitors())
		for _, tr := range last.FullTiming() {
			for _, r := range tr.Results {
				if r.WCRTUS > res.WorstWCRTUS {
					res.WorstWCRTUS = r.WCRTUS
				}
			}
		}
	}
	return res, nil
}

// MCCThroughputMode selects the integration strategy of the throughput
// scenario (E12).
type MCCThroughputMode string

// Throughput modes, from seed baseline to the full engine.
const (
	// ThroughputSerial is the seed behavior: every change integrated on
	// its own, every pipeline stage from scratch, full busy-window
	// re-analysis of every resource.
	ThroughputSerial MCCThroughputMode = "serial"
	// ThroughputFull integrates per change with every stage incremental:
	// scoped validation, warm-started mapping, partial synthesis, and the
	// memoized timing engine.
	ThroughputFull MCCThroughputMode = "full-incremental"
	// ThroughputStream drives the change stream through the
	// mcc.StreamScheduler on top of the full-incremental engine:
	// consecutive changes form fixed-size optimistic windows whose
	// deferred busy-window analyses run once per window on the
	// scheduler's goroutine, with every verdict re-validated so decisions
	// stay identical to serial order.
	ThroughputStream MCCThroughputMode = "stream-parallel"
)

// ThroughputModes lists every E12 integration strategy, baseline first.
func ThroughputModes() []MCCThroughputMode {
	return []MCCThroughputMode{ThroughputSerial, ThroughputFull, ThroughputStream}
}

// MCCThroughputConfig parameterizes E12: a fleet-scale stream of change
// requests against a pre-deployed reference workload.
type MCCThroughputConfig struct {
	// Updates is the number of streamed change requests.
	Updates int
	// Mode selects the integration strategy.
	Mode MCCThroughputMode
	// Analyzer, when non-nil, is shared with the MCC so a persistent
	// busy-window memo table (cpa.SaveCache/LoadCache) warm-starts the
	// timing acceptance test across sessions. Cache counters in the
	// result are deltas, so sharing does not skew per-run numbers.
	Analyzer *cpa.Analyzer
}

// DefaultMCCThroughputConfig returns the baseline E12 parameters.
func DefaultMCCThroughputConfig() MCCThroughputConfig {
	return MCCThroughputConfig{Updates: 64, Mode: ThroughputStream}
}

// MCCThroughputResult is the E12 outcome.
type MCCThroughputResult struct {
	Config   MCCThroughputConfig
	Accepted int
	Rejected int
	// Evaluations is the number of integration-pipeline passes spent on
	// the stream (excluding the initial fleet deployment). Cold retries
	// of rejected warm-start attempts count as passes, so the
	// changes/evaluation ratio stays honest across modes.
	Evaluations int
	// CacheHits/CacheMisses are the timing-analyzer memoization counters.
	CacheHits   int64
	CacheMisses int64
	// FinalTasks is the deployed task count after the stream.
	FinalTasks int
	// StageWall sums the per-stage wall-clock time over every pipeline
	// evaluation of the stream (from Report.Stages), exposing which stages
	// dominate each integration strategy.
	StageWall map[mcc.Stage]time.Duration
	// StreamWall is the wall-clock time of the change stream alone,
	// excluding the initial fleet-baseline deployment every mode pays
	// identically — the honest basis for changes/s comparisons.
	StreamWall time.Duration
	// TimingScans/TimingResources sum the timing stage's scan telemetry
	// over the stream: how many per-resource CPA task sets were rebuilt
	// by scanning the implementation model versus the total resource
	// coverage. Diff-proportional job construction keeps scans at the
	// dirty few; the serial baseline scans everything.
	TimingScans     int
	TimingResources int
	// SecurityChecks/SafetyChecks sum the verdict-stage telemetry over
	// the stream: per-connection security verdicts and per-entity safety
	// verdicts (placements, redundancy groups, memory budgets) actually
	// computed. The diff-scoped checks keep both at the change footprint;
	// the serial baseline re-verifies the whole implementation model per
	// evaluation.
	SecurityChecks int
	SafetyChecks   int
	// Stream carries the scheduler effort counters of the stream-parallel
	// mode (zero value otherwise).
	Stream mcc.StreamStats
	// DegradedProposals counts change decisions the degradation ladder
	// re-decided on the pinned from-scratch path (Report.Degraded) —
	// always zero without fault injection.
	DegradedProposals int
	// PanicsRecovered/RetriedAnalyses sum the recovery telemetry over
	// the stream: panics recovered on pipeline stages, timing-stage
	// analyses and stream window analyses (per-proposal Report counters plus the
	// stream scheduler's), and transient-fault analysis retries, which
	// only proposals spend.
	PanicsRecovered int
	RetriedAnalyses int
}

// Rows renders the E12 table.
func (r MCCThroughputResult) Rows() []string {
	out := []string{
		fmt.Sprintf("mode: %s, changes: %d, accepted: %d, rejected: %d",
			r.Config.Mode, r.Config.Updates, r.Accepted, r.Rejected),
		fmt.Sprintf("  pipeline evaluations: %d (%.2f changes/evaluation)",
			r.Evaluations, float64(r.Config.Updates)/float64(max(r.Evaluations, 1))),
		fmt.Sprintf("  timing cache: %d hits, %d misses", r.CacheHits, r.CacheMisses),
		fmt.Sprintf("  timing jobs: %d/%d resources scanned", r.TimingScans, r.TimingResources),
		fmt.Sprintf("  verdict checks: %d security, %d safety", r.SecurityChecks, r.SafetyChecks),
		fmt.Sprintf("  deployed tasks: %d", r.FinalTasks),
	}
	if r.Config.Mode == ThroughputStream {
		out = append(out, fmt.Sprintf("  scheduler: %s", r.Stream))
	}
	if len(r.StageWall) > 0 {
		stages := make([]mcc.Stage, 0, len(r.StageWall))
		for st := range r.StageWall {
			stages = append(stages, st)
		}
		sort.Slice(stages, func(i, j int) bool {
			if r.StageWall[stages[i]] != r.StageWall[stages[j]] {
				return r.StageWall[stages[i]] > r.StageWall[stages[j]]
			}
			return stages[i] < stages[j]
		})
		for _, st := range stages {
			out = append(out, fmt.Sprintf("  stage %-10s: %v", st, r.StageWall[st].Round(time.Microsecond)))
		}
	}
	return out
}

// FleetPlatform returns the E12 target: four ASIL-D lockstep ECUs, four
// fast QM/B cores, one CAN-FD backbone attaching all of them.
func FleetPlatform() *model.Platform {
	p := &model.Platform{
		Networks: []model.Network{
			{Name: "canfd0", BitsPerSec: 1_000_000, Kind: "can"},
		},
	}
	for i := 0; i < 4; i++ {
		p.Processors = append(p.Processors, model.Processor{
			Name: fmt.Sprintf("lockstep-%d", i), Policy: model.SPP,
			SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD,
		})
	}
	for i := 0; i < 4; i++ {
		p.Processors = append(p.Processors, model.Processor{
			Name: fmt.Sprintf("perf-%d", i), Policy: model.SPP,
			SpeedFactor: 2.5, RAMKiB: 16384, MaxSafety: model.ASILB,
		})
	}
	for i := range p.Processors {
		p.Networks[0].Attached = append(p.Networks[0].Attached, p.Processors[i].Name)
	}
	return p
}

// fleetBaseline returns the pre-deployed E12 workload: eight perception/
// control pairs communicating over the backbone plus twelve QM
// applications. Release jitter several periods deep (with correspondingly
// relaxed explicit deadlines) forces multi-activation busy windows, so the
// per-resource analysis that the incremental engine memoizes away is real
// work, as it is on production timing models.
func fleetBaseline() *model.FunctionalArchitecture {
	fa := &model.FunctionalArchitecture{}
	for i := 0; i < 8; i++ {
		obj := fmt.Sprintf("obj%d", i)
		fa.Functions = append(fa.Functions,
			model.Function{
				Name:     fmt.Sprintf("perc%d", i),
				Provides: []string{obj},
				Contract: model.Contract{
					Safety:    model.ASILB,
					RealTime:  model.RealTimeContract{PeriodUS: 50000, WCETUS: 9000, JitterUS: 250000, DeadlineUS: 600000},
					Resources: model.ResourceContract{RAMKiB: 1024},
				},
			},
			model.Function{
				Name:     fmt.Sprintf("ctl%d", i),
				Requires: []string{obj},
				Contract: model.Contract{
					Safety:    model.ASILD,
					RealTime:  model.RealTimeContract{PeriodUS: 20000, WCETUS: 1500, JitterUS: 100000, DeadlineUS: 250000},
					Resources: model.ResourceContract{RAMKiB: 128},
				},
			},
		)
		fa.Flows = append(fa.Flows, model.Flow{
			From: fmt.Sprintf("perc%d", i), To: fmt.Sprintf("ctl%d", i),
			Service: obj, MsgBytes: 8, PeriodUS: 50000,
		})
	}
	for i := 0; i < 12; i++ {
		fa.Functions = append(fa.Functions, model.Function{
			Name: fmt.Sprintf("app%d", i),
			Contract: model.Contract{
				Safety:    model.QM,
				RealTime:  model.RealTimeContract{PeriodUS: 100000, WCETUS: 8000, JitterUS: 450000, DeadlineUS: 1200000},
				Resources: model.ResourceContract{RAMKiB: 256},
			},
		})
	}
	return fa
}

// generateFleetChange produces the i-th change request of the E12 stream:
// mostly new lightweight telemetry functions, periodically an update to a
// deployed application, and the occasional malformed contract a fleet
// backend would let through.
func generateFleetChange(i int) model.Function {
	switch {
	case i%32 == 13: // broken contract: WCET exceeds the deadline
		return model.Function{
			Name: fmt.Sprintf("broken%d", i),
			Contract: model.Contract{
				Safety:   model.QM,
				RealTime: model.RealTimeContract{PeriodUS: 1000, WCETUS: 5000},
			},
		}
	case i%5 == 2: // update of a deployed application (new WCET estimate)
		return model.Function{
			Name:    fmt.Sprintf("app%d", i%12),
			Version: i,
			Contract: model.Contract{
				Safety:    model.QM,
				RealTime:  model.RealTimeContract{PeriodUS: 100000, WCETUS: 8000 + int64(i%7)*100, JitterUS: 450000, DeadlineUS: 1200000},
				Resources: model.ResourceContract{RAMKiB: 256},
			},
		}
	default: // new telemetry function
		return model.Function{
			Name: fmt.Sprintf("telem%d", i),
			Contract: model.Contract{
				Safety:    model.QM,
				RealTime:  model.RealTimeContract{PeriodUS: 200000, WCETUS: 1500 + int64(i%4)*250, JitterUS: int64(i%3) * 5000},
				Resources: model.ResourceContract{RAMKiB: 64},
			},
		}
	}
}

// RunMCCThroughput executes E12: deploy the fleet baseline, then stream
// cfg.Updates change requests through the MCC using the selected
// integration strategy, and collect throughput statistics. All modes
// decide every change identically; only the pipeline cost differs.
func RunMCCThroughput(cfg MCCThroughputConfig) (MCCThroughputResult, error) {
	changes := make([]mcc.Change, 0, cfg.Updates)
	for i := 0; i < cfg.Updates; i++ {
		fn := generateFleetChange(i)
		changes = append(changes, mcc.Change{Update: &fn})
	}
	return runChangeStream(cfg, FleetPlatform(), fleetBaseline(), changes)
}

// runChangeStream is the shared throughput core of E12 and the E13 scale
// tier: deploy the baseline on a fresh MCC configured for cfg.Mode,
// stream the changes through the selected integration strategy, and
// collect the throughput/telemetry counters.
func runChangeStream(cfg MCCThroughputConfig, platform *model.Platform, baseline *model.FunctionalArchitecture, changes []mcc.Change) (MCCThroughputResult, error) {
	cfg.Updates = len(changes)
	res := MCCThroughputResult{Config: cfg}
	var opts []mcc.Option
	switch cfg.Mode {
	case ThroughputSerial:
		opts = append(opts, mcc.WithoutIncremental())
	case ThroughputFull, ThroughputStream:
		// Default engine: every stage incremental.
	default:
		return res, fmt.Errorf("scenario: unknown throughput mode %q", cfg.Mode)
	}
	if cfg.Analyzer != nil {
		opts = append(opts, mcc.WithAnalyzer(cfg.Analyzer))
	}
	m, err := mcc.New(platform, opts...)
	if err != nil {
		return res, err
	}
	// Cache counters are reported as deltas over this run, so a persistent
	// analyzer shared across sessions (cfg.Analyzer) does not skew them.
	statsBefore := m.TimingCacheStats()
	if rep := m.ProposeArchitecture(baseline); !rep.Accepted {
		return res, fmt.Errorf("scenario: fleet baseline rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}

	streamStart := time.Now()
	var reports []*mcc.Report
	switch cfg.Mode {
	case ThroughputStream:
		sched := mcc.NewStreamScheduler(m)
		reports = sched.Run(changes)
		res.Stream = sched.Stats()
	default:
		reports = make([]*mcc.Report, 0, len(changes))
		for _, c := range changes {
			if c.Update != nil {
				reports = append(reports, m.ProposeUpdate(*c.Update))
			} else {
				reports = append(reports, m.ProposeRemoval(c.Remove))
			}
		}
	}

	res.StreamWall = time.Since(streamStart)
	res.StageWall = make(map[mcc.Stage]time.Duration)
	for _, rep := range reports {
		if rep.Accepted {
			res.Accepted++
		} else {
			res.Rejected++
		}
		res.Evaluations += rep.Passes
		res.TimingScans += rep.TimingScans
		res.TimingResources += rep.TimingResources
		res.SecurityChecks += rep.SecurityChecks
		res.SafetyChecks += rep.SafetyChecks
		if rep.Degraded {
			res.DegradedProposals++
		}
		res.PanicsRecovered += rep.PanicsRecovered
		res.RetriedAnalyses += rep.RetriedAnalyses
		for st, d := range rep.StageWall() {
			res.StageWall[st] += d
		}
	}
	res.PanicsRecovered += res.Stream.PanicsRecovered
	// Optimistic passes a window replay discarded are real pipeline work;
	// count them so Evaluations never understates the scheduler's cost
	// (their per-stage wall clock is gone with the discarded reports).
	res.Evaluations += res.Stream.DiscardedPasses
	stats := m.TimingCacheStats()
	res.CacheHits = stats.Hits - statsBefore.Hits
	res.CacheMisses = stats.Misses - statsBefore.Misses
	if impl := m.DeployedImpl(); impl != nil {
		res.FinalTasks = len(impl.Tasks)
	}
	return res, nil
}

// generateUpdate produces the i-th proposal of the deterministic stream.
func generateUpdate(i int) model.Function {
	switch i % 8 {
	case 0: // feasible ASIL-D control function
		return model.Function{
			Name: fmt.Sprintf("ctl%d", i),
			Contract: model.Contract{
				Safety:    model.ASILD,
				RealTime:  model.RealTimeContract{PeriodUS: 20000, WCETUS: 1200},
				Resources: model.ResourceContract{RAMKiB: 128},
			},
		}
	case 1: // feasible QM comfort function
		return model.Function{
			Name: fmt.Sprintf("comfort%d", i),
			Contract: model.Contract{
				Safety:    model.QM,
				RealTime:  model.RealTimeContract{PeriodUS: 100000, WCETUS: 8000},
				Resources: model.ResourceContract{RAMKiB: 512},
			},
		}
	case 2: // contract violation: WCET exceeds deadline
		return model.Function{
			Name: fmt.Sprintf("broken%d", i),
			Contract: model.Contract{
				Safety:   model.QM,
				RealTime: model.RealTimeContract{PeriodUS: 1000, WCETUS: 5000},
			},
		}
	case 3: // feasible ASIL-B perception function
		return model.Function{
			Name: fmt.Sprintf("perc%d", i),
			Contract: model.Contract{
				Safety:    model.ASILB,
				RealTime:  model.RealTimeContract{PeriodUS: 50000, WCETUS: 9000},
				Resources: model.ResourceContract{RAMKiB: 1024},
			},
		}
	case 4: // unmappable: ASIL-D with absurd utilization
		return model.Function{
			Name: fmt.Sprintf("giant%d", i),
			Contract: model.Contract{
				Safety:    model.ASILD,
				RealTime:  model.RealTimeContract{PeriodUS: 10000, WCETUS: 9500},
				Resources: model.ResourceContract{RAMKiB: 64},
			},
		}
	case 5: // fail-operational replicated function (feasible)
		return model.Function{
			Name:     fmt.Sprintf("failop%d", i),
			Replicas: 2,
			Contract: model.Contract{
				Safety:          model.ASILD,
				RealTime:        model.RealTimeContract{PeriodUS: 40000, WCETUS: 1500},
				Resources:       model.ResourceContract{RAMKiB: 128},
				FailOperational: true,
			},
		}
	case 6: // memory hog: exceeds every processor's RAM
		return model.Function{
			Name: fmt.Sprintf("memhog%d", i),
			Contract: model.Contract{
				Safety:    model.QM,
				RealTime:  model.RealTimeContract{PeriodUS: 100000, WCETUS: 100},
				Resources: model.ResourceContract{RAMKiB: 1 << 20},
			},
		}
	default: // feasible light telemetry function
		return model.Function{
			Name: fmt.Sprintf("telem%d", i),
			Contract: model.Contract{
				Safety:    model.QM,
				RealTime:  model.RealTimeContract{PeriodUS: 200000, WCETUS: 2000},
				Resources: model.ResourceContract{RAMKiB: 64},
			},
		}
	}
}
