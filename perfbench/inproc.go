package main

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/cpa"
	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/scenario"
)

// Workload sizing. The live caps bound the telemetry (and, on the fleet,
// granted cross-domain) functions deployed on top of the baseline; the
// warm-up prefix runs untimed after the live set is filled. An MCC keeps
// between 8192 and 16384 reports in its History, so the in-process
// warm-ups decide more than 16384 changes: the timed phase starts with
// the History, the analyzer memo and the heap at their steady size.
const (
	proposeProcs  = 2048
	proposeLive   = 64
	proposeWarmup = 17000
	streamProcs   = 1024
	streamLive    = 64
	streamChunk   = 64
	streamWarmup  = 17000 / streamChunk // chunks
	setupReps     = 11
	// proposeBlock is the throughput block, about a twentieth of a 10 s
	// run's calls; a stream block spans one failing add (see streamMix).
	proposeBlock = 4000
	// The unit counts at which peak RSS is read, about half of a 10 s
	// run's units.
	proposeRSSAt = 40000
	streamRSSAt  = 800 // chunks
)

// proposeMix is flow-free churn: WCET re-estimates, paired telemetry
// adds and removals, and about 8% broken contracts.
var proposeMix = mix{telemetry: 42, broken: 8}

// streamMix is mostly re-estimates, about 10% removals (each paired with
// an add), and, in the timed phase, one near-capacity ASIL-D add in 16000
// changes whose deferred timing verification fails, forcing a window
// replay.
var streamMix = mix{telemetry: 20, heavyEvery: 16000}

// verdict is the compact record of one decision the checks compare.
type verdict struct {
	accepted   bool
	degraded   bool
	rejectedAt mcc.Stage
	findings   uint64
}

func verdictOf(rep *mcc.Report) verdict {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(rep.Findings, "\x00")))
	return verdict{accepted: rep.Accepted, degraded: rep.Degraded, rejectedAt: rep.RejectedAt, findings: h.Sum64()}
}

// decided reports whether a report is a decision: accepted, or rejected
// by an acceptance stage.
func decided(rep *mcc.Report) int {
	if rep.Accepted || rep.RejectedAt != "" {
		return 1
	}
	return 0
}

// expect checks a decision against its change's verdict class.
func (o *outcome) expect(i int, op op, v verdict) {
	var ok bool
	switch op.kind {
	case kindAdd, kindRemove, kindGranted:
		ok = v.accepted
	case kindBroken:
		ok = !v.accepted && v.rejectedAt == mcc.StageValidate
	case kindDenied:
		ok = !v.accepted && v.rejectedAt == mcc.StageSecurity
	case kindUpdate:
		ok = v.accepted
	case kindHeavy:
		ok = !v.accepted && v.rejectedAt == mcc.StageTiming
	}
	switch {
	case v.degraded:
		o.mismatch("change %d (%s): degraded decision", i, op.change)
	case !ok:
		o.mismatch("change %d (%s): kind %d got accepted=%v rejected_at=%q", i, op.change, op.kind, v.accepted, v.rejectedAt)
	}
}

func propose(m *mcc.MCC, c mcc.Change) *mcc.Report {
	if c.Update != nil {
		return m.ProposeUpdate(*c.Update)
	}
	return m.ProposeRemoval(c.Remove)
}

// setUp builds setupReps fresh controllers, each mcc.New plus the
// baseline deploy, records their walls, and returns the last one.
func setUp(f *scenario.Fleet, o *outcome) (*mcc.MCC, []float64, error) {
	var m *mcc.MCC
	var deploys []float64
	for range setupReps {
		m = nil
		runtime.GC()
		t0 := time.Now()
		mm, err := mcc.New(f.Platform)
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		rep := mm.ProposeArchitecture(f.Baseline)
		t2 := time.Now()
		if !rep.Accepted {
			return nil, nil, fmt.Errorf("baseline rejected at %s: %v", rep.RejectedAt, rep.Findings)
		}
		o.setups = append(o.setups, t2.Sub(t0).Seconds())
		deploys = append(deploys, t2.Sub(t1).Seconds())
		m = mm
	}
	runtime.GC()
	return m, deploys, nil
}

// freshOracle is a controller with the baseline deployed, outside any
// timing.
func freshOracle(p *model.Platform, baseline *model.FunctionalArchitecture) (*mcc.MCC, error) {
	m, err := mcc.New(p)
	if err != nil {
		return nil, err
	}
	if rep := m.ProposeArchitecture(baseline); !rep.Accepted {
		return nil, fmt.Errorf("oracle baseline rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}
	return m, nil
}

// checkTables holds the controller's committed tables, as bound to its
// last accepted report, to the from-scratch oracle.
func checkTables(o *outcome, label string, p *model.Platform, m *mcc.MCC, last *mcc.Report) {
	if last == nil {
		return
	}
	timing, monitors, err := mcc.FromScratchTables(p, m.DeployedImpl())
	if err != nil {
		o.mismatch("%s: from-scratch tables: %v", label, err)
		return
	}
	if !reflect.DeepEqual(last.FullTiming(), timing) {
		o.mismatch("%s: committed timing table differs from the from-scratch oracle", label)
	}
	if !reflect.DeepEqual(last.FullMonitors(), monitors) {
		o.mismatch("%s: committed monitor plan differs from the from-scratch oracle", label)
	}
}

// cpaLayers fills the cpa.* metrics from the analyzer counters before and
// after the timed phase.
func cpaLayers(l map[string]float64, decisions int, before, after cpa.AnalyzerStats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses > 0 {
		l["cpa.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	l["cpa.misses_per_decision"] = float64(misses) / float64(max(decisions, 1))
	l["cpa.flight_waits"] = float64(after.FlightWaits - before.FlightWaits)
	l["cpa.entries"] = float64(after.Entries)
}

// goLayers fills the go.* metrics and the baseline deploy time.
func goLayers(l map[string]float64, decisions int, mem memDelta, deploys []float64) {
	n := float64(max(decisions, 1))
	l["go.alloc_bytes_per_decision"] = float64(mem.allocBytes) / n
	l["go.allocs_per_decision"] = float64(mem.allocs) / n
	l["go.gc_cycles"] = float64(mem.gcCycles)
	l["go.gc_pause_ms"] = float64(mem.gcPause) / float64(time.Millisecond)
	l["setup.baseline_deploy_s"] = median(deploys)
}

// runPropose is the O(diff) fast path on the largest platform: one client,
// closed loop, serial ProposeUpdate/ProposeRemoval.
func runPropose(cfg config) (*outcome, error) {
	f := scenario.GenFleet(scenario.DefaultFleetSpec(proposeProcs))
	o := &outcome{}
	m, deploys, err := setUp(f, o)
	if err != nil {
		return nil, err
	}
	g := newGen(cfg.seed, f.Baseline, proposeMix, proposeLive)
	var ops []op
	var log []verdict
	var last *mcc.Report
	decide := func(x op) (*mcc.Report, time.Time, time.Time) {
		t0 := time.Now()
		rep := propose(m, x.change)
		t1 := time.Now()
		ops = append(ops, x)
		log = append(log, verdictOf(rep))
		if rep.Accepted {
			last = rep
		}
		return rep, t0, t1
	}
	for _, x := range append(g.fill(), g.take(proposeWarmup)...) {
		decide(x)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	traced := 0
	cpa0 := m.TimingCacheStats()
	led, mem, overhead, err := timedPhase{
		unit: func() ([]*mcc.Report, time.Time, time.Time, int) {
			rep, t0, t1 := decide(g.next())
			return []*mcc.Report{rep}, t0, t1, 0
		},
		trace: func(led *ledger, reps []*mcc.Report, t0, t1 time.Time) {
			led.call(reps[0], t1.Sub(t0))
			tr.call(uint64(traced), "mcc.Propose", t0, t1, reps[0])
			traced++
		},
		deployed: func() int { return len(m.Deployed().Functions) },
		block:    proposeBlock,
		rssAt:    proposeRSSAt,
	}.run(cfg, o)
	if err != nil {
		return nil, err
	}
	cpa1 := m.TimingCacheStats()

	for i := range ops {
		o.expect(i, ops[i], log[i])
	}
	checkTables(o, "propose", f.Platform, m, last)
	if cfg.trace {
		if err := led.reconcile(); err != nil {
			o.mismatch("%v", err)
		}
		o.spans = tr
		o.layers = make(map[string]float64)
		led.layers(o.layers)
		cpaLayers(o.layers, o.phase.decisions, cpa0, cpa1)
		goLayers(o.layers, o.phase.decisions, mem, deploys)
		o.layers["trace.overhead_us_p50"] = overhead
	}
	return o, nil
}

// runStream sends fixed-size campaign chunks through one default
// StreamScheduler, closed loop: the next chunk waits for every verdict of
// the last.
func runStream(cfg config) (*outcome, error) {
	f := scenario.GenFleet(scenario.DefaultFleetSpec(streamProcs))
	o := &outcome{}
	m, deploys, err := setUp(f, o)
	if err != nil {
		return nil, err
	}
	s := mcc.NewStreamScheduler(m)
	g := newGen(cfg.seed, f.Baseline, streamMix, streamLive)
	var ops []op
	var log []verdict
	var last *mcc.Report
	run := func(chunk []op) ([]*mcc.Report, time.Time, time.Time) {
		changes := make([]mcc.Change, len(chunk))
		for i, x := range chunk {
			changes[i] = x.change
		}
		t0 := time.Now()
		reps := s.Run(changes)
		t1 := time.Now()
		ops = append(ops, chunk...)
		for _, rep := range reps {
			log = append(log, verdictOf(rep))
			if rep.Accepted {
				last = rep
			}
		}
		return reps, t0, t1
	}
	run(g.fill())
	for range streamWarmup {
		run(g.take(streamChunk))
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	traced := 0
	// The first failing add lands in the middle of the first timed chunk.
	g.startHeavies(streamChunk / 2)
	cpa0, st0 := m.TimingCacheStats(), s.Stats()
	led, mem, overhead, err := timedPhase{
		unit: func() ([]*mcc.Report, time.Time, time.Time, int) {
			reps, t0, t1 := run(g.take(streamChunk))
			return reps, t0, t1, 0
		},
		trace: func(led *ledger, reps []*mcc.Report, t0, t1 time.Time) {
			led.chunk(reps, t1.Sub(t0))
			tr.call(uint64(traced), "stream.Run", t0, t1, reps...)
			traced++
		},
		deployed: func() int { return len(m.Deployed().Functions) },
		block:    streamMix.heavyEvery / streamChunk,
		rssAt:    streamRSSAt,
	}.run(cfg, o)
	if err != nil {
		return nil, err
	}
	cpa1, st1 := m.TimingCacheStats(), s.Stats()

	for i := range ops {
		o.expect(i, ops[i], log[i])
	}
	checkTables(o, "stream", f.Platform, m, last)
	// The stream's verdicts must equal proposing the same changes serially
	// on a fresh controller.
	m, s, last = nil, nil, nil
	runtime.GC()
	serial, err := freshOracle(f.Platform, f.Baseline)
	if err != nil {
		return nil, err
	}
	for i, x := range ops {
		if v := verdictOf(propose(serial, x.change)); v != log[i] {
			o.mismatch("stream change %d (%s): stream verdict %+v, serial replay %+v", i, x.change, log[i], v)
		}
	}

	decisions := o.phase.decisions
	windows := st1.Windows - st0.Windows
	replays := st1.Replays - st0.Replays
	if replays == 0 || windows == 0 || float64(decisions)/float64(windows) <= 1 {
		o.mismatch("stream mechanism not exercised: %d replays, %d decisions over %d windows", replays, decisions, windows)
	}
	if cfg.trace {
		o.spans = tr
		o.layers = make(map[string]float64)
		led.layers(o.layers)
		cpaLayers(o.layers, decisions, cpa0, cpa1)
		goLayers(o.layers, decisions, mem, deploys)
		spec, disc := st1.Speculated-st0.Speculated, st1.DiscardedPasses-st0.DiscardedPasses
		if windows > 0 {
			o.layers["stream.decisions_per_window"] = float64(decisions) / float64(windows)
		}
		if spec+disc > 0 {
			o.layers["stream.speculated_ratio"] = float64(spec) / float64(spec+disc)
		}
		o.layers["stream.replays"] = float64(replays)
		o.layers["stream.discarded_passes"] = float64(disc)
		o.layers["stream.prefetched_per_decision"] = float64(st1.Prefetched-st0.Prefetched) / float64(max(decisions, 1))
		o.layers["stream.conflicts"] = float64(st1.Conflicts - st0.Conflicts)
		o.layers["trace.overhead_us_p50"] = overhead
	}
	return o, nil
}
