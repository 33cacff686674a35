package main

import (
	"context"
	"fmt"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/mcc"
	"repro/internal/scenario"
)

// Fleet sizing: 8 vehicles from 2 archetypes of 256 processors, driven
// round robin by one client. The vehicles keep 256-512 History reports
// each: at the default bound, the reports and the table snapshots they
// pin would grow the heap through every run (see README.md).
const (
	fleetVehicles   = 8
	fleetArchetypes = 2
	fleetProcs      = 256
	fleetLive       = 16
	fleetWarmup     = 500   // changes per vehicle
	fleetBlock      = 5000  // requests per throughput block, a twentieth of a 10 s run's
	fleetRSSAt      = 50000 // requests, about half of a 10 s run's
	fleetHistory    = 256
)

// fleetMix adds about 8% cross-domain flow edits, half of them granted,
// to the flow-free churn.
var fleetMix = mix{telemetry: 22, broken: 8, xdom: 8}

// vehicleRun is one vehicle's stream and what the fleet decided.
type vehicleRun struct {
	idx  int
	id   string
	arch *scenario.Fleet
	gen  *gen
	ops  []op
	got  []verdict
	sent []bool // the change got a verdict
	// timedFrom is the index of the first timed change; ends and walls
	// hold the timed changes' completion times and Propose walls.
	timedFrom int
	ends      []time.Time
	walls     []time.Duration
}

// req is the trace request ID of the vehicle's i-th change, shared by
// its in-process span and its HTTP span.
func (v *vehicleRun) req(i int) uint64 { return uint64(v.idx)<<32 | uint64(i) }

// fleetRuns generates the archetypes and each vehicle's seeded stream.
func fleetRuns(seed int64) []*vehicleRun {
	archs := make([]*scenario.Fleet, fleetArchetypes)
	for k := range archs {
		spec := scenario.DefaultFleetSpec(fleetProcs)
		spec.Seed = int64(k + 1)
		archs[k] = scenario.GenFleet(spec)
	}
	vs := make([]*vehicleRun, fleetVehicles)
	for i := range vs {
		a := archs[i%fleetArchetypes]
		vs[i] = &vehicleRun{
			idx:  i,
			id:   fmt.Sprintf("a%d-v%02d", i%fleetArchetypes, i),
			arch: a,
			gen:  newGen(seed*1_000_003+int64(i), a.Baseline, fleetMix, fleetLive),
		}
	}
	return vs
}

var flagDefault = regexp.MustCompile(`(?m)^\s+-(queue-depth|max-inflight|max-restarts|deadline) \w+\n\s+.*\(default ([^)]+)\)$`)

// fleetdConfig reads the defaults of the flags that size cmd/fleetd's
// fleet.Server from the binary's own usage text, so the in-process fleet
// runs with the configuration of fleetd started with default flags.
func fleetdConfig(bin string) (fleet.Config, error) {
	var cfg fleet.Config
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		return cfg, fmt.Errorf("%s -h: %w", bin, err)
	}
	found := 0
	for _, m := range flagDefault.FindAllStringSubmatch(string(out), -1) {
		var err error
		switch m[1] {
		case "queue-depth":
			cfg.QueueDepth, err = strconv.Atoi(m[2])
		case "max-inflight":
			cfg.MaxInFlight, err = strconv.Atoi(m[2])
		case "max-restarts":
			cfg.MaxRestarts, err = strconv.Atoi(m[2])
		case "deadline":
			cfg.ProposalDeadline, err = time.ParseDuration(m[2])
		}
		if err != nil {
			return cfg, fmt.Errorf("fleetd -%s default %q: %w", m[1], m[2], err)
		}
		found++
	}
	if found != 4 {
		return cfg, fmt.Errorf("%s -h: found %d of the 4 fleet.Server flag defaults", bin, found)
	}
	return cfg, nil
}

// propose sends one change for the vehicle to the fleet and records the
// verdict. The report is nil when the change got no verdict.
func (v *vehicleRun) propose(srv *fleet.Server, x op) (*mcc.Report, time.Time, time.Time) {
	t0 := time.Now()
	d := srv.Propose(context.Background(), v.id, x.change)
	t1 := time.Now()
	v.ops = append(v.ops, x)
	ok := d.Report != nil && (d.Verdict == fleet.Accepted || d.Verdict == fleet.Rejected)
	var got verdict
	if ok {
		got = verdictOf(d.Report)
	}
	v.got = append(v.got, got)
	v.sent = append(v.sent, ok)
	if !ok {
		return nil, t0, t1
	}
	return d.Report, t0, t1
}

// runFleet drives an in-process fleet.Server configured as cmd/fleetd's
// defaults configure it: one client sends the vehicles' changes round
// robin, each only after seeing the verdict of the vehicle's last one.
// The traced run also replays the same sequences through the fleetd
// binary over loopback HTTP.
func runFleet(cfg config) (*outcome, error) {
	fcfg, err := fleetdConfig(cfg.fleetd)
	if err != nil {
		return nil, err
	}
	fcfg.MCCOptions = []mcc.Option{mcc.WithHistoryLimit(fleetHistory)}
	vs := fleetRuns(cfg.seed)
	o := &outcome{}
	var srv *fleet.Server
	var deploys []float64
	for range setupReps {
		if srv != nil {
			srv.Drain()
		}
		srv = nil
		runtime.GC()
		t0 := time.Now()
		s, err := fleet.New(fcfg)
		if err != nil {
			return nil, err
		}
		for _, v := range vs {
			t := time.Now()
			if err := s.AddVehicle(v.id, v.arch.Platform, v.arch.Baseline); err != nil {
				s.Drain()
				return nil, err
			}
			deploys = append(deploys, time.Since(t).Seconds())
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
		srv = s
	}
	defer srv.Drain()

	for _, v := range vs {
		for _, x := range append(v.gen.fill(), v.gen.take(fleetWarmup)...) {
			if rep, _, _ := v.propose(srv, x); rep == nil {
				return nil, fmt.Errorf("warm-up %s: change %d got no verdict", v.id, len(v.ops)-1)
			}
		}
		v.timedFrom = len(v.ops)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	next := 0
	var cur *vehicleRun
	st0 := srv.Stats()
	led, mem, overhead, err := timedPhase{
		unit: func() ([]*mcc.Report, time.Time, time.Time, int) {
			cur = vs[next%len(vs)]
			next++
			v := cur
			rep, t0, t1 := v.propose(srv, v.gen.next())
			v.ends = append(v.ends, t1)
			v.walls = append(v.walls, t1.Sub(t0))
			if rep == nil {
				return nil, t0, t1, 1
			}
			return []*mcc.Report{rep}, t0, t1, 0
		},
		trace: func(led *ledger, reps []*mcc.Report, t0, t1 time.Time) {
			if len(reps) == 0 {
				return
			}
			v := cur
			st := led.report(reps[0])
			led.queue = append(led.queue, t1.Sub(t0)-st)
			if v.ops[len(v.ops)-1].flowEdit {
				led.flowEdit = append(led.flowEdit, st)
			}
			tr.call(v.req(len(v.ops)-1), "fleet.Server.Propose", t0, t1, reps[0])
		},
		block: fleetBlock,
		rssAt: fleetRSSAt,
	}.run(cfg, o)
	if err != nil {
		return nil, err
	}
	st1 := srv.Stats()

	flowEdits := 0
	for _, v := range vs {
		for _, x := range v.ops[v.timedFrom:] {
			if x.flowEdit {
				flowEdits++
			}
		}
	}
	if flowEdits == 0 {
		o.mismatch("fleet: no flow edits in the timed phase")
	}
	if err := checkFleetOracle(o, vs); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return o, nil
	}

	o.spans = tr
	l := make(map[string]float64)
	o.layers = l
	led.layers(l)
	cpaLayers(l, o.phase.decisions, st0.Analyzer, st1.Analyzer)
	goLayers(l, o.phase.decisions, mem, deploys)
	l["trace.overhead_us_p50"] = overhead
	l["fleet.shed"] = float64(st1.Shed - st0.Shed)
	l["fleet.crashes"] = float64(st1.Crashes - st0.Crashes)
	if err := replayOverHTTP(cfg, o, vs, tr, l); err != nil {
		return nil, err
	}
	return o, nil
}

// checkFleetOracle replays every vehicle's stream on a standalone
// controller: the fleet's verdicts must equal it, every change must get
// its verdict class, the oracle's committed tables must equal the
// from-scratch ones, and the deployed set must not drift.
func checkFleetOracle(o *outcome, vs []*vehicleRun) error {
	tenth := o.phase.start.Add(o.phase.wall / 10)
	for _, v := range vs {
		m, err := freshOracle(v.arch.Platform, v.arch.Baseline)
		if err != nil {
			return err
		}
		first := v.timedFrom
		for first < len(v.ops) && v.ends[first-v.timedFrom].Before(tenth) {
			first++
		}
		var last *mcc.Report
		for i, x := range v.ops {
			if i == first {
				o.station.deployedFirst += len(m.Deployed().Functions)
			}
			if !v.sent[i] {
				continue
			}
			rep := propose(m, x.change)
			if rep.Accepted {
				last = rep
			}
			want := verdictOf(rep)
			if v.got[i] != want {
				o.mismatch("%s change %d (%s): fleet %+v, oracle %+v", v.id, i, x.change, v.got[i], want)
				continue
			}
			o.expect(i, x, want)
		}
		if first == len(v.ops) {
			o.station.deployedFirst += len(m.Deployed().Functions)
		}
		o.station.deployedLast += len(m.Deployed().Functions)
		checkTables(o, v.id, v.arch.Platform, m, last)
	}
	return nil
}
