package scenario

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cpa"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/mcc"
)

// E15 is the multi-tenant availability tier: M vehicles (generated from K
// platform archetypes, so same-model vehicles share analyzer digests)
// hosted by one fleet.Server and driven concurrently under per-tenant
// injected faults. For every fault spec the tier measures sustained
// decision throughput, the decision-latency distribution, and the shed
// rate, and asserts the bulkhead contract as data: while one tenant is
// being killed, stalled, or shed, every HEALTHY vehicle's decisions must
// be bit-identical (verdict + findings) to its never-restarted standalone
// oracle, with zero decisions lost or duplicated — the blast radius of a
// faulted tenant is zero.
//
// The faults go through the fleet's own hook points ("fleet.worker",
// "fleet.queue") keyed by the faulted vehicle's ID; vehicle MCCs never
// carry injectors (see the fleet package comment on shared-analyzer
// pollution). The overload column instead shrinks the global in-flight
// budget below the offered concurrency, proving backpressure sheds
// explicitly instead of hanging. Its vehicles shed by design, so its
// parity check compares each vehicle's decided changes against an oracle
// that decides exactly those changes, in stream order.

// availSeed seeds every E15 injector so rate-based rules are reproducible.
const availSeed = 0x0E15

// FleetFaultSpec is one column of the E15 fault matrix. Rule resources
// are filled in at run time with the faulted vehicle's ID, so every rule
// targets exactly one tenant.
type FleetFaultSpec struct {
	// Name labels the spec in rows and JSON.
	Name string
	// Rules configures the injector; Resource is overwritten with the
	// faulted vehicle ID (except for Overload specs, whose rules stay
	// fleet-wide).
	Rules []faultinject.Rule
	// Overload, when set, runs the spec with a global in-flight budget of
	// OverloadBudget: vehicles shed by design, so the parity check decides
	// only the changes that were not shed.
	Overload bool
	// OverloadBudget is the MaxInFlight for an Overload spec (default 2).
	OverloadBudget int
}

// DefaultFleetFaultSpecs returns the E15 fault matrix: a clean control
// column, a repeatedly crashing tenant (supervised restart + retry),
// a stalled tenant (latency isolation), a tenant whose admission layer
// fails (per-tenant shed), and a fleet-wide overload column.
func DefaultFleetFaultSpecs() []FleetFaultSpec {
	return []FleetFaultSpec{
		{Name: "none"},
		{
			// The faulted tenant's decision panics on every 3rd attempt:
			// the supervisor rebuilds it from its committed trajectory
			// and retries the request on the rebuilt vehicle.
			Name:  "tenant-panic",
			Rules: []faultinject.Rule{{Stage: "fleet.worker", Mode: faultinject.ModePanic, Every: 3, Count: 4}},
		},
		{
			// The faulted tenant's decision path stalls 2ms per request:
			// injected latency on one bulkhead, isolation for the rest.
			Name:  "tenant-stall",
			Rules: []faultinject.Rule{{Stage: "fleet.worker", Mode: faultinject.ModeStall, Every: 2, StallUS: 2000}},
		},
		{
			// The faulted tenant's admission layer fails every other
			// request: explicit per-tenant shed, zero pipeline time spent.
			Name:  "admission-error",
			Rules: []faultinject.Rule{{Stage: "fleet.queue", Mode: faultinject.ModeError, Every: 2}},
		},
		{
			// Offered concurrency exceeds the global in-flight budget:
			// backpressure must shed explicitly, never hang. The fleet-wide
			// slow worker keeps slots occupied long enough to contend.
			Name:     "overload",
			Overload: true,
			Rules:    []faultinject.Rule{{Stage: "fleet.worker", Mode: faultinject.ModeSlow, StallUS: 5000}},
		},
	}
}

// FleetAvailConfig parameterizes the E15 run.
type FleetAvailConfig struct {
	// Vehicles is the tenant count M.
	Vehicles int
	// Archetypes is the number of distinct platform archetypes K; vehicles
	// are assigned round-robin, so same-archetype vehicles share platform,
	// baseline, and analyzer digests.
	Archetypes int
	// Procs is each archetype platform's processor count.
	Procs int
	// Updates is the number of streamed change requests per vehicle.
	Updates int
	// QueueDepth / MaxInFlight override the server bounds (defaults:
	// fleet defaults for the queue, 2*Vehicles for the budget so healthy
	// serial drivers never shed outside the overload column).
	QueueDepth  int
	MaxInFlight int
	// Specs is the fault matrix.
	Specs []FleetFaultSpec
}

// DefaultFleetAvailConfig returns the baseline E15 parameters.
func DefaultFleetAvailConfig() FleetAvailConfig {
	return FleetAvailConfig{
		Vehicles:   6,
		Archetypes: 2,
		Procs:      8,
		Updates:    12,
		Specs:      DefaultFleetFaultSpecs(),
	}
}

// FleetAvailRow is one fault-spec point of the E15 matrix.
type FleetAvailRow struct {
	// Spec names the fault spec.
	Spec string
	// Vehicles/Archetypes/Procs/ChangesPerVehicle echo the configuration.
	Vehicles          int
	Archetypes        int
	Procs             int
	ChangesPerVehicle int
	// Offered counts Propose calls; Decided the subset that ran the
	// pipeline; Shed the subset rejected at admission. Offered is always
	// Decided+Shed: no request hangs or vanishes.
	Offered  int64
	Decided  int64
	Accepted int64
	Rejected int64
	Shed     int64
	// ShedRatePct is 100*Shed/Offered.
	ShedRatePct float64
	// Crashes/Restarts/Parked sum the supervisor telemetry.
	Crashes  int64
	Restarts int64
	Parked   int
	// FaultedVehicle is the tenant the rules target ("" for none/overload).
	FaultedVehicle string
	// FaultedLost counts the faulted tenant's own requests that never
	// reached the pipeline (shed at its failing admission layer).
	FaultedLost int
	// ParityChecked reports whether the blast-radius parity applies to the
	// row; every row of the matrix is checked.
	ParityChecked bool
	// HealthyLost counts decisions lost on healthy vehicles (any verdict
	// that did not run the pipeline, except the overload column's sheds)
	// and HealthyMismatches the decisions that diverged from the
	// standalone oracle; BlastRadiusOK is the headline verdict — both
	// zero.
	HealthyLost       int
	HealthyMismatches int
	FirstMismatch     string
	BlastRadiusOK     bool
	// FaultsInjected is the injector's total fire count.
	FaultsInjected int
	// Latency distribution over the decided (pipeline) requests.
	MeanLatencyUS int64
	P99LatencyUS  int64
	MaxLatencyUS  int64
	// ChangesPerSec is the sustained decision throughput (Decided/wall).
	ChangesPerSec float64
	// WallUS is the wall clock of driving all vehicles concurrently.
	WallUS int64
	// CacheHits/CacheMisses/FlightWaits snapshot the shared analyzer:
	// same-archetype tenants pay each busy-window analysis once fleet-wide.
	CacheHits   int64
	CacheMisses int64
	FlightWaits int64
}

// availVehicle is one tenant with its archetype, deterministic stream,
// and precomputed standalone oracle.
type availVehicle struct {
	id     string
	arch   *Fleet
	stream []mcc.Change
	oracle []*mcc.Report
}

// RunFleetAvail executes E15: generate the archetypes and per-vehicle
// streams, derive each vehicle's standalone oracle once, then host the
// whole fleet under every fault spec and compare the healthy vehicles'
// decisions against the oracle.
func RunFleetAvail(cfg FleetAvailConfig) ([]FleetAvailRow, error) {
	if cfg.Vehicles < 2 {
		return nil, fmt.Errorf("scenario: fleet avail needs >= 2 vehicles, got %d", cfg.Vehicles)
	}
	if cfg.Archetypes < 1 || cfg.Archetypes > cfg.Vehicles {
		return nil, fmt.Errorf("scenario: fleet avail needs 1..%d archetypes, got %d", cfg.Vehicles, cfg.Archetypes)
	}
	if cfg.Procs < 2 {
		return nil, fmt.Errorf("scenario: fleet avail platform needs >= 2 processors, got %d", cfg.Procs)
	}
	if cfg.Updates < 1 {
		return nil, fmt.Errorf("scenario: fleet avail stream needs >= 1 update, got %d", cfg.Updates)
	}

	archetypes := make([]*Fleet, cfg.Archetypes)
	for k := range archetypes {
		spec := DefaultFleetSpec(cfg.Procs)
		spec.Seed = int64(k + 1)
		archetypes[k] = GenFleet(spec)
	}

	// One memo table shared by the oracle runs only; the fleet servers get
	// their own analyzers so the rows measure fleet-side sharing honestly.
	memo := cpa.NewAnalyzer()
	vehicles := make([]*availVehicle, cfg.Vehicles)
	for i := range vehicles {
		arch := archetypes[i%cfg.Archetypes]
		v := &availVehicle{
			id:   fmt.Sprintf("a%d-v%02d", i%cfg.Archetypes, i),
			arch: arch,
			// Each vehicle draws its own stream from the archetype's
			// generator: same change mix, distinct deterministic draws.
			stream: arch.ChangesWithSeed(cfg.Updates, int64(101+i*7919)),
		}
		oracle, err := availOracle(arch, v.stream, memo)
		if err != nil {
			return nil, fmt.Errorf("fleet avail oracle %s: %w", v.id, err)
		}
		v.oracle = oracle
		vehicles[i] = v
	}

	rows := make([]FleetAvailRow, 0, len(cfg.Specs))
	for _, fs := range cfg.Specs {
		row, err := runFleetAvailSpec(cfg, vehicles, fs, memo)
		if err != nil {
			return nil, fmt.Errorf("fleet avail %s: %w", fs.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// availOracle decides a stream on a standalone, never-restarted MCC of
// the archetype, with the same options a fleet vehicle gets.
func availOracle(arch *Fleet, stream []mcc.Change, memo *cpa.Analyzer) ([]*mcc.Report, error) {
	m, err := mcc.New(arch.Platform, mcc.WithAnalyzer(memo))
	if err != nil {
		return nil, err
	}
	if rep := m.ProposeArchitecture(arch.Baseline); !rep.Accepted {
		return nil, fmt.Errorf("baseline rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}
	out := make([]*mcc.Report, len(stream))
	for i, c := range stream {
		out[i] = proposeChaosChange(m, c)
	}
	return out, nil
}

// runFleetAvailSpec hosts the fleet under one fault spec: all vehicles
// driven concurrently (serially within each tenant, preserving stream
// order), then the healthy-vehicle parity and telemetry accounting.
func runFleetAvailSpec(cfg FleetAvailConfig, vehicles []*availVehicle, fs FleetFaultSpec, memo *cpa.Analyzer) (FleetAvailRow, error) {
	row := FleetAvailRow{
		Spec:              fs.Name,
		Vehicles:          cfg.Vehicles,
		Archetypes:        cfg.Archetypes,
		Procs:             cfg.Procs,
		ChangesPerVehicle: cfg.Updates,
		ParityChecked:     true,
	}
	var inj *faultinject.Injector
	if len(fs.Rules) > 0 {
		rules := make([]faultinject.Rule, len(fs.Rules))
		copy(rules, fs.Rules)
		if !fs.Overload {
			row.FaultedVehicle = vehicles[0].id
			for i := range rules {
				rules[i].Resource = row.FaultedVehicle
			}
		}
		inj = faultinject.New(availSeed, rules...)
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight <= 0 {
		// Serial per-tenant drivers keep at most one request in flight per
		// vehicle, so this budget never sheds a healthy request.
		maxInFlight = 2 * cfg.Vehicles
	}
	if fs.Overload {
		maxInFlight = fs.OverloadBudget
		if maxInFlight <= 0 {
			maxInFlight = 2
		}
	}
	srv, err := fleet.New(fleet.Config{
		QueueDepth:     cfg.QueueDepth,
		MaxInFlight:    maxInFlight,
		MaxRestarts:    10,
		RestartBackoff: time.Millisecond,
		Injector:       inj,
	})
	if err != nil {
		return row, err
	}
	defer srv.Drain()
	for _, v := range vehicles {
		if err := srv.AddVehicle(v.id, v.arch.Platform, v.arch.Baseline); err != nil {
			return row, err
		}
	}

	type drive struct {
		decisions []fleet.Decision
		latsUS    []int64
	}
	drives := make([]drive, len(vehicles))
	var wg sync.WaitGroup
	start := time.Now()
	for i, v := range vehicles {
		wg.Add(1)
		go func(i int, v *availVehicle) {
			defer wg.Done()
			d := &drives[i]
			for _, c := range v.stream {
				t0 := time.Now()
				dec := srv.Propose(nil, v.id, c)
				lat := time.Since(t0).Microseconds()
				d.decisions = append(d.decisions, dec)
				if dec.Verdict == fleet.Accepted || dec.Verdict == fleet.Rejected {
					d.latsUS = append(d.latsUS, lat)
				}
			}
		}(i, v)
	}
	wg.Wait()
	row.WallUS = time.Since(start).Microseconds()

	st := srv.Stats()
	row.Offered = st.Offered
	row.Decided = st.Decided
	row.Accepted = st.Accepted
	row.Rejected = st.Rejected
	row.Shed = st.Shed
	row.Crashes = st.Crashes
	row.Restarts = st.Restarts
	row.Parked = st.Parked
	row.CacheHits = st.Analyzer.Hits
	row.CacheMisses = st.Analyzer.Misses
	row.FlightWaits = st.Analyzer.FlightWaits
	row.FaultsInjected = inj.TotalFired()
	if row.Offered > 0 {
		row.ShedRatePct = 100 * float64(row.Shed) / float64(row.Offered)
	}
	if row.Offered != row.Decided+row.Shed {
		return row, fmt.Errorf("%d offered != %d decided + %d shed (a request hung or vanished)",
			row.Offered, row.Decided, row.Shed)
	}

	var lats []int64
	for i, v := range vehicles {
		d := drives[i]
		lats = append(lats, d.latsUS...)
		if len(d.decisions) != len(v.stream) {
			return row, fmt.Errorf("%s: %d decisions for %d changes", v.id, len(d.decisions), len(v.stream))
		}
		if v.id == row.FaultedVehicle {
			for _, dec := range d.decisions {
				if dec.Verdict != fleet.Accepted && dec.Verdict != fleet.Rejected {
					row.FaultedLost++
				}
			}
			continue
		}
		// Each driver sends its stream in order, so under overload the
		// decided changes are the stream minus the shed ones: the oracle
		// decides exactly those, in order.
		oracle, at := v.oracle, make([]int, 0, len(v.stream))
		for j, dec := range d.decisions {
			if !fs.Overload || dec.Verdict != fleet.RejectedOverload {
				at = append(at, j)
			}
		}
		if fs.Overload {
			decided := make([]mcc.Change, len(at))
			for k, j := range at {
				decided[k] = v.stream[j]
			}
			if oracle, err = availOracle(v.arch, decided, memo); err != nil {
				return row, fmt.Errorf("overload oracle %s: %w", v.id, err)
			}
		}
		for k, j := range at {
			dec := d.decisions[j]
			if dec.Verdict != fleet.Accepted && dec.Verdict != fleet.Rejected {
				row.HealthyLost++
				continue
			}
			if diff := chaosCompare(dec.Report, oracle[k]); diff != "" {
				row.HealthyMismatches++
				if row.FirstMismatch == "" {
					row.FirstMismatch = fmt.Sprintf("%s change %d: %s", v.id, j, diff)
				}
			}
		}
	}
	row.BlastRadiusOK = row.HealthyLost == 0 && row.HealthyMismatches == 0

	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum int64
		for _, l := range lats {
			sum += l
		}
		row.MeanLatencyUS = sum / int64(len(lats))
		row.P99LatencyUS = lats[(99*len(lats)+99)/100-1]
		row.MaxLatencyUS = lats[len(lats)-1]
	}
	if row.WallUS > 0 {
		row.ChangesPerSec = float64(row.Decided) / (float64(row.WallUS) / 1e6)
	}
	return row, nil
}
