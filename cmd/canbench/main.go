// Command canbench runs the virtualized-CAN-controller experiments of
// Section III — E1 (added round-trip latency vs native across VM counts
// and payload sizes) and E2 (FPGA resource break-even vs stand-alone
// controllers) — plus E12, the MCC change-stream throughput comparison
// across the integration strategies of the staged acceptance pipeline.
//
// Usage:
//
//	canbench -experiment e1 [-probes 200]
//	canbench -experiment e2 [-maxvf 16]
//	canbench -experiment e12 [-changes 64]
//	canbench -experiment e12 -cores 1,0        # GOMAXPROCS sweep (0 = all cores)
//	canbench -experiment e12 -cache mcc.cache  # persistent timing-analyzer memo
//	canbench -experiment e13 [-procs 32,128,512] [-scale-changes 32]
//	canbench -experiment e14 [-chaos-procs 32] [-chaos-changes 24]
//	canbench -experiment e15 [-fleet-vehicles 6] [-fleet-archetypes 2] [-fleet-procs 8] [-fleet-changes 12]
//	canbench -experiment all
//	canbench -experiment all -json   # machine-readable, for BENCH_*.json
//
// E13 is the fleet-scale stress tier: the E12 throughput measurement on
// generated platforms of growing processor counts, publishing the
// scans-per-change curve that proves the accept path is diff-proportional
// (flat for the incremental modes, linear in the platform for serial).
//
// E14 is the chaos tier: the generated-fleet change stream driven under a
// deterministic fault matrix (injected analyzer errors, worker panics,
// cache corruption, stage stalls racing the proposal deadline, journal
// undo failures), publishing per-fault availability, recovery telemetry,
// and the parity verdict against the clean serial oracle.
//
// E15 is the multi-tenant availability tier: M vehicles hosted by one
// fleet.Server, driven concurrently under per-tenant injected faults,
// publishing sustained throughput, decision-latency percentiles, shed
// rate, and the blast-radius verdict (healthy vehicles bit-identical to
// their standalone oracles while one tenant is killed, stalled, or shed).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/canvirt"
	"repro/internal/cpa"
	"repro/internal/scenario"
)

// e1Row is one E1 configuration's latency measurement.
type e1Row struct {
	VMs          int     `json:"vms"`
	PayloadBytes int     `json:"payload_bytes"`
	NativeUS     float64 `json:"native_rtt_us"`
	VirtUS       float64 `json:"virt_rtt_us"`
	AddedUS      float64 `json:"added_us"`
}

// e2Row is one E2 resource-model point.
type e2Row struct {
	VMs            int  `json:"vms"`
	StandaloneLUT  int  `json:"standalone_lut"`
	VirtualizedLUT int  `json:"virtualized_lut"`
	VirtCheaper    bool `json:"virtualized_cheaper"`
}

// e13Row is one E13 scale-tier point: one integration strategy on one
// generated platform size.
type e13Row struct {
	Procs           int              `json:"procs"`
	Resources       int              `json:"resources"`
	Mode            string           `json:"mode"`
	Changes         int              `json:"changes"`
	Accepted        int              `json:"accepted"`
	Rejected        int              `json:"rejected"`
	Evaluations     int              `json:"evaluations"`
	CacheHits       int64            `json:"cache_hits"`
	CacheMisses     int64            `json:"cache_misses"`
	TimingScans     int              `json:"timing_scans"`
	ScansPerChange  float64          `json:"scans_per_change"`
	SecurityChecks  int              `json:"security_checks"`
	SafetyChecks    int              `json:"safety_checks"`
	ChecksPerChange float64          `json:"checks_per_change"`
	WallUS          int64            `json:"wall_us"`
	ChangesPerSec   float64          `json:"changes_per_sec"`
	StageWallUS     map[string]int64 `json:"stage_wall_us"`
}

// e14Row is one E14 chaos-tier point: one fault spec driven through one
// integration strategy, with the oracle-parity verdict.
type e14Row struct {
	Spec            string  `json:"spec"`
	Mode            string  `json:"mode"`
	Procs           int     `json:"procs"`
	Changes         int     `json:"changes"`
	Accepted        int     `json:"accepted"`
	Rejected        int     `json:"rejected"`
	Degraded        int     `json:"degraded"`
	DeadlineExpired int     `json:"deadline_expired"`
	PanicsRecovered int     `json:"panics_recovered"`
	RetriedAnalyses int     `json:"retried_analyses"`
	Replays         int     `json:"replays"`
	DiscardedPasses int     `json:"discarded_passes"`
	FaultsInjected  int     `json:"faults_injected"`
	Mismatches      int     `json:"mismatches"`
	ParityOK        bool    `json:"parity_ok"`
	AvailabilityPct float64 `json:"availability_pct"`
	MeanLatencyUS   int64   `json:"mean_latency_us"`
	P99LatencyUS    int64   `json:"p99_latency_us,omitempty"`
	MaxLatencyUS    int64   `json:"max_latency_us,omitempty"`
	RecoveryUS      int64   `json:"recovery_us,omitempty"`
	WallUS          int64   `json:"wall_us"`
}

// e15Row is one E15 availability-tier point: one fault spec on the
// multi-tenant fleet server, with the blast-radius verdict.
type e15Row struct {
	Spec              string  `json:"spec"`
	Vehicles          int     `json:"vehicles"`
	Archetypes        int     `json:"archetypes"`
	Procs             int     `json:"procs"`
	ChangesPerVehicle int     `json:"changes_per_vehicle"`
	Offered           int64   `json:"offered"`
	Decided           int64   `json:"decided"`
	Accepted          int64   `json:"accepted"`
	Rejected          int64   `json:"rejected"`
	Shed              int64   `json:"shed"`
	ShedRatePct       float64 `json:"shed_rate_pct"`
	Crashes           int64   `json:"crashes"`
	Restarts          int64   `json:"restarts"`
	Parked            int     `json:"parked"`
	FaultedVehicle    string  `json:"faulted_vehicle,omitempty"`
	FaultedLost       int     `json:"faulted_lost"`
	ParityChecked     bool    `json:"parity_checked"`
	HealthyLost       int     `json:"healthy_lost"`
	HealthyMismatches int     `json:"healthy_mismatches"`
	BlastRadiusOK     bool    `json:"blast_radius_ok"`
	FaultsInjected    int     `json:"faults_injected"`
	MeanLatencyUS     int64   `json:"mean_latency_us"`
	P99LatencyUS      int64   `json:"p99_latency_us"`
	MaxLatencyUS      int64   `json:"max_latency_us"`
	ChangesPerSec     float64 `json:"changes_per_sec"`
	WallUS            int64   `json:"wall_us"`
	CacheHits         int64   `json:"cache_hits"`
	CacheMisses       int64   `json:"cache_misses"`
	FlightWaits       int64   `json:"flight_waits"`
}

// e12Row is one E12 integration strategy's throughput measurement.
type e12Row struct {
	Mode           string           `json:"mode"`
	Cores          int              `json:"cores"`
	Changes        int              `json:"changes"`
	Accepted       int              `json:"accepted"`
	Rejected       int              `json:"rejected"`
	Evaluations    int              `json:"evaluations"`
	CacheHits      int64            `json:"cache_hits"`
	CacheMisses    int64            `json:"cache_misses"`
	TimingScans    int              `json:"timing_scans"`
	SecurityChecks int              `json:"security_checks"`
	SafetyChecks   int              `json:"safety_checks"`
	WallUS         int64            `json:"wall_us"`
	ChangesPerSec  float64          `json:"changes_per_sec"`
	StageWallUS    map[string]int64 `json:"stage_wall_us"`
}

// benchReport is the -json output document.
type benchReport struct {
	E1        []e1Row  `json:"e1,omitempty"`
	E2        []e2Row  `json:"e2,omitempty"`
	BreakEven int      `json:"e2_break_even_vms,omitempty"`
	E12       []e12Row `json:"e12,omitempty"`
	E13       []e13Row `json:"e13,omitempty"`
	E14       []e14Row `json:"e14,omitempty"`
	E15       []e15Row `json:"e15,omitempty"`
}

func main() {
	log.SetFlags(0)
	experiment := flag.String("experiment", "all", "which experiment to run: e1, e2, e12, e13, all")
	probes := flag.Int("probes", 100, "round trips per E1 configuration")
	maxVF := flag.Int("maxvf", 16, "largest VM count for the sweeps")
	changes := flag.Int("changes", 64, "streamed change requests per E12 strategy")
	cores := flag.String("cores", "0", "comma-separated GOMAXPROCS values for the E12 sweep (0 = all cores)")
	procs := flag.String("procs", "32,128,512,2048", "comma-separated platform sizes for the E13 scale sweep")
	scaleChanges := flag.Int("scale-changes", 32, "streamed change requests per E13 point")
	scaleModes := flag.String("scale-modes", "", "comma-separated E13 integration strategies (default serial,full-incremental,stream-parallel); the CI flatness gate selects the incremental modes only, the 2048p serial run costs seconds per point")
	chaosProcs := flag.Int("chaos-procs", 32, "platform size for the E14 chaos tier")
	chaosChanges := flag.Int("chaos-changes", 24, "streamed change requests per E14 run")
	fleetVehicles := flag.Int("fleet-vehicles", 6, "tenant count for the E15 availability tier")
	fleetArchetypes := flag.Int("fleet-archetypes", 2, "distinct platform archetypes across the E15 tenants")
	fleetProcs := flag.Int("fleet-procs", 8, "platform size per E15 archetype")
	fleetChanges := flag.Int("fleet-changes", 12, "streamed change requests per E15 vehicle")
	cachePath := flag.String("cache", "", "persistent timing-analyzer memo table for E12: loaded before the runs, saved back after (warm-starts the busy-window analyses across sessions)")
	asJSON := flag.Bool("json", false, "emit results as JSON on stdout")
	flag.Parse()

	var rep benchReport
	runE1 := *experiment == "e1" || *experiment == "all"
	runE2 := *experiment == "e2" || *experiment == "all"
	runE12 := *experiment == "e12" || *experiment == "all"
	runE13 := *experiment == "e13" || *experiment == "e13-scale" || *experiment == "all"
	runE14 := *experiment == "e14" || *experiment == "all"
	runE15 := *experiment == "e15" || *experiment == "all"
	if !runE1 && !runE2 && !runE12 && !runE13 && !runE14 && !runE15 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
	if runE1 {
		rows, err := measureE1(*probes, *maxVF)
		if err != nil {
			log.Fatal(err)
		}
		rep.E1 = rows
	}
	if runE2 {
		rep.E2 = measureE2(*maxVF)
		rep.BreakEven = canvirt.BreakEvenVFs()
	}
	if runE12 {
		coreList, err := parseIntList("-cores", *cores)
		if err != nil {
			log.Fatal(err)
		}
		var cache *e12Cache
		if *cachePath != "" {
			if cache, err = loadE12Cache(*cachePath); err != nil {
				log.Fatal(err)
			}
		}
		rows, err := measureE12(*changes, coreList, cache)
		if err != nil {
			log.Fatal(err)
		}
		rep.E12 = rows
		if cache != nil {
			if err := cpa.SaveCacheFile(cache.master, *cachePath); err != nil {
				log.Fatal(err)
			}
		}
	}
	if runE13 {
		procList, err := parseIntList("-procs", *procs)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := measureE13(procList, *scaleChanges, *scaleModes)
		if err != nil {
			log.Fatal(err)
		}
		rep.E13 = rows
	}
	if runE14 {
		rows, err := measureE14(*chaosProcs, *chaosChanges)
		if err != nil {
			log.Fatal(err)
		}
		rep.E14 = rows
	}
	if runE15 {
		rows, err := measureE15(*fleetVehicles, *fleetArchetypes, *fleetProcs, *fleetChanges)
		if err != nil {
			log.Fatal(err)
		}
		rep.E15 = rows
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		return
	}
	if runE1 {
		printE1(rep.E1)
	}
	if runE1 && runE2 {
		fmt.Println()
	}
	if runE2 {
		printE2(rep.E2, rep.BreakEven)
	}
	if runE12 {
		if runE1 || runE2 {
			fmt.Println()
		}
		printE12(rep.E12)
	}
	if runE13 {
		if runE1 || runE2 || runE12 {
			fmt.Println()
		}
		printE13(rep.E13)
	}
	if runE14 {
		if runE1 || runE2 || runE12 || runE13 {
			fmt.Println()
		}
		printE14(rep.E14)
	}
	if runE15 {
		if runE1 || runE2 || runE12 || runE13 || runE14 {
			fmt.Println()
		}
		printE15(rep.E15)
	}
}

// measureE15 runs the multi-tenant availability tier and flattens the
// rows into the JSON format. A non-zero blast radius on a parity-checked
// row is a robustness regression, so it fails the command, not just the
// row.
func measureE15(vehicles, archetypes, procs, changes int) ([]e15Row, error) {
	cfg := scenario.DefaultFleetAvailConfig()
	cfg.Vehicles = vehicles
	cfg.Archetypes = archetypes
	cfg.Procs = procs
	cfg.Updates = changes
	rows, err := scenario.RunFleetAvail(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]e15Row, 0, len(rows))
	for _, r := range rows {
		if !r.BlastRadiusOK {
			return nil, fmt.Errorf("e15 %s: blast radius not zero: %d healthy decision(s) lost, %d mismatched: %s",
				r.Spec, r.HealthyLost, r.HealthyMismatches, r.FirstMismatch)
		}
		out = append(out, e15Row{
			Spec:              r.Spec,
			Vehicles:          r.Vehicles,
			Archetypes:        r.Archetypes,
			Procs:             r.Procs,
			ChangesPerVehicle: r.ChangesPerVehicle,
			Offered:           r.Offered,
			Decided:           r.Decided,
			Accepted:          r.Accepted,
			Rejected:          r.Rejected,
			Shed:              r.Shed,
			ShedRatePct:       r.ShedRatePct,
			Crashes:           r.Crashes,
			Restarts:          r.Restarts,
			Parked:            r.Parked,
			FaultedVehicle:    r.FaultedVehicle,
			FaultedLost:       r.FaultedLost,
			ParityChecked:     r.ParityChecked,
			HealthyLost:       r.HealthyLost,
			HealthyMismatches: r.HealthyMismatches,
			BlastRadiusOK:     r.BlastRadiusOK,
			FaultsInjected:    r.FaultsInjected,
			MeanLatencyUS:     r.MeanLatencyUS,
			P99LatencyUS:      r.P99LatencyUS,
			MaxLatencyUS:      r.MaxLatencyUS,
			ChangesPerSec:     r.ChangesPerSec,
			WallUS:            r.WallUS,
			CacheHits:         r.CacheHits,
			CacheMisses:       r.CacheMisses,
			FlightWaits:       r.FlightWaits,
		})
	}
	return out, nil
}

func printE15(rows []e15Row) {
	fmt.Println("E15: multi-tenant fleet availability under per-tenant faults (blast radius must be zero)")
	fmt.Println("spec             vehicles  offered  decided  acc  rej  shed  shed%  crash  restart  park  h-lost  h-mism  blast-ok  mean-lat   p99-lat  changes/s")
	for _, r := range rows {
		blast := "skip"
		if r.ParityChecked {
			blast = fmt.Sprintf("%v", r.BlastRadiusOK)
		}
		fmt.Printf("%-16s %8d  %7d  %7d  %3d  %3d  %4d  %4.1f%%  %5d  %7d  %4d  %6d  %6d  %8s  %6dus  %6dus  %9.0f\n",
			r.Spec, r.Vehicles, r.Offered, r.Decided, r.Accepted, r.Rejected, r.Shed, r.ShedRatePct,
			r.Crashes, r.Restarts, r.Parked, r.HealthyLost, r.HealthyMismatches, blast,
			r.MeanLatencyUS, r.P99LatencyUS, r.ChangesPerSec)
	}
}

// measureE14 runs the chaos tier and flattens the rows into the JSON
// format. Any parity failure is a robustness regression, so it fails the
// command, not just the row.
func measureE14(procs, changes int) ([]e14Row, error) {
	cfg := scenario.DefaultMCCChaosConfig()
	cfg.Procs = procs
	cfg.Updates = changes
	rows, err := scenario.RunMCCChaos(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]e14Row, 0, len(rows))
	for _, r := range rows {
		if !r.ParityOK {
			return nil, fmt.Errorf("e14 %s/%s: %d decision(s) diverged from the clean oracle: %s",
				r.Spec, r.Mode, r.Mismatches, r.FirstMismatch)
		}
		out = append(out, e14Row{
			Spec:            r.Spec,
			Mode:            string(r.Mode),
			Procs:           r.Procs,
			Changes:         r.Changes,
			Accepted:        r.Accepted,
			Rejected:        r.Rejected,
			Degraded:        r.Degraded,
			DeadlineExpired: r.DeadlineExpired,
			PanicsRecovered: r.PanicsRecovered,
			RetriedAnalyses: r.RetriedAnalyses,
			Replays:         r.Replays,
			DiscardedPasses: r.DiscardedPasses,
			FaultsInjected:  r.FaultsInjected,
			Mismatches:      r.Mismatches,
			ParityOK:        r.ParityOK,
			AvailabilityPct: r.AvailabilityPct,
			MeanLatencyUS:   r.MeanLatencyUS,
			P99LatencyUS:    r.P99LatencyUS,
			MaxLatencyUS:    r.MaxLatencyUS,
			RecoveryUS:      r.RecoveryUS,
			WallUS:          r.WallUS,
		})
	}
	return out, nil
}

func printE14(rows []e14Row) {
	fmt.Println("E14: MCC decision parity and availability under the injected-fault matrix (chaos tier)")
	fmt.Println("spec                  mode              changes  acc  rej  degr  ddl  panics  retries  replays  discarded  faults  parity  avail%   mean-lat   p99-lat  recovery")
	for _, r := range rows {
		fmt.Printf("%-21s %-17s %7d  %3d  %3d  %4d  %3d  %6d  %7d  %7d  %9d  %6d  %6v  %5.1f%%  %7dus  %7dus  %6dus\n",
			r.Spec, r.Mode, r.Changes, r.Accepted, r.Rejected, r.Degraded, r.DeadlineExpired,
			r.PanicsRecovered, r.RetriedAnalyses, r.Replays, r.DiscardedPasses, r.FaultsInjected, r.ParityOK,
			r.AvailabilityPct, r.MeanLatencyUS, r.P99LatencyUS, r.RecoveryUS)
	}
}

// measureE13 sweeps the generated fleet platforms through the E13 scale
// tier and flattens the scenario rows into the JSON trajectory format.
// The headline column is scans_per_change: flat across platform sizes for
// the incremental modes, proportional to the resource count for serial.
func measureE13(procList []int, changes int, modes string) ([]e13Row, error) {
	for _, p := range procList {
		if p < 2 {
			return nil, fmt.Errorf("invalid -procs entry %d", p)
		}
	}
	cfg := scenario.DefaultMCCScaleConfig()
	cfg.Procs = procList
	cfg.Updates = changes
	if modes != "" {
		cfg.Modes = cfg.Modes[:0]
		for _, m := range strings.Split(modes, ",") {
			// Unknown names surface as RunMCCScale errors.
			cfg.Modes = append(cfg.Modes, scenario.MCCThroughputMode(strings.TrimSpace(m)))
		}
	}
	rows, err := scenario.RunMCCScale(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]e13Row, 0, len(rows))
	for _, r := range rows {
		res := r.Result
		row := e13Row{
			Procs:           r.Procs,
			Resources:       r.Resources,
			Mode:            string(res.Config.Mode),
			Changes:         res.Config.Updates,
			Accepted:        res.Accepted,
			Rejected:        res.Rejected,
			Evaluations:     res.Evaluations,
			CacheHits:       res.CacheHits,
			CacheMisses:     res.CacheMisses,
			TimingScans:     res.TimingScans,
			ScansPerChange:  r.ScansPerChange(),
			SecurityChecks:  res.SecurityChecks,
			SafetyChecks:    res.SafetyChecks,
			ChecksPerChange: r.ChecksPerChange(),
			WallUS:          res.StreamWall.Microseconds(),
			ChangesPerSec:   float64(res.Config.Updates) / res.StreamWall.Seconds(),
			StageWallUS:     make(map[string]int64, len(res.StageWall)),
		}
		for st, d := range res.StageWall {
			row.StageWallUS[string(st)] = d.Microseconds()
		}
		out = append(out, row)
	}
	return out, nil
}

func printE13(rows []e13Row) {
	fmt.Println("E13: MCC change-stream throughput vs platform size (scale tier)")
	fmt.Println("procs  resources  mode              changes  acc  rej  scans  scans/change  checks/change      wall  changes/s")
	for _, r := range rows {
		fmt.Printf("%5d  %9d  %-17s %7d  %3d  %3d  %5d  %12.2f  %13.2f  %8dus  %9.0f\n",
			r.Procs, r.Resources, r.Mode, r.Changes, r.Accepted, r.Rejected,
			r.TimingScans, r.ScansPerChange, r.ChecksPerChange, r.WallUS, r.ChangesPerSec)
	}
}

// e12Cache carries the persistent busy-window memo across the E12 sweep.
// Every run gets its own analyzer warm-loaded from the session-start
// snapshot — never from the preceding runs — so the cross-mode and
// cross-core wall-clock ratios measure the strategies, not accumulated
// cache warmth; each run's new entries are merged into master, which is
// what gets saved back for the next session.
type e12Cache struct {
	seed   []byte
	master *cpa.Analyzer
}

// loadE12Cache reads the cache file; a missing file yields an empty seed.
func loadE12Cache(path string) (*e12Cache, error) {
	c := &e12Cache{master: cpa.NewAnalyzer()}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	c.seed = data
	if err := cpa.LoadCache(c.master, bytes.NewReader(data)); err != nil {
		return nil, err
	}
	return c, nil
}

// analyzerForRun returns a fresh analyzer warmed from the session-start
// snapshot only.
func (c *e12Cache) analyzerForRun() (*cpa.Analyzer, error) {
	a := cpa.NewAnalyzer()
	if len(c.seed) > 0 {
		if err := cpa.LoadCache(a, bytes.NewReader(c.seed)); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// absorb merges one run's memo table into the master.
func (c *e12Cache) absorb(a *cpa.Analyzer) {
	cpa.MergeCache(c.master, a)
}

// parseIntList parses a comma-separated sweep list for the named flag
// (-cores, where 0 means "all cores", or -procs).
func parseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("invalid %s entry %q", flagName, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// measureE12 streams the fleet-scale change requests through every MCC
// integration strategy — at every requested GOMAXPROCS value — and
// records throughput plus the per-stage wall clock, so the BENCH_*.json
// trajectory tracks which pipeline stages each optimization step actually
// removes, under one core and under all cores (the controller decides on
// the caller's goroutine, so a second core helps only the runtime and the
// garbage collector). The persistent cache (from -cache) warm-starts every
// run from the previous session's memo, isolated per run so the ratios
// stay fair.
func measureE12(changes int, coreList []int, cache *e12Cache) ([]e12Row, error) {
	var rows []e12Row
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, cores := range coreList {
		n := cores
		if n == 0 {
			n = runtime.NumCPU()
		}
		runtime.GOMAXPROCS(n)
		for _, mode := range scenario.ThroughputModes() {
			cfg := scenario.DefaultMCCThroughputConfig()
			cfg.Mode = mode
			cfg.Updates = changes
			if cache != nil {
				a, err := cache.analyzerForRun()
				if err != nil {
					return nil, err
				}
				cfg.Analyzer = a
			}
			res, err := scenario.RunMCCThroughput(cfg)
			if err != nil {
				return nil, fmt.Errorf("e12 %s: %w", mode, err)
			}
			if cache != nil {
				cache.absorb(cfg.Analyzer)
			}
			// StreamWall excludes the fleet-baseline deployment every mode
			// pays identically, so the per-mode ratios are honest.
			elapsed := res.StreamWall
			row := e12Row{
				Mode:           string(mode),
				Cores:          n,
				Changes:        cfg.Updates,
				Accepted:       res.Accepted,
				Rejected:       res.Rejected,
				Evaluations:    res.Evaluations,
				CacheHits:      res.CacheHits,
				CacheMisses:    res.CacheMisses,
				TimingScans:    res.TimingScans,
				SecurityChecks: res.SecurityChecks,
				SafetyChecks:   res.SafetyChecks,
				WallUS:         elapsed.Microseconds(),
				ChangesPerSec:  float64(cfg.Updates) / elapsed.Seconds(),
				StageWallUS:    make(map[string]int64, len(res.StageWall)),
			}
			for st, d := range res.StageWall {
				row.StageWallUS[string(st)] = d.Microseconds()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func measureE1(probes, maxVF int) ([]e1Row, error) {
	var rows []e1Row
	for _, vms := range []int{1, 2, 4, 8, 12, maxVF} {
		for _, payload := range []int{0, 4, 8} {
			base := canvirt.ProbeConfig{Probes: probes, PayloadBytes: payload}
			nat, err := canvirt.MeasureNative(base)
			if err != nil {
				return nil, fmt.Errorf("native: %w", err)
			}
			cfg := base
			cfg.VMs = vms
			virt, err := canvirt.MeasureVirtualized(cfg)
			if err != nil {
				return nil, fmt.Errorf("virtualized: %w", err)
			}
			rows = append(rows, e1Row{
				VMs:          vms,
				PayloadBytes: payload,
				NativeUS:     nat.Mean().Micros(),
				VirtUS:       virt.Mean().Micros(),
				AddedUS:      (virt.Mean() - nat.Mean()).Micros(),
			})
		}
	}
	return rows, nil
}

func measureE2(maxVF int) []e2Row {
	var rows []e2Row
	for n := 1; n <= maxVF; n++ {
		sa := canvirt.StandaloneController().Scale(n)
		v := canvirt.VirtualizedController(n)
		rows = append(rows, e2Row{
			VMs:            n,
			StandaloneLUT:  sa.LUT,
			VirtualizedLUT: v.LUT,
			VirtCheaper:    v.LUT <= sa.LUT,
		})
	}
	return rows
}

func printE1(rows []e1Row) {
	fmt.Println("E1: virtualized CAN controller round-trip latency (paper: +7-11us added)")
	fmt.Println("VMs  payload  native-RTT   virt-RTT    added")
	for _, r := range rows {
		fmt.Printf("%3d  %5dB  %9.2fus  %9.2fus  %+6.2fus\n",
			r.VMs, r.PayloadBytes, r.NativeUS, r.VirtUS, r.AddedUS)
	}
}

func printE2(rows []e2Row, breakEven int) {
	fmt.Println("E2: FPGA resource model (paper: break-even with stand-alone controllers at four VMs)")
	fmt.Println("VMs  standalone-LUT  virtualized-LUT  virtualized-cheaper")
	for _, r := range rows {
		fmt.Printf("%3d  %14d  %15d  %v\n", r.VMs, r.StandaloneLUT, r.VirtualizedLUT, r.VirtCheaper)
	}
	fmt.Printf("break-even at %d VMs\n", breakEven)
}

func printE12(rows []e12Row) {
	fmt.Println("E12: MCC change-stream throughput across integration strategies")
	fmt.Println("mode              cores  changes  acc  rej  evals  cache-hits  scans   wall       changes/s")
	for _, r := range rows {
		fmt.Printf("%-17s %5d  %7d  %3d  %3d  %5d  %10d  %5d  %8dus  %9.0f\n",
			r.Mode, r.Cores, r.Changes, r.Accepted, r.Rejected, r.Evaluations, r.CacheHits, r.TimingScans, r.WallUS, r.ChangesPerSec)
	}
}
