// Package repro's root-level benchmarks regenerate every experiment of
// EXPERIMENTS.md (E1-E10). Each benchmark reports the experiment's headline
// numbers as custom metrics and logs the full table once, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper-shaped results end to end.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/canvirt"
	"repro/internal/scenario"
)

// BenchmarkE1_CANRoundTrip measures the virtualized CAN controller's added
// round-trip latency versus native access (Section III: ≈7-11 µs).
func BenchmarkE1_CANRoundTrip(b *testing.B) {
	for _, vms := range []int{1, 4, 8, 12} {
		vms := vms
		b.Run(benchName("vms", vms), func(b *testing.B) {
			var added float64
			for i := 0; i < b.N; i++ {
				d, err := canvirt.AddedLatency(vms, 20, 8)
				if err != nil {
					b.Fatal(err)
				}
				added = d.Micros()
			}
			b.ReportMetric(added, "added-us/rtt")
			if added < 7 || added > 11 {
				b.Fatalf("added latency %.2fus outside the published 7-11us band", added)
			}
		})
	}
}

// BenchmarkE2_ResourceModel evaluates the FPGA resource break-even
// (Section III: break-even with stand-alone controllers at four VMs).
func BenchmarkE2_ResourceModel(b *testing.B) {
	var breakEven int
	for i := 0; i < b.N; i++ {
		breakEven = canvirt.BreakEvenVFs()
	}
	b.ReportMetric(float64(breakEven), "break-even-VMs")
	b.ReportMetric(float64(canvirt.VirtualizedController(8).LUT), "LUT-virt-8VF")
	b.ReportMetric(float64(canvirt.StandaloneController().Scale(8).LUT), "LUT-standalone-x8")
	if breakEven != 4 {
		b.Fatalf("break-even at %d VMs, want 4", breakEven)
	}
}

// BenchmarkE3_MCCIntegration runs the MCC in-field update stream
// (Section II.A): feasible updates accepted, infeasible rejected at the
// correct pipeline stage.
func BenchmarkE3_MCCIntegration(b *testing.B) {
	var res scenario.MCCStreamResult
	for i := 0; i < b.N; i++ {
		r, err := scenario.RunMCCStream(scenario.DefaultMCCStreamConfig())
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.Accepted), "accepted")
	b.ReportMetric(float64(res.Rejected), "rejected")
	b.ReportMetric(float64(res.WorstWCRTUS), "worst-WCRT-us")
	logRows(b, res.Rows())
}

// BenchmarkMCCThroughput measures the MCC's change-request throughput on
// the fleet-scale E12 stream under the three integration strategies. The
// serial sub-benchmark is the seed baseline (per-change integration, every
// stage from scratch); full-incremental makes every stage incremental
// (scoped validation, warm-started mapping, partial synthesis, memoized
// timing with diff-proportional jobs, and monitor splicing);
// stream-parallel runs the change stream through the mcc.StreamScheduler,
// which runs the deferred busy-window analyses of each optimistic window
// once on its own goroutine. The controller starts no goroutine, so the
// two incremental strategies are expected to tie at any -cpu value; their
// ratio is only logged.
func BenchmarkMCCThroughput(b *testing.B) {
	changesPerSec := make(map[scenario.MCCThroughputMode]float64)
	for _, mode := range scenario.ThroughputModes() {
		mode := mode
		b.Run(string(mode), func(b *testing.B) {
			cfg := scenario.DefaultMCCThroughputConfig()
			cfg.Mode = mode
			var res scenario.MCCThroughputResult
			for i := 0; i < b.N; i++ {
				r, err := scenario.RunMCCThroughput(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			if res.Accepted+res.Rejected != cfg.Updates {
				b.Fatalf("decided %d/%d changes", res.Accepted+res.Rejected, cfg.Updates)
			}
			cps := float64(cfg.Updates) * float64(b.N) / b.Elapsed().Seconds()
			changesPerSec[mode] = cps
			b.ReportMetric(cps, "changes/s")
			b.ReportMetric(float64(res.Evaluations), "evaluations")
			b.ReportMetric(float64(res.CacheHits), "cache-hits")
			b.ReportMetric(float64(res.TimingScans), "timing-scans")
			logRows(b, res.Rows())
		})
	}
	if full, stream := changesPerSec[scenario.ThroughputFull], changesPerSec[scenario.ThroughputStream]; full > 0 && stream > 0 {
		b.Logf("stream-parallel/full-incremental changes/s ratio at GOMAXPROCS=%d: %.2f",
			runtime.GOMAXPROCS(0), stream/full)
	}
}

// BenchmarkE4_AbilityPropagation runs the ACC closed loop with a sensor
// fault (Section IV): detection via ability-graph propagation, graceful
// degradation instead of failure.
func BenchmarkE4_AbilityPropagation(b *testing.B) {
	var res scenario.ACCResult
	for i := 0; i < b.N; i++ {
		r, err := scenario.RunACC(scenario.DefaultACCConfig())
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.DetectionS, "detect-s")
	b.ReportMetric(res.MinGap, "min-gap-m")
	b.ReportMetric(res.SpeedCap, "speed-cap-mps")
	if res.Collision {
		b.Fatal("collision despite graceful degradation")
	}
	logRows(b, res.Rows())
}

// BenchmarkE5_IntrusionResponse compares the rear-brake intrusion response
// strategies (Section V): cross-layer keeps the driving objective alive.
func BenchmarkE5_IntrusionResponse(b *testing.B) {
	var rs []scenario.IntrusionResult
	for i := 0; i < b.N; i++ {
		r, err := scenario.RunIntrusionComparison()
		if err != nil {
			b.Fatal(err)
		}
		rs = r
	}
	for _, r := range rs {
		switch r.Config.Strategy {
		case scenario.StrategyCrossLayer:
			b.ReportMetric(r.FunctionalityRetained, "func-cross-layer")
		case scenario.StrategySafetyOnly:
			b.ReportMetric(r.FunctionalityRetained, "func-safety-only")
		case scenario.StrategyUncoordinated:
			b.ReportMetric(float64(r.Conflicts), "conflicts-uncoordinated")
		}
		logRows(b, r.Rows())
	}
}

// BenchmarkE6_ThermalStress compares thermal awareness policies
// (Section V): cross-layer ≺ dvfs-only ≺ none in deadline misses.
func BenchmarkE6_ThermalStress(b *testing.B) {
	var rs []scenario.ThermalResult
	for i := 0; i < b.N; i++ {
		r, err := scenario.RunThermalComparison()
		if err != nil {
			b.Fatal(err)
		}
		rs = r
	}
	for _, r := range rs {
		switch r.Config.Policy {
		case scenario.PolicyNone:
			b.ReportMetric(100*r.TotalMissRate(), "miss%-none")
		case scenario.PolicyDVFS:
			b.ReportMetric(100*r.TotalMissRate(), "miss%-dvfs")
		case scenario.PolicyCrossLayer:
			b.ReportMetric(100*r.TotalMissRate(), "miss%-crosslayer")
		}
		logRows(b, r.Rows())
	}
}

// BenchmarkE7_PlatoonConsensus measures byzantine-tolerant velocity
// agreement and the fog membership benefit (Section V).
func BenchmarkE7_PlatoonConsensus(b *testing.B) {
	var res scenario.PlatoonResult
	for i := 0; i < b.N; i++ {
		r, err := scenario.RunPlatoon(scenario.DefaultPlatoonConfig())
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.MaxAgreementError, "max-err-mps")
	b.ReportMetric(res.SoloSpeed, "fog-solo-mps")
	b.ReportMetric(res.PlatoonSpeed, "fog-platoon-mps")
	logRows(b, res.Rows())
}

// BenchmarkE8_WeatherRouting sweeps the degradation-aversion weight over
// the alpine-pass scenario (Section V) and locates the crossover.
func BenchmarkE8_WeatherRouting(b *testing.B) {
	var res scenario.RoutingResult
	for i := 0; i < b.N; i++ {
		r, err := scenario.RunRouting(scenario.DefaultRoutingConfig())
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.Crossover, "crossover-weight")
	logRows(b, res.Rows())
}

// BenchmarkE9_MonitorOverhead quantifies the run-time monitoring cost
// (Section II.B: "very little interference").
func BenchmarkE9_MonitorOverhead(b *testing.B) {
	var res scenario.OverheadResult
	for i := 0; i < b.N; i++ {
		r, err := scenario.RunMonitorOverhead()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.OverheadPct, "overhead-%")
	logRows(b, res.Rows())
}

// BenchmarkE10_DependencyAnalysis compares automated cross-layer
// dependency analysis with the manual per-layer FMEA baseline (Section V).
func BenchmarkE10_DependencyAnalysis(b *testing.B) {
	var res scenario.DepsResult
	for i := 0; i < b.N; i++ {
		r, err := scenario.RunDependencyAnalysis()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	var worstMissed float64
	for _, row := range res.RowsData {
		if row.MissedPct > worstMissed {
			worstMissed = row.MissedPct
		}
	}
	b.ReportMetric(worstMissed, "manual-missed-%")
	b.ReportMetric(float64(res.ChainsToObjective), "effect-chains")
	logRows(b, res.Rows())
}

// BenchmarkE11_Mission runs the capstone end-to-end mission: weather
// degradation plus a mid-mission intrusion, comparing coordinated
// cross-layer handling against the naive stop.
func BenchmarkE11_Mission(b *testing.B) {
	var rs []scenario.MissionResult
	for i := 0; i < b.N; i++ {
		r, err := scenario.RunMissionComparison()
		if err != nil {
			b.Fatal(err)
		}
		rs = r
	}
	for _, r := range rs {
		key := "km-naive"
		if r.Config.CrossLayer {
			key = "km-crosslayer"
		}
		b.ReportMetric(r.DistanceM/1000, key)
		logRows(b, r.Rows())
	}
}

func logRows(b *testing.B, rows []string) {
	b.Helper()
	for _, r := range rows {
		b.Log(r)
	}
}

func benchName(prefix string, n int) string {
	digits := ""
	if n == 0 {
		digits = "0"
	}
	for n > 0 {
		digits = string(rune('0'+n%10)) + digits
		n /= 10
	}
	return prefix + "=" + digits
}
