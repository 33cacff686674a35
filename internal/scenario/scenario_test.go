package scenario

import (
	"testing"

	"repro/internal/mcc"
	"repro/internal/sensors"
	"repro/internal/skills"
)

// ---- E4 -------------------------------------------------------------

func TestE4NominalRunStaysFull(t *testing.T) {
	cfg := DefaultACCConfig()
	cfg.FaultAtS = 0 // no fault
	cfg.DurationS = 60
	r, err := RunACC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Collision {
		t.Fatal("collision in nominal run")
	}
	if r.FinalRootBand != skills.Full {
		t.Fatalf("nominal root band = %v", r.FinalRootBand)
	}
	if r.TacticFired {
		t.Fatal("tactic fired without fault")
	}
	if r.MinGap < 10 {
		t.Fatalf("min gap %.1f too small in nominal run", r.MinGap)
	}
}

func TestE4NoisyFaultDetectedAndDegraded(t *testing.T) {
	r, err := RunACC(DefaultACCConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Collision {
		t.Fatal("collision despite graceful degradation")
	}
	if r.DetectionS < 0 {
		t.Fatal("fault never detected")
	}
	if r.DetectionS > 10 {
		t.Fatalf("detection took %.1fs", r.DetectionS)
	}
	if !r.TacticFired {
		t.Fatal("degradation tactic did not fire")
	}
	if r.SpeedCap <= 0 || r.SpeedCap >= r.Config.SetSpeed {
		t.Fatalf("speed cap = %.1f", r.SpeedCap)
	}
	if r.FinalRootBand == skills.Full {
		t.Fatal("root still Full under active fault")
	}
	if len(r.Rows()) == 0 {
		t.Fatal("no table rows")
	}
}

func TestE4DropoutFault(t *testing.T) {
	cfg := DefaultACCConfig()
	cfg.Fault = sensors.FaultDropout
	cfg.FaultMagnitude = 0.7
	r, err := RunACC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.DetectionS < 0 {
		t.Fatal("dropout never detected")
	}
	if r.Collision {
		t.Fatal("collision under dropout")
	}
}

// ---- E5 -------------------------------------------------------------

func TestE5CrossLayerKeepsDriving(t *testing.T) {
	r, err := RunIntrusion(DefaultIntrusionConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Detected {
		t.Fatal("intrusion not detected")
	}
	if !r.DrivingContinues {
		t.Fatal("cross-layer response stopped the vehicle")
	}
	if r.FunctionalityRetained <= 0.3 {
		t.Fatalf("functionality = %.2f", r.FunctionalityRetained)
	}
	if r.SpeedCap <= 0 || r.SpeedCap >= r.Config.CruiseSpeed {
		t.Fatalf("speed cap = %.1f", r.SpeedCap)
	}
	// Safe margin: can stop within the demanded 40 m.
	if r.StoppingDistanceM > 40.5 {
		t.Fatalf("stopping distance %.1f m exceeds demanded 40 m", r.StoppingDistanceM)
	}
	if r.Conflicts != 0 {
		t.Fatalf("coordinated run had %d conflicts", r.Conflicts)
	}
}

func TestE5SafetyOnlyLosesFunction(t *testing.T) {
	cfg := DefaultIntrusionConfig()
	cfg.Strategy = StrategySafetyOnly
	r, err := RunIntrusion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.DrivingContinues {
		t.Fatal("safety-only kept driving without redundancy")
	}
	if !r.Resolution.SafeState {
		t.Fatal("safety-only response not safe")
	}
	if r.FunctionalityRetained > 0.1 {
		t.Fatalf("functionality = %.2f", r.FunctionalityRetained)
	}
}

func TestE5ObjectiveStop(t *testing.T) {
	cfg := DefaultIntrusionConfig()
	cfg.Strategy = StrategyObjectiveStop
	r, err := RunIntrusion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.DrivingContinues {
		t.Fatal("objective-stop kept driving")
	}
	if !r.Resolution.SafeState {
		t.Fatal("objective stop not safe")
	}
}

func TestE5UncoordinatedConflicts(t *testing.T) {
	cfg := DefaultIntrusionConfig()
	cfg.Strategy = StrategyUncoordinated
	r, err := RunIntrusion(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Conflicts == 0 {
		t.Fatal("uncoordinated run produced no conflicts")
	}
}

func TestE5ComparisonOrdering(t *testing.T) {
	rs, err := RunIntrusionComparison()
	if err != nil {
		t.Fatal(err)
	}
	byStrategy := map[IntrusionStrategy]IntrusionResult{}
	for _, r := range rs {
		byStrategy[r.Config.Strategy] = r
	}
	// The paper's point: cross-layer retains strictly more functionality
	// than both single-layer strategies, all while staying safe.
	cl := byStrategy[StrategyCrossLayer]
	so := byStrategy[StrategySafetyOnly]
	os := byStrategy[StrategyObjectiveStop]
	if !(cl.FunctionalityRetained > so.FunctionalityRetained) {
		t.Fatalf("cross-layer %.2f <= safety-only %.2f", cl.FunctionalityRetained, so.FunctionalityRetained)
	}
	if !(cl.FunctionalityRetained > os.FunctionalityRetained) {
		t.Fatalf("cross-layer %.2f <= objective-stop %.2f", cl.FunctionalityRetained, os.FunctionalityRetained)
	}
	if !cl.Resolution.SafeState || !so.Resolution.SafeState || !os.Resolution.SafeState {
		t.Fatal("a coordinated strategy ended unsafe")
	}
}

// ---- E6 -------------------------------------------------------------

func TestE6PolicyOrdering(t *testing.T) {
	rs, err := RunThermalComparison()
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[ThermalPolicy]ThermalResult{}
	for _, r := range rs {
		byPolicy[r.Config.Policy] = r
	}
	none := byPolicy[PolicyNone]
	dvfs := byPolicy[PolicyDVFS]
	cross := byPolicy[PolicyCrossLayer]
	// Expected shape on total miss rate: cross <= dvfs <= none, with the
	// unaware baseline clearly bad and cross-layer clearly good.
	if !(cross.TotalMissRate() <= dvfs.TotalMissRate()) {
		t.Fatalf("cross %.3f > dvfs %.3f", cross.TotalMissRate(), dvfs.TotalMissRate())
	}
	if !(dvfs.TotalMissRate() <= none.TotalMissRate()) {
		t.Fatalf("dvfs %.3f > none %.3f", dvfs.TotalMissRate(), none.TotalMissRate())
	}
	if none.TotalMissRate() < 0.05 {
		t.Fatalf("unaware baseline missed only %.3f; heat wave too mild", none.TotalMissRate())
	}
	if cross.TotalMissRate() > 0.02 {
		t.Fatalf("cross-layer still misses %.3f overall", cross.TotalMissRate())
	}
	// The critical task: the unaware baseline misses it; both aware
	// policies protect it.
	if none.MissRate() < 0.01 {
		t.Fatalf("unaware baseline protected the critical task (%.3f)", none.MissRate())
	}
	if cross.MissRate() > 0.01 || dvfs.MissRate() > 0.05 {
		t.Fatalf("aware policies missed the critical task: cross %.3f dvfs %.3f", cross.MissRate(), dvfs.MissRate())
	}
	// Only the unaware baseline spends time above the damage threshold.
	if none.TimeAboveCriticalS == 0 {
		t.Fatal("unaware baseline never reached the damage threshold")
	}
	if dvfs.TimeAboveCriticalS > 0 || cross.TimeAboveCriticalS > 0 {
		t.Fatalf("aware policies overheated: dvfs %.1fs cross %.1fs", dvfs.TimeAboveCriticalS, cross.TimeAboveCriticalS)
	}
	// DVFS keeps the chip cooler than no awareness.
	if dvfs.PeakTempC >= none.PeakTempC {
		t.Fatalf("dvfs peak %.1f >= none peak %.1f", dvfs.PeakTempC, none.PeakTempC)
	}
	// Cross-layer actually shed load.
	if !cross.ShedQMTask {
		t.Fatal("cross-layer did not shed the QM task")
	}
	if len(cross.Rows()) == 0 {
		t.Fatal("no rows")
	}
}

// ---- E7 -------------------------------------------------------------

func TestE7ByzantineToleratedAndEjected(t *testing.T) {
	r, err := RunPlatoon(DefaultPlatoonConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Agreement stays within the honest proposal spread.
	if r.MaxAgreementError > 0.5 {
		t.Fatalf("agreement error %.2f", r.MaxAgreementError)
	}
	if r.ByzantineEjectedRound < 0 {
		t.Fatal("byzantine member never identified")
	}
	if r.ByzantineEjectedRound > 10 {
		t.Fatalf("identification took %d rounds", r.ByzantineEjectedRound)
	}
	if r.HonestMinTrust < 0.9 {
		t.Fatalf("honest trust eroded to %.2f", r.HonestMinTrust)
	}
	// Fog: platoon membership beats solo crawling.
	if r.PlatoonSpeed <= r.SoloSpeed {
		t.Fatalf("platoon %.1f <= solo %.1f", r.PlatoonSpeed, r.SoloSpeed)
	}
	if len(r.Rows()) == 0 {
		t.Fatal("no rows")
	}
}

func TestE7MoreByzantineStillValid(t *testing.T) {
	cfg := DefaultPlatoonConfig()
	cfg.Honest = 7
	cfg.Byzantine = 2
	r, err := RunPlatoon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxAgreementError > 0.5 {
		t.Fatalf("agreement error %.2f with 2 byzantine", r.MaxAgreementError)
	}
}

// ---- E8 -------------------------------------------------------------

func TestE8CrossoverShape(t *testing.T) {
	r, err := RunRouting(DefaultRoutingConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RowsData) != len(DefaultRoutingConfig().Weights) {
		t.Fatalf("rows = %d", len(r.RowsData))
	}
	// Weight 0 goes over the pass; the largest weight takes the valley.
	if r.RowsData[0].Via != "pass" {
		t.Fatalf("risk-neutral via %s", r.RowsData[0].Via)
	}
	last := r.RowsData[len(r.RowsData)-1]
	if last.Via != "valley" {
		t.Fatalf("risk-averse via %s", last.Via)
	}
	if r.Crossover <= 0 {
		t.Fatalf("crossover = %v", r.Crossover)
	}
	// Expected degradations fall when switching to the valley.
	if last.ExpectedDegradations >= r.RowsData[0].ExpectedDegradations {
		t.Fatal("valley not safer than pass")
	}
}

// ---- E3 -------------------------------------------------------------

func TestE3StreamShape(t *testing.T) {
	r, err := RunMCCStream(DefaultMCCStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Accepted == 0 || r.Rejected == 0 {
		t.Fatalf("accepted=%d rejected=%d; stream should mix", r.Accepted, r.Rejected)
	}
	if r.Accepted+r.Rejected != r.Config.Updates {
		t.Fatal("counts do not add up")
	}
	// Known-infeasible generators must be rejected at the right stages.
	if r.RejectedByStage[mcc.StageValidate] == 0 {
		t.Fatal("no contract-validation rejections")
	}
	if r.RejectedByStage[mcc.StageMapping] == 0 {
		t.Fatal("no mapping rejections")
	}
	if r.FinalTasks == 0 || r.FinalMonitors == 0 {
		t.Fatalf("final config empty: %d tasks, %d monitors", r.FinalTasks, r.FinalMonitors)
	}
	if r.WorstWCRTUS <= 0 {
		t.Fatal("no WCRT recorded")
	}
	if len(r.Rows()) == 0 {
		t.Fatal("no rows")
	}
}

// ---- E9 -------------------------------------------------------------

func TestE9OverheadSmall(t *testing.T) {
	r, err := RunMonitorOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs == 0 {
		t.Fatal("no supervised jobs")
	}
	// "with very little interference": overhead bounded by 5%.
	if r.OverheadPct > 5 {
		t.Fatalf("monitoring overhead %.2f%%", r.OverheadPct)
	}
	if r.OverheadPct < 0 {
		t.Fatalf("negative overhead %.2f%%", r.OverheadPct)
	}
	if len(r.Rows()) == 0 {
		t.Fatal("no rows")
	}
}

// ---- E10 ------------------------------------------------------------

func TestE10AutomatedBeatsManual(t *testing.T) {
	r, err := RunDependencyAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RowsData) == 0 {
		t.Fatal("no rows")
	}
	anyMissed := false
	for _, row := range r.RowsData {
		if row.Automated < row.Manual {
			t.Fatalf("automated %d < manual %d for %s", row.Automated, row.Manual, row.Source)
		}
		if row.MissedPct > 0 {
			anyMissed = true
		}
	}
	if !anyMissed {
		t.Fatal("manual baseline missed nothing; graph too shallow")
	}
	if r.ChainsToObjective == 0 {
		t.Fatal("no effect chains to the objective layer")
	}
	if len(r.CommonCauses) == 0 {
		t.Fatal("no common causes found")
	}
}

// ---- determinism ------------------------------------------------------

func TestScenariosDeterministic(t *testing.T) {
	a, err := RunACC(DefaultACCConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunACC(DefaultACCConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.DetectionS != b.DetectionS || a.MinGap != b.MinGap || a.FinalRootLevel != b.FinalRootLevel {
		t.Fatalf("E4 not deterministic: %+v vs %+v", a, b)
	}
	p1, err := RunPlatoon(DefaultPlatoonConfig())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RunPlatoon(DefaultPlatoonConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p1.MaxAgreementError != p2.MaxAgreementError {
		t.Fatal("E7 not deterministic")
	}
}

func TestRunMCCThroughput(t *testing.T) {
	// Every integration strategy — serial baseline, full-incremental, and
	// stream-parallel — may only differ in cost, never in which changes
	// the fleet accepts.
	results := make(map[MCCThroughputMode]MCCThroughputResult)
	for _, mode := range ThroughputModes() {
		cfg := DefaultMCCThroughputConfig()
		cfg.Mode = mode
		r, err := RunMCCThroughput(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if r.Accepted+r.Rejected != cfg.Updates {
			t.Fatalf("%s: decided %d of %d changes", mode, r.Accepted+r.Rejected, cfg.Updates)
		}
		if r.Rejected == 0 {
			t.Fatalf("%s: stream contains malformed contracts, expected rejections", mode)
		}
		// Per-stage wall-clock telemetry must be visible for every mode.
		if len(r.StageWall) == 0 {
			t.Fatalf("%s: no per-stage telemetry recorded", mode)
		}
		if _, ok := r.StageWall[mcc.StageTiming]; !ok {
			t.Fatalf("%s: timing stage missing from telemetry: %v", mode, r.StageWall)
		}
		results[mode] = r
	}
	serial, full, stream := results[ThroughputSerial], results[ThroughputFull], results[ThroughputStream]
	for _, r := range []MCCThroughputResult{full, stream} {
		if r.Accepted != serial.Accepted || r.Rejected != serial.Rejected || r.FinalTasks != serial.FinalTasks {
			t.Fatalf("modes disagree: %s %d/%d/%d vs %s %d/%d/%d",
				serial.Config.Mode, serial.Accepted, serial.Rejected, serial.FinalTasks,
				r.Config.Mode, r.Accepted, r.Rejected, r.FinalTasks)
		}
	}
	if serial.Evaluations != serial.Config.Updates {
		t.Fatalf("serial mode ran %d evaluations for %d changes", serial.Evaluations, serial.Config.Updates)
	}
	if full.Evaluations != full.Config.Updates {
		t.Fatalf("full-incremental mode ran %d evaluations for %d changes", full.Evaluations, full.Config.Updates)
	}

	// The serial baseline scans every loaded resource per proposal; the
	// diff-proportional job construction of the incremental engine must
	// rebuild only the dirty few and splice the rest from the deployed
	// cache without any TasksOn/MessagesOn scan.
	if serial.TimingScans < serial.TimingResources {
		t.Fatalf("serial mode spliced timing jobs: %d scans < %d resources", serial.TimingScans, serial.TimingResources)
	}
	for _, r := range []MCCThroughputResult{full, stream} {
		if r.TimingScans*4 > r.TimingResources {
			t.Fatalf("%s: timing-job construction not diff-proportional: %d scans for %d resources",
				r.Config.Mode, r.TimingScans, r.TimingResources)
		}
	}

	// The stream scheduler must decide the whole stream through verified
	// optimistic windows on E12 (no timing rejections => no replays), with
	// exactly one pipeline pass per change, and must run each deferred
	// analysis exactly once: its memo hits and misses equal the serial
	// engine's, so verification reads the window's verdicts, never the
	// memo again.
	if stream.Evaluations != stream.Config.Updates {
		t.Fatalf("stream-parallel ran %d evaluations for %d changes", stream.Evaluations, stream.Config.Updates)
	}
	if stream.Stream.Replays != 0 || stream.Stream.Speculated != stream.Config.Updates {
		t.Fatalf("stream-parallel scheduler stats = %+v, want all %d changes speculated with no replays",
			stream.Stream, stream.Config.Updates)
	}
	if stream.Stream.Prefetched == 0 {
		t.Fatal("stream-parallel analyzed nothing ahead of verification")
	}
	if stream.CacheHits != full.CacheHits || stream.CacheMisses != full.CacheMisses {
		t.Fatalf("stream-parallel memo hits/misses = %d/%d, full-incremental %d/%d",
			stream.CacheHits, stream.CacheMisses, full.CacheHits, full.CacheMisses)
	}
}

func TestE12ThroughputDeterministic(t *testing.T) {
	cfg := DefaultMCCThroughputConfig()
	a, err := RunMCCThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMCCThroughput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Accepted != b.Accepted || a.Rejected != b.Rejected ||
		a.Evaluations != b.Evaluations || a.FinalTasks != b.FinalTasks {
		t.Fatalf("throughput scenario nondeterministic: %+v vs %+v", a, b)
	}
}
