package scenario

import (
	"fmt"
	"testing"
)

// Shared telemetry contract for every throughput experiment row (E12 and
// the E13 scale tier alike): the cpa cache counters and the Report scan
// telemetry must be populated according to the integration mode, so a new
// experiment wired onto runChangeStream can never silently ship zeroed
// timing_scans / cache columns into a BENCH_*.json trajectory.
func assertThroughputTelemetry(t *testing.T, label string, res MCCThroughputResult) {
	t.Helper()
	decided := res.Accepted + res.Rejected
	if decided != res.Config.Updates {
		t.Errorf("%s: decided %d of %d changes", label, decided, res.Config.Updates)
	}
	if res.Evaluations <= 0 {
		t.Errorf("%s: zero pipeline evaluations recorded", label)
	}
	if res.StreamWall <= 0 {
		t.Errorf("%s: zero stream wall clock recorded", label)
	}
	if res.TimingResources <= 0 {
		t.Errorf("%s: zero timing resource coverage recorded", label)
	}
	if res.TimingScans <= 0 {
		t.Errorf("%s: zero timing scans recorded", label)
	}
	if res.FinalTasks <= 0 {
		t.Errorf("%s: zero deployed tasks after the stream", label)
	}
	if len(res.StageWall) == 0 {
		t.Errorf("%s: no per-stage wall clock recorded", label)
	}

	if res.SafetyChecks <= 0 {
		t.Errorf("%s: zero safety checks recorded", label)
	}

	switch res.Config.Mode {
	case ThroughputSerial:
		// From-scratch integration: every evaluation scans at least every
		// loaded resource, and the memoizing analyzer is not in play.
		if res.TimingScans < res.TimingResources {
			t.Errorf("%s: serial scanned %d < covered %d resources", label, res.TimingScans, res.TimingResources)
		}
		if res.CacheHits != 0 || res.CacheMisses != 0 {
			t.Errorf("%s: serial mode moved analyzer counters (hits=%d misses=%d)",
				label, res.CacheHits, res.CacheMisses)
		}
		// The from-scratch verdict stages walk every session and entity
		// per evaluation: at least one security verdict per deployed
		// connection-carrying evaluation, and safety verdicts well above
		// the decided-change count.
		if res.SecurityChecks <= 0 {
			t.Errorf("%s: serial mode recorded no security checks", label)
		}
		if res.SafetyChecks <= decided {
			t.Errorf("%s: serial mode recorded %d safety checks for %d changes — not a full walk",
				label, res.SafetyChecks, decided)
		}
	default:
		// Fully incremental modes: misses are the real busy-window runs,
		// and diff-proportional job construction must splice most of the
		// coverage — scans strictly below the resources covered.
		if res.CacheMisses <= 0 {
			t.Errorf("%s: incremental mode recorded no analyzer misses", label)
		}
		if res.TimingScans >= res.TimingResources {
			t.Errorf("%s: incremental mode scanned %d of %d covered resources — splice inactive",
				label, res.TimingScans, res.TimingResources)
		}
		// The diff-scoped verdict stages must keep the per-change check
		// count footprint-sized: a handful of verdicts per change, far
		// below the serial full walk.
		if res.SafetyChecks+res.SecurityChecks > 16*decided {
			t.Errorf("%s: incremental mode computed %d verdict checks for %d changes — scoping inactive",
				label, res.SafetyChecks+res.SecurityChecks, decided)
		}
	}
}

func TestThroughputTelemetryAcrossExperiments(t *testing.T) {
	// E12 rows: the curated fleet stream under every integration strategy.
	for _, mode := range ThroughputModes() {
		mode := mode
		t.Run("e12/"+string(mode), func(t *testing.T) {
			cfg := DefaultMCCThroughputConfig()
			cfg.Mode = mode
			cfg.Updates = 24
			res, err := RunMCCThroughput(cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertThroughputTelemetry(t, "e12/"+string(mode), res)
		})
	}

	// E13 rows: the generated scale tier at the smoke size, same contract.
	cfg := DefaultMCCScaleConfig()
	cfg.Procs = []int{32}
	cfg.Updates = 16
	rows, err := RunMCCScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		row := row
		label := fmt.Sprintf("e13/%dp/%s", row.Procs, row.Result.Config.Mode)
		t.Run(label, func(t *testing.T) {
			assertThroughputTelemetry(t, label, row.Result)
			if row.Resources <= 0 {
				t.Errorf("%s: zero platform resources recorded", label)
			}
			if row.ScansPerChange() <= 0 {
				t.Errorf("%s: zero scans/change — the headline column would ship empty", label)
			}
		})
	}
}
