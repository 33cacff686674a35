package scenario

import (
	"testing"
)

// TestRunMCCChaosParityAcrossFaultMatrix is the E14 acceptance tier: the
// full default fault matrix at the smoke platform size must uphold the
// robustness contract — every run completes (no crash, no hang), every
// decision matches the clean serial oracle except explicit deadline
// expiries, and the injected faults actually land.
func TestRunMCCChaosParityAcrossFaultMatrix(t *testing.T) {
	cfg := DefaultMCCChaosConfig()
	cfg.Updates = 16
	rows, err := RunMCCChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no chaos rows")
	}

	byKey := make(map[string]MCCChaosRow, len(rows))
	for _, r := range rows {
		byKey[r.Spec+"/"+string(r.Mode)] = r

		if !r.ParityOK {
			t.Errorf("%s/%s: %d decision(s) diverged from the clean oracle: %s",
				r.Spec, r.Mode, r.Mismatches, r.FirstMismatch)
		}
		if got := r.Accepted + r.Rejected; got != r.Changes {
			t.Errorf("%s/%s: %d of %d proposals unresolved", r.Spec, r.Mode, r.Changes-got, r.Changes)
		}
		if r.Spec == "none" {
			if r.FaultsInjected != 0 || r.Degraded != 0 || r.PanicsRecovered != 0 || r.RetriedAnalyses != 0 {
				t.Errorf("control row %s/%s reports fault telemetry: %+v", r.Spec, r.Mode, r)
			}
			if r.AvailabilityPct != 100 {
				t.Errorf("control row availability = %.1f%%, want 100%%", r.AvailabilityPct)
			}
		} else if r.FaultsInjected == 0 {
			t.Errorf("%s/%s: fault spec fired nothing — the matrix is not exercising the ladder", r.Spec, r.Mode)
		}
	}

	// The verdict profile must be identical across every row: fault
	// injection may cost availability and latency, never decisions.
	ref := byKey["none/"+string(ThroughputFull)]
	for _, r := range rows {
		if r.DeadlineExpired > 0 {
			continue // deadline rejections legitimately change the profile
		}
		if r.Accepted != ref.Accepted || r.Rejected != ref.Rejected {
			t.Errorf("%s/%s decided %d/%d, clean control decided %d/%d",
				r.Spec, r.Mode, r.Accepted, r.Rejected, ref.Accepted, ref.Rejected)
		}
	}

	// The stream rows carry the scheduler's blast radius: a fault that
	// fails a window's verification replays that window, discarding its
	// 16 optimistic passes. Full-incremental rows run no window.
	wantReplays := map[string]int{
		"analyzer-error": 1, "analyzer-burst": 1, "worker-panic": 1,
		"journal-undo": 1, "mixed": 1,
	}
	for _, r := range rows {
		replays := 0
		if r.Mode == ThroughputStream {
			replays = wantReplays[r.Spec]
		}
		if r.Replays != replays || r.DiscardedPasses != 16*replays {
			t.Errorf("%s/%s: %d replays and %d discarded passes, want %d and %d",
				r.Spec, r.Mode, r.Replays, r.DiscardedPasses, replays, 16*replays)
		}
	}

	// Each hardening mechanism must actually trigger somewhere.
	if r := byKey["analyzer-error/"+string(ThroughputFull)]; r.RetriedAnalyses == 0 {
		t.Error("analyzer-error spec never retried an analysis")
	}
	if r := byKey["worker-panic/"+string(ThroughputFull)]; r.PanicsRecovered == 0 {
		t.Error("worker-panic spec never recovered a panic")
	}
	// Under a total analyzer outage every proposal that reaches the
	// timing stage rides the pinned path; only pre-timing rejections
	// (validation, security) can stay undegraded.
	if r := byKey["analyzer-burst/"+string(ThroughputFull)]; r.Degraded < r.Changes/2 {
		t.Errorf("analyzer-burst degraded only %d of %d proposals, want a majority (total outage)",
			r.Degraded, r.Changes)
	}
	if r := byKey["analyzer-slow/"+string(ThroughputFull)]; r.Degraded != 0 {
		t.Errorf("analyzer-slow degraded %d proposals, want 0 (latency-only fault)", r.Degraded)
	}
	degradedSomewhere := false
	for _, r := range rows {
		if r.Degraded > 0 {
			degradedSomewhere = true
		}
	}
	if !degradedSomewhere {
		t.Error("no row exercised the degradation ladder")
	}
}

// TestRunMCCChaosDeadlineBoundsStalls pins the deadline column: stalls
// far past the proposal deadline must resolve as explicit, bounded
// deadline rejections — never a hang — while unaffected proposals stay
// on the clean verdict profile.
func TestRunMCCChaosDeadlineBoundsStalls(t *testing.T) {
	cfg := DefaultMCCChaosConfig()
	cfg.Updates = 16
	cfg.Modes = []MCCThroughputMode{ThroughputFull}
	var deadline ChaosFaultSpec
	for _, fs := range cfg.Specs {
		if fs.Name == "stage-stall-deadline" {
			deadline = fs
		}
	}
	if deadline.Name == "" {
		t.Fatal("stage-stall-deadline spec missing from the default matrix")
	}
	cfg.Specs = []ChaosFaultSpec{deadline}

	rows, err := RunMCCChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if !r.ParityOK {
		t.Errorf("non-deadline decisions diverged: %s", r.FirstMismatch)
	}
	if r.DeadlineExpired == 0 {
		t.Error("stall spec produced no deadline rejection")
	}
	if r.DeadlineExpired > r.Degraded {
		t.Errorf("deadline expiries (%d) exceed degraded count (%d)", r.DeadlineExpired, r.Degraded)
	}
	// Every proposal must resolve within the deadline plus bounded
	// overhead (stage completion, pinned re-run); 10x is generous slack
	// for race-instrumented CI, while a genuine 1.5s stall would blow it.
	limitUS := int64(deadline.DeadlineMS) * 1000 * 10
	if r.MaxLatencyUS >= limitUS {
		t.Errorf("slowest proposal took %dus, want < %dus (deadline %dms)",
			r.MaxLatencyUS, limitUS, deadline.DeadlineMS)
	}
	if r.Accepted+r.Rejected != r.Changes {
		t.Errorf("%d of %d proposals unresolved", r.Changes-r.Accepted-r.Rejected, r.Changes)
	}
}
