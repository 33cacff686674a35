package scenario

import (
	"testing"
)

func TestRunMCCScaleModesAgree(t *testing.T) {
	// At the smoke size, every integration strategy must decide the
	// generated stream identically — the E13 sweep compares cost, never
	// verdicts.
	cfg := DefaultMCCScaleConfig()
	cfg.Procs = []int{32}
	cfg.Updates = 24
	rows, err := RunMCCScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Modes) {
		t.Fatalf("got %d rows, want %d", len(rows), len(cfg.Modes))
	}
	for _, r := range rows[1:] {
		if r.Result.Accepted != rows[0].Result.Accepted || r.Result.Rejected != rows[0].Result.Rejected {
			t.Fatalf("mode %s decided %d/%d, mode %s decided %d/%d",
				r.Result.Config.Mode, r.Result.Accepted, r.Result.Rejected,
				rows[0].Result.Config.Mode, rows[0].Result.Accepted, rows[0].Result.Rejected)
		}
	}
}

func TestRunMCCScaleDiffProportionalScans(t *testing.T) {
	// The acceptance criterion of the scale tier: with the incremental
	// engine, TimingScans per decided change is bounded by the change
	// footprint (a touched function lands on a handful of processors, a
	// flow-touching change adds the networks) — NOT by the platform size.
	// Sweeping 64 -> 512 processors multiplies the resources by 8; the
	// per-change scan count must stay flat, and the serial baseline must
	// demonstrate the contrast by scanning the whole platform every time.
	cfg := MCCScaleConfig{
		Procs:   []int{64, 512},
		Updates: 24,
		Modes:   []MCCThroughputMode{ThroughputFull, ThroughputStream, ThroughputSerial},
	}
	rows, err := RunMCCScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]MCCScaleRow)
	for _, r := range rows {
		byKey[string(r.Result.Config.Mode)+"@"+itoa(r.Procs)] = r
		t.Logf("procs=%3d mode=%-16s scans=%4d scans/change=%.2f resources=%d",
			r.Procs, r.Result.Config.Mode, r.Result.TimingScans, r.ScansPerChange(), r.Resources)
	}

	for _, mode := range []MCCThroughputMode{ThroughputFull, ThroughputStream} {
		small := byKey[string(mode)+"@64"]
		big := byKey[string(mode)+"@512"]
		// Footprint bound: a generated change touches at most a few
		// processors (old + new placement of the touched function) plus
		// the platform networks when a flow endpoint moved. The bound is
		// a small constant — far below the 500+ resources of the big
		// platform.
		const maxScansPerChange = 12
		for _, r := range []MCCScaleRow{small, big} {
			if spc := r.ScansPerChange(); spc > maxScansPerChange {
				t.Errorf("%s@%d: %.2f scans/change exceeds footprint bound %d (resources=%d)",
					mode, r.Procs, spc, maxScansPerChange, r.Resources)
			}
		}
		// Flatness: 8x the platform must not translate into scan growth.
		// Identical streams make the comparison exact up to placement
		// spread; allow a 2x envelope.
		if small.ScansPerChange() > 0 && big.ScansPerChange() > 2*small.ScansPerChange()+1 {
			t.Errorf("%s: scans/change grew with platform size: %.2f@64 -> %.2f@512",
				mode, small.ScansPerChange(), big.ScansPerChange())
		}
	}

	// Contrast: the serial baseline re-scans every loaded resource per
	// evaluation, so its per-change scans must track the platform size.
	serialSmall := byKey[string(ThroughputSerial)+"@64"]
	serialBig := byKey[string(ThroughputSerial)+"@512"]
	if serialBig.ScansPerChange() < 4*serialSmall.ScansPerChange() {
		t.Errorf("serial baseline scans did not grow with the platform: %.2f@64 -> %.2f@512",
			serialSmall.ScansPerChange(), serialBig.ScansPerChange())
	}
	if serialBig.ScansPerChange() < float64(serialBig.Resources)/2 {
		t.Errorf("serial baseline scans %.2f/change do not track the %d platform resources",
			serialBig.ScansPerChange(), serialBig.Resources)
	}
}

func TestRunMCCScaleDiffProportionalVerdictChecks(t *testing.T) {
	// The diff-proportional verdict criterion, and the deterministic half
	// of benchgate -current: with the diff-scoped safety/security stages and
	// the footprint-sized timing-job builder, security+safety checks and
	// timing scans per decided change must each stay flat (within 2x) as
	// the platform grows 32 -> 2048 processors, and checks must stay
	// footprint-sized in absolute terms, while the serial baseline
	// re-verifies the whole implementation model per evaluation and
	// therefore grows with the fleet (shown at 32 -> 128, where a serial
	// run stays cheap).
	incremental, err := RunMCCScale(MCCScaleConfig{
		Procs:   []int{32, 2048},
		Updates: 24,
		Modes:   []MCCThroughputMode{ThroughputFull, ThroughputStream},
	})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunMCCScale(MCCScaleConfig{
		Procs:   []int{32, 128},
		Updates: 24,
		Modes:   []MCCThroughputMode{ThroughputSerial},
	})
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]MCCScaleRow)
	for _, r := range append(incremental, serial...) {
		byKey[string(r.Result.Config.Mode)+"@"+itoa(r.Procs)] = r
		t.Logf("procs=%4d mode=%-16s security=%5d safety=%5d checks/change=%.2f scans/change=%.2f",
			r.Procs, r.Result.Config.Mode, r.Result.SecurityChecks, r.Result.SafetyChecks, r.ChecksPerChange(), r.ScansPerChange())
	}

	for _, mode := range []MCCThroughputMode{ThroughputFull, ThroughputStream} {
		small := byKey[string(mode)+"@32"]
		big := byKey[string(mode)+"@2048"]
		// Footprint bound: a generated change touches one function's
		// placement verdict, at most a few budget/redundancy entities,
		// and no (or a couple of) sessions.
		const maxChecksPerChange = 16
		for _, r := range []MCCScaleRow{small, big} {
			if cpc := r.ChecksPerChange(); cpc <= 0 || cpc > maxChecksPerChange {
				t.Errorf("%s@%d: %.2f checks/change outside (0, %d]",
					mode, r.Procs, cpc, maxChecksPerChange)
			}
		}
		// Flatness: 64x the platform must stay within the 2x envelope
		// benchgate enforces, for both per-change work counters.
		for _, c := range []struct {
			name       string
			small, big float64
		}{
			{"checks/change", small.ChecksPerChange(), big.ChecksPerChange()},
			{"scans/change", small.ScansPerChange(), big.ScansPerChange()},
		} {
			if c.small <= 0 || c.big > 2*c.small {
				t.Errorf("%s: %s not flat with platform size: %.2f@32 -> %.2f@2048",
					mode, c.name, c.small, c.big)
			}
		}
	}

	// Contrast: the from-scratch verdict stages re-verify every entity per
	// evaluation, so serial checks/change must track the platform size.
	serialSmall := byKey[string(ThroughputSerial)+"@32"]
	serialBig := byKey[string(ThroughputSerial)+"@128"]
	if serialBig.ChecksPerChange() < 2*serialSmall.ChecksPerChange() {
		t.Errorf("serial baseline checks did not grow with the platform: %.2f@32 -> %.2f@128",
			serialSmall.ChecksPerChange(), serialBig.ChecksPerChange())
	}
	if serialBig.ChecksPerChange() < float64(serialBig.Procs) {
		t.Errorf("serial baseline checks %.2f/change do not track the %d-processor fleet",
			serialBig.ChecksPerChange(), serialBig.Procs)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
