package scenario

import (
	"fmt"
	"time"
)

// E13 is the fleet-scale stress tier: the same change-stream throughput
// measurement as E12, swept across generated platforms of 32, 128, and
// 512 processors (see genfleet.go). Its purpose is to make
// diff-proportionality visible as flat-vs-platform-size curves: with the
// incremental engine, TimingScans per decided change must track the
// change footprint — a couple of resources — no matter how many
// processors the platform has, while the serial baseline's scans (and
// wall clock) grow with the platform. The same contract holds for the
// diff-scoped safety/security verdict stages via SecurityChecks/
// SafetyChecks (ChecksPerChange): flat for the incremental modes,
// fleet-sized for serial.

// MCCScaleConfig parameterizes the E13 sweep.
type MCCScaleConfig struct {
	// Procs lists the platform sizes to sweep.
	Procs []int
	// Updates is the number of streamed change requests per run.
	Updates int
	// Modes lists the integration strategies to compare at every size.
	Modes []MCCThroughputMode
	// Spec is the generator template; Processors is overridden per sweep
	// point. The zero value selects DefaultFleetSpec at each size.
	Spec FleetSpec
}

// DefaultMCCScaleConfig returns the baseline E13 parameters.
func DefaultMCCScaleConfig() MCCScaleConfig {
	return MCCScaleConfig{
		Procs:   []int{32, 128, 512, 2048},
		Updates: 32,
		Modes:   []MCCThroughputMode{ThroughputSerial, ThroughputFull, ThroughputStream},
	}
}

// MCCScaleRow is one (platform size, mode) point of the sweep.
type MCCScaleRow struct {
	// Procs is the generated platform's processor count.
	Procs int
	// Resources is the number of schedulable resources (processors plus
	// networks) the platform exposes to the timing acceptance test.
	Resources int
	// Result carries the throughput/telemetry counters of the run.
	Result MCCThroughputResult
}

// ScansPerChange is the headline diff-proportionality metric: timing-job
// scans per decided change. Incremental modes hold it at the change
// footprint; the serial baseline scans every resource per evaluation, so
// it grows with Resources.
func (r MCCScaleRow) ScansPerChange() float64 {
	n := r.Result.Accepted + r.Result.Rejected
	if n == 0 {
		return 0
	}
	return float64(r.Result.TimingScans) / float64(n)
}

// ChecksPerChange is the verdict-stage analogue of ScansPerChange:
// security per-connection plus safety per-entity verdicts computed per
// decided change. The diff-scoped checks hold it at the change footprint
// across platform sizes; the serial baseline re-verifies the whole
// implementation model per evaluation, so it grows with the fleet.
func (r MCCScaleRow) ChecksPerChange() float64 {
	n := r.Result.Accepted + r.Result.Rejected
	if n == 0 {
		return 0
	}
	return float64(r.Result.SecurityChecks+r.Result.SafetyChecks) / float64(n)
}

// Rows renders the E13 table.
func ScaleRows(rows []MCCScaleRow) []string {
	out := []string{"procs  resources  mode              changes  acc  rej  scans  scans/change  checks/change  wall        changes/s"}
	for _, r := range rows {
		res := r.Result
		out = append(out, fmt.Sprintf("%5d  %9d  %-17s %7d  %3d  %3d  %5d  %12.2f  %13.2f  %9v  %9.0f",
			r.Procs, r.Resources, res.Config.Mode, res.Config.Updates,
			res.Accepted, res.Rejected, res.TimingScans, r.ScansPerChange(), r.ChecksPerChange(),
			res.StreamWall.Round(time.Microsecond),
			float64(res.Config.Updates)/res.StreamWall.Seconds()))
	}
	return out
}

// RunMCCScale executes the E13 sweep: for every platform size, generate
// the fleet once (platform, baseline, change stream — identical across
// modes), then measure every integration strategy on it.
func RunMCCScale(cfg MCCScaleConfig) ([]MCCScaleRow, error) {
	if len(cfg.Procs) == 0 {
		cfg.Procs = DefaultMCCScaleConfig().Procs
	}
	if cfg.Updates <= 0 {
		cfg.Updates = DefaultMCCScaleConfig().Updates
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = DefaultMCCScaleConfig().Modes
	}
	var rows []MCCScaleRow
	for _, procs := range cfg.Procs {
		spec := cfg.Spec
		if spec == (FleetSpec{}) {
			spec = DefaultFleetSpec(procs)
		} else {
			spec.Processors = procs
		}
		fleet := GenFleet(spec)
		changes := fleet.Changes(cfg.Updates)
		for _, mode := range cfg.Modes {
			tcfg := MCCThroughputConfig{Updates: cfg.Updates, Mode: mode}
			res, err := runChangeStream(tcfg, fleet.Platform, fleet.Baseline, changes)
			if err != nil {
				return nil, fmt.Errorf("e13 %dp %s: %w", procs, mode, err)
			}
			rows = append(rows, MCCScaleRow{
				Procs:     procs,
				Resources: len(fleet.Platform.Processors) + len(fleet.Platform.Networks),
				Result:    res,
			})
		}
	}
	return rows, nil
}
