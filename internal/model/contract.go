// Package model defines the system models used by the CCC model domain:
// the contracting language (per-component requirements and guarantees over
// several viewpoints), the platform-independent functional architecture,
// the platform model, and the mapped technical/implementation architecture
// that the Multi-Change Controller (MCC) refines during integration.
//
// The shapes follow Section II.A of the paper: "The requirements for these
// viewpoints – e.g. a safety-level requirement or a real-time constraint –
// are collected for each component in a so-called contracting language,
// which serves as an input to the MCC."
package model

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// SafetyLevel is an automotive safety integrity level (ISO 26262 ASIL).
type SafetyLevel int

// Safety integrity levels in increasing criticality.
const (
	QM SafetyLevel = iota // quality managed, no safety requirement
	ASILA
	ASILB
	ASILC
	ASILD
)

var safetyNames = [...]string{"QM", "ASIL-A", "ASIL-B", "ASIL-C", "ASIL-D"}

func (l SafetyLevel) String() string {
	if l < QM || int(l) >= len(safetyNames) {
		return fmt.Sprintf("SafetyLevel(%d)", int(l))
	}
	return safetyNames[l]
}

// MarshalJSON encodes the level as its symbolic name.
func (l SafetyLevel) MarshalJSON() ([]byte, error) {
	return json.Marshal(l.String())
}

// UnmarshalJSON accepts either the symbolic name or an integer.
func (l *SafetyLevel) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := ParseSafetyLevel(s)
		if err != nil {
			return err
		}
		*l = v
		return nil
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("model: invalid safety level %s", string(b))
	}
	if n < int(QM) || n > int(ASILD) {
		return fmt.Errorf("model: safety level %d out of range", n)
	}
	*l = SafetyLevel(n)
	return nil
}

// ParseSafetyLevel parses "QM", "ASIL-A" ... "ASIL-D" (case-insensitive,
// the dash is optional).
func ParseSafetyLevel(s string) (SafetyLevel, error) {
	norm := strings.ToUpper(strings.ReplaceAll(strings.TrimSpace(s), "-", ""))
	switch norm {
	case "QM":
		return QM, nil
	case "ASILA", "A":
		return ASILA, nil
	case "ASILB", "B":
		return ASILB, nil
	case "ASILC", "C":
		return ASILC, nil
	case "ASILD", "D":
		return ASILD, nil
	}
	return QM, fmt.Errorf("model: unknown safety level %q", s)
}

// SecurityDomain labels a confidentiality/integrity compartment. Components
// may only communicate within a domain unless an explicit cross-domain
// permission exists (checked by the security viewpoint analysis).
type SecurityDomain string

// RealTimeContract captures the timing requirements of a component's main
// task in the terms used by compositional performance analysis: a periodic
// activation with jitter, a worst-case execution time demand, and a deadline.
type RealTimeContract struct {
	// PeriodUS is the activation period in microseconds. 0 means the
	// component is not time-triggered (event-driven only).
	PeriodUS int64 `json:"period_us"`
	// JitterUS is the maximum activation jitter in microseconds.
	JitterUS int64 `json:"jitter_us,omitempty"`
	// WCETUS is the worst-case execution time demand per activation in
	// microseconds, on the reference platform speed (speed factor 1.0).
	WCETUS int64 `json:"wcet_us"`
	// DeadlineUS is the relative deadline in microseconds; 0 means
	// deadline = period (implicit deadline).
	DeadlineUS int64 `json:"deadline_us,omitempty"`
}

// MaxTimeUS bounds every time field of a real-time contract (about
// 9.2 s). Placement charges a function WCET·1e6/period ppm of a processor
// and divides the charge by the processor's speed factor, both in int64.
// With WCET at this bound, a 1 µs period and a MinSpeedFactor processor
// the scaled charge is MaxTimeUS·1e12, which still fits; above it a
// contract can wrap to a negative utilization and be admitted next to any
// load.
const MaxTimeUS = math.MaxInt64 / (1_000_000 * 1_000_000)

// HasTiming reports whether the contract carries any real-time requirement.
func (c RealTimeContract) HasTiming() bool { return c.PeriodUS > 0 }

// EffectiveDeadlineUS returns the relative deadline, defaulting to the period.
func (c RealTimeContract) EffectiveDeadlineUS() int64 {
	if c.DeadlineUS > 0 {
		return c.DeadlineUS
	}
	return c.PeriodUS
}

// Validate checks internal consistency of the timing contract.
func (c RealTimeContract) Validate() error {
	if c.PeriodUS < 0 || c.JitterUS < 0 || c.WCETUS < 0 || c.DeadlineUS < 0 {
		return fmt.Errorf("model: negative field in real-time contract %+v", c)
	}
	if c.PeriodUS > MaxTimeUS || c.JitterUS > MaxTimeUS || c.WCETUS > MaxTimeUS || c.DeadlineUS > MaxTimeUS {
		return fmt.Errorf("model: real-time contract %+v has a time field above the maximum %dus", c, MaxTimeUS)
	}
	if c.PeriodUS > 0 {
		if c.WCETUS == 0 {
			return fmt.Errorf("model: periodic contract without WCET")
		}
		if c.WCETUS > c.EffectiveDeadlineUS() {
			return fmt.Errorf("model: WCET %dus exceeds deadline %dus", c.WCETUS, c.EffectiveDeadlineUS())
		}
	}
	return nil
}

// ResourceContract captures platform resource budgets a component needs.
type ResourceContract struct {
	// RAMKiB is the memory budget in KiB.
	RAMKiB int64 `json:"ram_kib"`
	// CPUShare is the guaranteed utilization share in [0,1] on the mapped
	// processor; derived from timing if zero.
	CPUShare float64 `json:"cpu_share,omitempty"`
	// NetBytesPerSec is the bandwidth demand on the mapped network.
	NetBytesPerSec int64 `json:"net_bytes_per_sec,omitempty"`
}

// Validate checks bounds on the resource contract.
func (c ResourceContract) Validate() error {
	if c.RAMKiB < 0 || c.NetBytesPerSec < 0 {
		return fmt.Errorf("model: negative resource budget %+v", c)
	}
	if c.CPUShare < 0 || c.CPUShare > 1 {
		return fmt.Errorf("model: CPU share %v out of [0,1]", c.CPUShare)
	}
	return nil
}

// Contract is the per-component requirement record of the contracting
// language. It aggregates the viewpoint-specific requirements the MCC
// checks during integration.
type Contract struct {
	// Safety is the integrity level the component must be integrated at.
	Safety SafetyLevel `json:"safety"`
	// RealTime carries the timing requirement of the component's task.
	RealTime RealTimeContract `json:"real_time"`
	// Resources carries memory/CPU/network budgets.
	Resources ResourceContract `json:"resources"`
	// Domain is the security domain the component belongs to.
	Domain SecurityDomain `json:"domain,omitempty"`
	// AllowedPeers lists services (by name) this component may talk to
	// across domain boundaries; within its own domain no entry is needed.
	AllowedPeers []string `json:"allowed_peers,omitempty"`
	// FailOperational marks components whose service must survive a single
	// fault (drives the redundancy check in the safety viewpoint).
	FailOperational bool `json:"fail_operational,omitempty"`
}

// Validate checks the contract's internal consistency.
func (c Contract) Validate() error {
	if c.Safety < QM || c.Safety > ASILD {
		return fmt.Errorf("model: safety level %d out of range", c.Safety)
	}
	if err := c.RealTime.Validate(); err != nil {
		return err
	}
	if err := c.Resources.Validate(); err != nil {
		return err
	}
	return nil
}

// MergeStricter returns a contract combining c with o, taking the stricter
// requirement field-by-field. Used when an update evolves a contract: the
// MCC accepts the evolved contract only if the system still passes all
// acceptance tests under the merged (stricter) view.
func (c Contract) MergeStricter(o Contract) Contract {
	out := c
	if o.Safety > out.Safety {
		out.Safety = o.Safety
	}
	if o.RealTime.HasTiming() {
		if !out.RealTime.HasTiming() || o.RealTime.EffectiveDeadlineUS() < out.RealTime.EffectiveDeadlineUS() {
			out.RealTime = o.RealTime
		}
	}
	if o.Resources.RAMKiB > out.Resources.RAMKiB {
		out.Resources.RAMKiB = o.Resources.RAMKiB
	}
	if o.Resources.CPUShare > out.Resources.CPUShare {
		out.Resources.CPUShare = o.Resources.CPUShare
	}
	if o.Resources.NetBytesPerSec > out.Resources.NetBytesPerSec {
		out.Resources.NetBytesPerSec = o.Resources.NetBytesPerSec
	}
	if o.FailOperational {
		out.FailOperational = true
	}
	return out
}
