package model

import (
	"fmt"
	"math"
)

// SchedulingPolicy names the dispatching discipline of a processing resource.
type SchedulingPolicy string

// Supported scheduling policies.
const (
	// SPP is static-priority preemptive scheduling (typical RTOS).
	SPP SchedulingPolicy = "spp"
	// SPNP is static-priority non-preemptive scheduling (e.g. CAN bus
	// arbitration behaves like SPNP at frame granularity).
	SPNP SchedulingPolicy = "spnp"
)

// Processor models a processing resource of the target platform.
type Processor struct {
	// Name uniquely identifies the processor.
	Name string `json:"name"`
	// Policy is the scheduling discipline.
	Policy SchedulingPolicy `json:"policy"`
	// SpeedFactor scales execution times: a task with WCET w runs in
	// w / SpeedFactor on this processor. 1.0 is the reference speed.
	SpeedFactor float64 `json:"speed_factor"`
	// RAMKiB is the memory capacity.
	RAMKiB int64 `json:"ram_kib"`
	// MaxSafety is the highest safety level certifiable on this
	// processor (e.g. a lockstep core supports ASIL-D, a plain core QM/A).
	MaxSafety SafetyLevel `json:"max_safety"`
}

// Network models a communication resource (a CAN bus, an Ethernet link).
type Network struct {
	// Name uniquely identifies the network.
	Name string `json:"name"`
	// BitsPerSec is the raw bandwidth.
	BitsPerSec int64 `json:"bits_per_sec"`
	// Attached lists processors on this network.
	Attached []string `json:"attached"`
	// Kind is a free-form label ("can", "ethernet") used by viewpoint
	// analyses to select the right latency model.
	Kind string `json:"kind"`
}

// Platform is the technical resource model: processors and the networks
// connecting them.
type Platform struct {
	Processors []Processor `json:"processors"`
	Networks   []Network   `json:"networks"`
}

// ProcessorByName returns the named processor, or nil.
func (p *Platform) ProcessorByName(name string) *Processor {
	for i := range p.Processors {
		if p.Processors[i].Name == name {
			return &p.Processors[i]
		}
	}
	return nil
}

// NetworkByName returns the named network, or nil.
func (p *Platform) NetworkByName(name string) *Network {
	for i := range p.Networks {
		if p.Networks[i].Name == name {
			return &p.Networks[i]
		}
	}
	return nil
}

// Connecting returns the first network that attaches both processors,
// or nil if they share none.
func (p *Platform) Connecting(a, b string) *Network {
	for i := range p.Networks {
		n := &p.Networks[i]
		if contains(n.Attached, a) && contains(n.Attached, b) {
			return n
		}
	}
	return nil
}

// MinSpeedFactor is the slowest processor speed a platform may declare.
// Placement divides a utilization in ppm by the speed factor and
// synthesis divides a WCET in µs by it, both converting the quotient back
// to int64. At this floor every value up to 2^63/1e6 ≈ 9.2e12 converts
// without overflow: every WCET whose ppm utilization (WCET·1e6) is itself
// an int64, and every utilization up to 9.2 million whole processors.
// Below it a single ordinary function can overflow (a 100% utilization
// at speed 1e-13 turns into MinInt64 on amd64 and makes the slowest
// processor look the emptiest).
const MinSpeedFactor = 1e-6

// Validate checks structural consistency of the platform model.
func (p *Platform) Validate() error {
	seen := make(map[string]bool, len(p.Processors))
	for i := range p.Processors {
		pr := &p.Processors[i]
		if pr.Name == "" {
			return fmt.Errorf("model: processor %d has empty name", i)
		}
		if seen[pr.Name] {
			return fmt.Errorf("model: duplicate processor %q", pr.Name)
		}
		seen[pr.Name] = true
		if math.IsNaN(pr.SpeedFactor) || math.IsInf(pr.SpeedFactor, 0) {
			return fmt.Errorf("model: processor %q has non-finite speed factor", pr.Name)
		}
		if pr.SpeedFactor <= 0 {
			return fmt.Errorf("model: processor %q has non-positive speed factor", pr.Name)
		}
		if pr.SpeedFactor < MinSpeedFactor {
			return fmt.Errorf("model: processor %q has speed factor %g below the minimum %g", pr.Name, pr.SpeedFactor, MinSpeedFactor)
		}
		if pr.RAMKiB < 0 {
			return fmt.Errorf("model: processor %q has negative RAM", pr.Name)
		}
		switch pr.Policy {
		case SPP, SPNP:
		default:
			return fmt.Errorf("model: processor %q has unknown policy %q", pr.Name, pr.Policy)
		}
	}
	netSeen := make(map[string]bool, len(p.Networks))
	for i := range p.Networks {
		n := &p.Networks[i]
		if n.Name == "" {
			return fmt.Errorf("model: network %d has empty name", i)
		}
		if netSeen[n.Name] {
			return fmt.Errorf("model: duplicate network %q", n.Name)
		}
		netSeen[n.Name] = true
		if n.BitsPerSec <= 0 {
			return fmt.Errorf("model: network %q has non-positive bandwidth", n.Name)
		}
		for _, a := range n.Attached {
			if !seen[a] {
				return fmt.Errorf("model: network %q attaches unknown processor %q", n.Name, a)
			}
		}
	}
	return nil
}
