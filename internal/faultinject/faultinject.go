// Package faultinject provides a deterministic, seeded fault injector
// for the MCC admission pipeline. Production code threads an *Injector
// through its hot paths and calls Fire at named hook points; a nil
// injector is a no-op, so the hooks cost one nil check when fault
// injection is off.
//
// Hook points are keyed by a stage string (e.g. "stage.timing",
// "cpa.analyze", "timing.worker" before each timing-stage analysis,
// "stream.prefetch" before each stream window analysis, "journal.undo")
// and an optional resource string (the processor/network the hook is
// working on). The multi-tenant fleet server adds its own per-tenant
// hook points — "fleet.queue" (admission) and "fleet.worker" (the
// decision path), with the vehicle ID as the resource — because vehicle
// MCCs share one analyzer and must never carry injectors themselves
// (see the fleet package comment). Rules select hook points by exact
// stage name or a trailing-* prefix wildcard and choose a fault mode:
//
//   - ModeError: Fire returns an error wrapping ErrInjected.
//   - ModePanic: Fire panics (the code under test must recover).
//   - ModeStall: Fire sleeps StallUS microseconds (bounded by done).
//   - ModeSlow: like ModeStall, but semantically "slow, not stuck" —
//     callers treat it as latency, not a fault.
//   - ModeCorrupt: Fire reports ok=true and the caller applies a
//     deterministic corruption to its own state (e.g. truncating a
//     cached analysis result).
//
// Firing is deterministic per (seed, rule, call sequence): Skip skips
// the first matches, Every fires one match in every Every, Count stops
// a rule after it fired Count times, and Rate draws from the seeded
// PRNG. The injector is safe for concurrent use.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Mode selects what a firing rule does to the hook point.
type Mode string

// Fault modes.
const (
	ModeError   Mode = "error"
	ModePanic   Mode = "panic"
	ModeStall   Mode = "stall"
	ModeSlow    Mode = "slow"
	ModeCorrupt Mode = "corrupt"
)

// ErrInjected is the sentinel all injected errors wrap; retry logic
// classifies transient faults with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("injected fault")

// Rule selects hook points and the fault to apply there.
type Rule struct {
	// Stage matches the hook point's stage key, exactly or — with a
	// trailing * — as a prefix ("stage.*" matches every pipeline stage).
	Stage string
	// Resource, when non-empty, additionally requires an exact match on
	// the hook point's resource key.
	Resource string
	// Mode is the fault to apply.
	Mode Mode
	// Skip skips the first Skip matching calls before the rule may fire.
	Skip int
	// Every, when > 0, fires on every Every-th eligible call
	// (deterministic). When 0, Rate decides; when Rate is also 0 the
	// rule fires on every eligible call.
	Every int
	// Rate is the per-eligible-call firing probability drawn from the
	// injector's seeded PRNG (used only when Every == 0).
	Rate float64
	// Count, when > 0, caps the total number of fires of this rule.
	Count int
	// StallUS is the stall/slow duration in microseconds (ModeStall and
	// ModeSlow; default 100).
	StallUS int64
}

// Fault describes a fire decision to the caller.
type Fault struct {
	// Mode is the fired rule's mode.
	Mode Mode
	// Stage and Resource echo the hook point keys.
	Stage    string
	Resource string
}

type ruleState struct {
	rule    Rule
	matched int // matching calls seen (for Skip)
	elig    int // eligible calls seen (for Every)
	fired   int // fires so far (for Count)
}

// Injector applies the configured rules at hook points. The zero value
// and the nil pointer are valid no-op injectors.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
	fired map[string]int
}

// New returns an injector with the given seed and rules. Rules match
// in order; the first rule that fires wins.
func New(seed int64, rules ...Rule) *Injector {
	inj := &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		fired: make(map[string]int),
	}
	for _, r := range rules {
		if r.StallUS <= 0 {
			r.StallUS = 100
		}
		inj.rules = append(inj.rules, &ruleState{rule: r})
	}
	return inj
}

// matches reports whether the rule selects the hook point.
func (r Rule) matches(stage, resource string) bool {
	if r.Resource != "" && r.Resource != resource {
		return false
	}
	if p, ok := strings.CutSuffix(r.Stage, "*"); ok {
		return strings.HasPrefix(stage, p)
	}
	return r.Stage == stage
}

// Fire evaluates the rules at a hook point. On ModePanic it panics; on
// ModeError it returns a non-nil error wrapping ErrInjected; on
// ModeStall/ModeSlow it sleeps (bounded by done, which may be nil) and
// returns the fault with ok=true; on ModeCorrupt it returns the fault
// with ok=true and the caller applies the corruption. When no rule
// fires it returns ok=false. A nil injector never fires.
func (inj *Injector) Fire(done <-chan struct{}, stage, resource string) (Fault, bool, error) {
	if inj == nil {
		return Fault{}, false, nil
	}
	inj.mu.Lock()
	var hit *ruleState
	for _, st := range inj.rules {
		r := st.rule
		if !r.matches(stage, resource) {
			continue
		}
		st.matched++
		if st.matched <= r.Skip {
			continue
		}
		if r.Count > 0 && st.fired >= r.Count {
			continue
		}
		st.elig++
		switch {
		case r.Every > 0:
			if st.elig%r.Every != 0 {
				continue
			}
		case r.Rate > 0:
			if inj.rng.Float64() >= r.Rate {
				continue
			}
		}
		st.fired++
		inj.fired[stage+"|"+string(r.Mode)]++
		hit = st
		break
	}
	inj.mu.Unlock()
	if hit == nil {
		return Fault{}, false, nil
	}
	f := Fault{Mode: hit.rule.Mode, Stage: stage, Resource: resource}
	switch f.Mode {
	case ModePanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s/%s", stage, resource))
	case ModeError:
		return f, true, fmt.Errorf("%w at %s/%s", ErrInjected, stage, resource)
	case ModeStall, ModeSlow:
		d := time.Duration(hit.rule.StallUS) * time.Microsecond
		if done == nil {
			time.Sleep(d)
		} else {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-done:
				t.Stop()
			}
		}
		return f, true, nil
	default: // ModeCorrupt
		return f, true, nil
	}
}

// Fired returns a copy of the per-hook fire counters, keyed
// "stage|mode".
func (inj *Injector) Fired() map[string]int {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[string]int, len(inj.fired))
	for k, v := range inj.fired {
		out[k] = v
	}
	return out
}

// TotalFired returns the total number of fires across all hooks.
func (inj *Injector) TotalFired() int {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	n := 0
	for _, v := range inj.fired {
		n += v
	}
	return n
}
