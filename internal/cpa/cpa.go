// Package cpa implements Compositional Performance Analysis: worst-case
// response time (WCRT) analysis using the busy-window technique for
// static-priority preemptive (SPP) processors and static-priority
// non-preemptive (SPNP) resources such as CAN buses.
//
// The paper (Section II.A) uses exactly this class of analysis as the MCC's
// real-time acceptance test: "a worst-case response time analysis can check
// real-time constraints based on a timing model of the system."
//
// All times are in microseconds, held as int64; the analysis is exact over
// integers (no floating point in the fixed-point iterations).
package cpa

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// EventModel is the standard periodic-with-jitter activation model.
// EtaPlus bounds the number of activations in any half-open window.
type EventModel struct {
	// PeriodUS is the activation period (> 0).
	PeriodUS int64
	// JitterUS is the maximum release jitter (>= 0).
	JitterUS int64
}

// EtaPlus returns an upper bound on the number of events arriving in any
// time window of length delta (>0): ceil((delta + J) / P).
func (e EventModel) EtaPlus(deltaUS int64) int64 {
	if deltaUS <= 0 {
		return 0
	}
	return ceilDiv(deltaUS+e.JitterUS, e.PeriodUS)
}

// DeltaMin returns the minimum distance between the first and the n-th
// event: max(0, (n-1)*P - J). It is the pseudo-inverse of EtaPlus.
func (e EventModel) DeltaMin(n int64) int64 {
	if n <= 1 {
		return 0
	}
	d := (n-1)*e.PeriodUS - e.JitterUS
	if d < 0 {
		return 0
	}
	return d
}

// Validate checks the event model parameters.
func (e EventModel) Validate() error {
	if e.PeriodUS <= 0 {
		return fmt.Errorf("cpa: period %d must be positive", e.PeriodUS)
	}
	if e.JitterUS < 0 {
		return fmt.Errorf("cpa: jitter %d must be non-negative", e.JitterUS)
	}
	return nil
}

// Task is a schedulable entity under analysis. For a CAN message, WCETUS is
// the worst-case (bit-stuffed) frame transmission time and preemption does
// not occur (use AnalyzeSPNP).
type Task struct {
	// Name identifies the task in results.
	Name string
	// Priority: numerically lower value = higher priority. Unique per
	// resource.
	Priority int
	// WCETUS is the worst-case execution (or transmission) time.
	WCETUS int64
	// Event is the activation model.
	Event EventModel
	// DeadlineUS is the relative deadline the result is checked against.
	DeadlineUS int64
}

// Validate checks a task's parameters.
func (t Task) Validate() error {
	if t.WCETUS <= 0 {
		return fmt.Errorf("cpa: task %q has non-positive WCET", t.Name)
	}
	if err := t.Event.Validate(); err != nil {
		return fmt.Errorf("cpa: task %q: %w", t.Name, err)
	}
	if t.DeadlineUS <= 0 {
		return fmt.Errorf("cpa: task %q has non-positive deadline", t.Name)
	}
	return nil
}

// Result is the analysis outcome for one task.
type Result struct {
	Name string
	// WCRTUS is the worst-case response time; valid only if Converged.
	WCRTUS int64
	// DeadlineUS echoes the task deadline.
	DeadlineUS int64
	// Schedulable is WCRTUS <= DeadlineUS (and Converged).
	Schedulable bool
	// Converged reports whether the busy-window iteration terminated;
	// it is false when the resource is overloaded.
	Converged bool
	// BusyWindows is the number of activations examined (q_max).
	BusyWindows int
	// UtilizationPPM is the per-task utilization in parts-per-million.
	UtilizationPPM int64
}

// ErrOverload is returned when total utilization is >= 1 and the busy
// window cannot terminate.
var ErrOverload = errors.New("cpa: resource utilization >= 1, busy window does not terminate")

// iterationCap bounds fixed-point iterations as a safety valve.
const iterationCap = 1_000_000

// Utilization returns the total utilization of the task set in
// parts-per-million (1e6 = 100%).
func Utilization(tasks []Task) int64 {
	var u int64
	for _, t := range tasks {
		u += taskUtilPPM(t)
	}
	return u
}

func taskUtilPPM(t Task) int64 {
	if t.Event.PeriodUS <= 0 {
		return 0
	}
	return t.WCETUS * 1_000_000 / t.Event.PeriodUS
}

// AnalyzeSPP computes worst-case response times for a task set on a
// static-priority preemptive resource. Tasks must have unique priorities.
//
// Busy-window formulation (Lehoczky/Tindell with jitter):
//
//	w_i(q) = q*C_i + Σ_{j ∈ hp(i)} η⁺_j(w_i(q)) * C_j
//	R_i(q) = w_i(q) + J_i - (q-1)*T_i
//	stop when w_i(q) <= q*T_i - J_i
func AnalyzeSPP(tasks []Task) ([]Result, error) {
	return analyze(tasks, false)
}

// AnalyzeSPNP computes worst-case response times on a static-priority
// non-preemptive resource (frame-level CAN arbitration). Lower-priority
// blocking of one maximal frame is accounted for, and interference is
// counted up to the start of the q-th transmission:
//
//	w_i(q) = B_i + (q-1)*C_i + Σ_{j ∈ hp(i)} η⁺_j(w_i(q) + 1) * C_j
//	R_i(q) = w_i(q) + C_i + J_i - (q-1)*T_i
func AnalyzeSPNP(tasks []Task) ([]Result, error) {
	return analyze(tasks, true)
}

// scratch holds the per-call working buffers of analyze. Pooling them keeps
// the hot path allocation-free apart from the returned result slice.
type scratch struct {
	sorted   []Task
	cumUtil  []int64
	blockMax []int64
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func analyze(tasks []Task, nonPreemptive bool) ([]Result, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.sorted = append(s.sorted[:0], tasks...)
	sorted := s.sorted
	slices.SortFunc(sorted, func(a, b Task) int { return cmp.Compare(a.Priority, b.Priority) })
	for i := range sorted {
		if err := sorted[i].Validate(); err != nil {
			return nil, err
		}
		if i > 0 && sorted[i].Priority == sorted[i-1].Priority {
			return nil, fmt.Errorf("cpa: tasks %q and %q share priority %d",
				sorted[i-1].Name, sorted[i].Name, sorted[i].Priority)
		}
	}

	// Prefix sums of utilization: cumUtil[i] covers the task and everything
	// at higher priority, so the termination check is O(1) per task.
	s.cumUtil = s.cumUtil[:0]
	var cum int64
	for _, t := range sorted {
		cum += taskUtilPPM(t)
		s.cumUtil = append(s.cumUtil, cum)
	}

	// Suffix maximum of WCETs: blockMax[i] is the largest lower-priority
	// WCET, i.e. the SPNP blocking term, precomputed in one reverse pass.
	if nonPreemptive {
		if cap(s.blockMax) < len(sorted) {
			s.blockMax = make([]int64, len(sorted))
		}
		s.blockMax = s.blockMax[:len(sorted)]
		var mx int64
		for i := len(sorted) - 1; i >= 0; i-- {
			s.blockMax[i] = mx
			if sorted[i].WCETUS > mx {
				mx = sorted[i].WCETUS
			}
		}
	}

	results := make([]Result, 0, len(sorted))
	for i, t := range sorted {
		res := Result{Name: t.Name, DeadlineUS: t.DeadlineUS, UtilizationPPM: taskUtilPPM(t)}
		// Utilization of the task and all higher-priority tasks must be
		// below 1 for the busy window to terminate.
		if s.cumUtil[i] >= 1_000_000 {
			res.Converged = false
			results = append(results, res)
			continue
		}

		var blocking int64
		if nonPreemptive {
			blocking = s.blockMax[i]
		}

		wcrt, qmax, ok := busyWindow(t, sorted[:i], blocking, nonPreemptive)
		res.WCRTUS = wcrt
		res.BusyWindows = qmax
		res.Converged = ok
		res.Schedulable = ok && wcrt <= t.DeadlineUS
		results = append(results, res)
	}
	return results, nil
}

// busyWindow runs the multi-activation busy-window iteration for task t
// against higher-priority set hp. Returns (WCRT, activations examined, ok).
func busyWindow(t Task, hp []Task, blocking int64, nonPreemptive bool) (int64, int, bool) {
	var wcrt, w int64
	for q := int64(1); ; q++ {
		if q > iterationCap {
			return 0, int(q), false
		}
		var ok bool
		if w, ok = fixedPoint(t, hp, blocking, nonPreemptive, q, w); !ok {
			return 0, int(q), false
		}
		var resp int64
		if nonPreemptive {
			resp = w + t.WCETUS + t.Event.JitterUS - (q-1)*t.Event.PeriodUS
		} else {
			resp = w + t.Event.JitterUS - (q-1)*t.Event.PeriodUS
		}
		if resp > wcrt {
			wcrt = resp
		}
		// The busy period covers activation q+1 only if the q-th window
		// extends past the arrival of the next activation.
		var busyEnd int64
		if nonPreemptive {
			busyEnd = w + t.WCETUS
		} else {
			busyEnd = w
		}
		if busyEnd <= q*t.Event.PeriodUS-t.Event.JitterUS {
			return wcrt, int(q), true
		}
	}
}

// fixedPoint iterates the workload equation for the q-th activation to
// its least fixed point; prev is activation q-1's (unused for q = 1).
// Activation q's right side is activation q-1's plus C, and both are
// monotone in w, so that fixed point is at least prev+C: the iteration
// starts there when that exceeds the constant term, and climbs to the
// same fixed point as from the constant term in fewer steps — far fewer
// in the long busy windows of a near-saturated resource.
func fixedPoint(t Task, hp []Task, blocking int64, nonPreemptive bool, q, prev int64) (int64, bool) {
	var w int64
	if nonPreemptive {
		w = blocking + (q-1)*t.WCETUS
	} else {
		w = q * t.WCETUS
	}
	if q > 1 {
		w = max(w, prev+t.WCETUS)
	}
	if w == 0 {
		w = 1
	}
	for iter := 0; iter < iterationCap; iter++ {
		var next int64
		if nonPreemptive {
			next = blocking + (q-1)*t.WCETUS
			for _, j := range hp {
				// +1: interference can arrive up to and including the
				// instant transmission would start (integer time base).
				next += j.Event.EtaPlus(w+1) * j.WCETUS
			}
		} else {
			next = q * t.WCETUS
			for _, j := range hp {
				next += j.Event.EtaPlus(w) * j.WCETUS
			}
		}
		if next == w {
			return w, true
		}
		w = next
	}
	return 0, false
}

// PathLatency bounds the end-to-end worst-case latency of a cause-effect
// chain as the sum of the stages' WCRTs (the standard compositional bound
// for asynchronous, register-based communication adds one period per
// sampling stage; Sampling=true includes that).
type PathStage struct {
	// WCRTUS is the stage's worst-case response time.
	WCRTUS int64
	// PeriodUS is the stage's activation period.
	PeriodUS int64
	// Sampling marks undersampling stages that add one period of delay.
	Sampling bool
}

// PathLatency returns the worst-case end-to-end latency over the stages.
func PathLatency(stages []PathStage) int64 {
	var sum int64
	for _, s := range stages {
		sum += s.WCRTUS
		if s.Sampling {
			sum += s.PeriodUS
		}
	}
	return sum
}

func ceilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}

// scaleWCETs returns a copy of the task set with every WCET divided by the
// speed factor (rounded up: slower processors can only take longer).
func scaleWCETs(tasks []Task, speed float64) []Task {
	out := make([]Task, len(tasks))
	copy(out, tasks)
	for i := range out {
		scaled := int64(float64(out[i].WCETUS)/speed + 0.999999)
		if scaled < 1 {
			scaled = 1
		}
		out[i].WCETUS = scaled
	}
	return out
}

// allSchedulable runs the SPP analysis and reports whether every task
// meets its deadline.
func allSchedulable(tasks []Task) (bool, error) {
	res, err := AnalyzeSPP(tasks)
	if err != nil {
		return false, err
	}
	for _, r := range res {
		if !r.Schedulable {
			return false, nil
		}
	}
	return true, nil
}

// SpeedFloor computes, by bisection, the minimum processor speed factor
// (relative to the speed the WCETs are given at) at which the task set is
// still schedulable under SPP. This is the sensitivity analysis the model
// domain uses to anticipate thermal throttling: if the DVFS floor is above
// SpeedFloor, no reconfiguration is needed; otherwise load must be shed
// before the governor steps below it (experiment E6's design rule).
// It returns +Inf-like 0 semantics: if the set is unschedulable even at
// speed 1.0, SpeedFloor returns 0 and false.
func SpeedFloor(tasks []Task) (float64, bool, error) {
	ok, err := allSchedulable(tasks)
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return 0, false, nil
	}
	lo, hi := 0.0, 1.0 // lo: unschedulable (speed->0), hi: schedulable
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if mid == 0 {
			break
		}
		ok, err := allSchedulable(scaleWCETs(tasks, mid))
		if err != nil {
			return 0, false, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}
