package model

import (
	"fmt"
	"sort"
	"strconv"
)

// Instance is one deployed replica of a function.
type Instance struct {
	// Function is the name of the function this instance realizes.
	Function string `json:"function"`
	// Replica is the replica index (0-based).
	Replica int `json:"replica"`
	// Processor is the processing resource the instance is mapped to.
	Processor string `json:"processor"`
}

// ID returns a unique identifier for the instance ("name#replica"). It is
// called inside sort comparators on the MCC hot path, so it avoids the
// fmt machinery.
func (i Instance) ID() string { return i.Function + "#" + strconv.Itoa(i.Replica) }

// Less is the canonical deterministic instance order: by function name,
// then numeric replica index. Replicas order numerically (2 before 10),
// unlike lexicographic ordering of ID() strings; every sort of instances
// must go through this one comparator so the order stays consistent
// across mapping, synthesis, and analysis.
func (i Instance) Less(j Instance) bool {
	if i.Function != j.Function {
		return i.Function < j.Function
	}
	return i.Replica < j.Replica
}

// TechnicalArchitecture is the result of the first integration step:
// "fitting this functionality to the target platform" (Section II.A) —
// every function replica is assigned to a processor.
type TechnicalArchitecture struct {
	Platform  *Platform               `json:"platform"`
	Func      *FunctionalArchitecture `json:"functional"`
	Instances []Instance              `json:"instances"`
}

// InstancesOn returns the instances mapped to the given processor,
// in deterministic order.
func (t *TechnicalArchitecture) InstancesOn(proc string) []Instance {
	var out []Instance
	for _, in := range t.Instances {
		if in.Processor == proc {
			out = append(out, in)
		}
	}
	sortInstances(out)
	return out
}

// InstancesByProcessor groups the instances by hosting processor in one
// pass, each group in InstancesOn's order: InstancesOn for every
// processor at once, O(instances) instead of O(processors × instances).
func (t *TechnicalArchitecture) InstancesByProcessor() map[string][]Instance {
	by := make(map[string][]Instance)
	for _, in := range t.Instances {
		by[in.Processor] = append(by[in.Processor], in)
	}
	for _, out := range by {
		sortInstances(out)
	}
	return by
}

func sortInstances(out []Instance) {
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
}

// InstancesOf returns all replicas of the named function.
func (t *TechnicalArchitecture) InstancesOf(fn string) []Instance {
	var out []Instance
	for _, in := range t.Instances {
		if in.Function == fn {
			out = append(out, in)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Replica < out[j].Replica })
	return out
}

// Validate checks that every instance references existing entities and that
// replica counts match the functional architecture.
func (t *TechnicalArchitecture) Validate() error {
	if t.Platform == nil || t.Func == nil {
		return fmt.Errorf("model: technical architecture missing platform or functional model")
	}
	if err := t.Platform.Validate(); err != nil {
		return err
	}
	if err := t.Func.Validate(); err != nil {
		return err
	}
	fnNames := make(map[string]bool, len(t.Func.Functions))
	for i := range t.Func.Functions {
		fnNames[t.Func.Functions[i].Name] = true
	}
	procNames := make(map[string]bool, len(t.Platform.Processors))
	for i := range t.Platform.Processors {
		procNames[t.Platform.Processors[i].Name] = true
	}
	count := make(map[string]int)
	for _, in := range t.Instances {
		if !fnNames[in.Function] {
			return fmt.Errorf("model: instance of unknown function %q", in.Function)
		}
		if !procNames[in.Processor] {
			return fmt.Errorf("model: instance %s mapped to unknown processor %q", in.ID(), in.Processor)
		}
		count[in.Function]++
	}
	for i := range t.Func.Functions {
		f := &t.Func.Functions[i]
		if got, want := count[f.Name], f.EffectiveReplicas(); got != want {
			return fmt.Errorf("model: function %q deployed %d times, contract wants %d", f.Name, got, want)
		}
	}
	return nil
}

// Task is a schedulable entity in the implementation model, derived from a
// function instance, ready for timing analysis.
type Task struct {
	// Name is the instance ID it realizes.
	Name string `json:"name"`
	// Processor is the resource the task executes on.
	Processor string `json:"processor"`
	// Priority is the static priority (lower number = higher priority).
	Priority int `json:"priority"`
	// PeriodUS, JitterUS, WCETUS, DeadlineUS mirror the contract, with
	// WCET already scaled by the processor speed factor.
	PeriodUS   int64 `json:"period_us"`
	JitterUS   int64 `json:"jitter_us"`
	WCETUS     int64 `json:"wcet_us"`
	DeadlineUS int64 `json:"deadline_us"`
	// Safety is the integrity level inherited from the contract.
	Safety SafetyLevel `json:"safety"`
}

// Validate checks the task's own shape invariants (cross-task checks like
// priority uniqueness and platform checks live in
// ImplementationModel.Validate). Incremental synthesis applies it to the
// task sets it rebuilds, so the rule set cannot drift from the full
// validation.
func (t Task) Validate() error {
	if t.WCETUS <= 0 && t.PeriodUS > 0 {
		return fmt.Errorf("model: periodic task %q without WCET", t.Name)
	}
	return nil
}

// Message is a periodic network message in the implementation model.
type Message struct {
	// Name identifies the message (derived from the flow).
	Name string `json:"name"`
	// Network carries the message.
	Network string `json:"network"`
	// Priority is the arbitration priority (lower = higher priority;
	// for CAN this is the identifier).
	Priority int `json:"priority"`
	// Bytes is the payload size.
	Bytes int `json:"bytes"`
	// PeriodUS is the transmission period.
	PeriodUS int64 `json:"period_us"`
	// DeadlineUS is the latency bound (0 = period).
	DeadlineUS int64 `json:"deadline_us"`
}

// Connection is a client/server session in the component-based execution
// domain: "micro servers provide services that can be granted to other
// components that require these services" (Section II.B).
type Connection struct {
	// Client and Server are instance IDs.
	Client string `json:"client"`
	Server string `json:"server"`
	// Service names the granted service.
	Service string `json:"service"`
	// CrossDomain marks connections spanning security domains; these
	// require an explicit AllowedPeers entry in the client contract.
	CrossDomain bool `json:"cross_domain,omitempty"`
}

// ImplementationModel is the fully refined configuration the MCC hands to
// the execution domain: tasks with priorities, network messages, and the
// session/capability wiring.
type ImplementationModel struct {
	Tech        *TechnicalArchitecture `json:"tech"`
	Tasks       []Task                 `json:"tasks"`
	Messages    []Message              `json:"messages"`
	Connections []Connection           `json:"connections"`
}

// TasksOn returns the tasks on a processor sorted by priority (highest,
// i.e. numerically lowest, first).
func (m *ImplementationModel) TasksOn(proc string) []Task {
	var out []Task
	for _, t := range m.Tasks {
		if t.Processor == proc {
			out = append(out, t)
		}
	}
	sortTasks(out)
	return out
}

// TasksByProcessor groups the tasks by processor in one pass, each group
// in TasksOn's order: TasksOn for every processor at once, O(tasks)
// instead of O(processors × tasks).
func (m *ImplementationModel) TasksByProcessor() map[string][]Task {
	by := make(map[string][]Task)
	for _, t := range m.Tasks {
		by[t.Processor] = append(by[t.Processor], t)
	}
	for _, out := range by {
		sortTasks(out)
	}
	return by
}

func sortTasks(out []Task) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority < out[j].Priority
		}
		return out[i].Name < out[j].Name
	})
}

// MessagesOn returns messages on a network sorted by priority.
func (m *ImplementationModel) MessagesOn(net string) []Message {
	var out []Message
	for _, msg := range m.Messages {
		if msg.Network == net {
			out = append(out, msg)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority < out[j].Priority
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Validate checks structural consistency of the implementation model.
func (m *ImplementationModel) Validate() error {
	if m.Tech == nil {
		return fmt.Errorf("model: implementation model without technical architecture")
	}
	if err := m.Tech.Validate(); err != nil {
		return err
	}
	prioSeen := make(map[string]map[int]string) // processor -> priority -> task
	for _, t := range m.Tasks {
		if m.Tech.Platform.ProcessorByName(t.Processor) == nil {
			return fmt.Errorf("model: task %q on unknown processor %q", t.Name, t.Processor)
		}
		if err := t.Validate(); err != nil {
			return err
		}
		byPrio := prioSeen[t.Processor]
		if byPrio == nil {
			byPrio = make(map[int]string)
			prioSeen[t.Processor] = byPrio
		}
		if other, dup := byPrio[t.Priority]; dup {
			return fmt.Errorf("model: tasks %q and %q share priority %d on %q", other, t.Name, t.Priority, t.Processor)
		}
		byPrio[t.Priority] = t.Name
	}
	for _, msg := range m.Messages {
		if m.Tech.Platform.NetworkByName(msg.Network) == nil {
			return fmt.Errorf("model: message %q on unknown network %q", msg.Name, msg.Network)
		}
		if msg.Bytes < 0 || msg.PeriodUS <= 0 {
			return fmt.Errorf("model: message %q has invalid size/period", msg.Name)
		}
	}
	ids := make(map[string]bool)
	for _, in := range m.Tech.Instances {
		ids[in.ID()] = true
	}
	for _, c := range m.Connections {
		if !ids[c.Client] || !ids[c.Server] {
			return fmt.Errorf("model: connection %s -> %s references unknown instance", c.Client, c.Server)
		}
	}
	return nil
}

// SystemModel bundles the deployed configuration for (de)serialization;
// this is the on-disk format consumed by cmd/mcc.
type SystemModel struct {
	Platform   *Platform               `json:"platform"`
	Functional *FunctionalArchitecture `json:"functional"`
}

// Validate checks both halves of the system model.
func (s *SystemModel) Validate() error {
	if s.Platform == nil || s.Functional == nil {
		return fmt.Errorf("model: system model missing platform or functional architecture")
	}
	if err := s.Platform.Validate(); err != nil {
		return err
	}
	return s.Functional.Validate()
}
