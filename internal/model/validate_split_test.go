package model

import (
	"math"
	"strings"
	"testing"
)

// splitModel is a small valid implementation model: two processors on one
// network, a provider with two replicas and a client, one message and the
// client's connection row.
func splitModel() *ImplementationModel {
	plat := &Platform{
		Processors: []Processor{
			{Name: "p0", Policy: SPP, SpeedFactor: 1, RAMKiB: 1024, MaxSafety: ASILD},
			{Name: "p1", Policy: SPNP, SpeedFactor: 2, RAMKiB: 1024, MaxSafety: ASILB},
		},
		Networks: []Network{{Name: "can0", BitsPerSec: 500_000, Attached: []string{"p0", "p1"}, Kind: "can"}},
	}
	fa := &FunctionalArchitecture{
		Functions: []Function{
			{Name: "prov", Provides: []string{"svc"}, Replicas: 2, Contract: Contract{
				Safety: ASILB, RealTime: RealTimeContract{PeriodUS: 10000, WCETUS: 1000}}},
			{Name: "cli", Requires: []string{"svc"}, Contract: Contract{
				Safety: QM, RealTime: RealTimeContract{PeriodUS: 20000, WCETUS: 2000}}},
		},
		Flows: []Flow{{From: "prov", To: "cli", Service: "svc", MsgBytes: 8, PeriodUS: 10000}},
	}
	tech := &TechnicalArchitecture{Platform: plat, Func: fa, Instances: []Instance{
		{Function: "cli", Replica: 0, Processor: "p1"},
		{Function: "prov", Replica: 0, Processor: "p0"},
		{Function: "prov", Replica: 1, Processor: "p1"},
	}}
	return &ImplementationModel{
		Tech: tech,
		Tasks: []Task{
			{Name: "prov#0", Processor: "p0", Priority: 1, PeriodUS: 10000, WCETUS: 1000, DeadlineUS: 10000},
			{Name: "prov#1", Processor: "p1", Priority: 1, PeriodUS: 10000, WCETUS: 500, DeadlineUS: 10000},
			{Name: "cli#0", Processor: "p1", Priority: 2, PeriodUS: 20000, WCETUS: 1000, DeadlineUS: 20000},
		},
		Messages:    []Message{{Name: "svc:prov->cli", Network: "can0", Priority: 1, Bytes: 8, PeriodUS: 10000, DeadlineUS: 10000}},
		Connections: []Connection{{Client: "cli#0", Server: "prov#0", Service: "svc"}},
	}
}

// splitChecks runs the split validators in Validate's order: the
// platform's and the functional architecture's own checks, the placement,
// then the derived parts — each only where its part exists.
func splitChecks(m *ImplementationModel) error {
	if m.Tech != nil && m.Tech.Platform != nil {
		if err := m.Tech.Platform.Validate(); err != nil {
			return err
		}
	}
	if m.Tech != nil && m.Tech.Func != nil {
		if err := m.Tech.Func.Validate(); err != nil {
			return err
		}
	}
	if m.Tech != nil {
		if err := m.Tech.ValidatePlacement(); err != nil {
			return err
		}
	}
	return m.ValidateDerived()
}

// Every rule of every level, broken once: the whole-model Validate must
// report exactly the first error of the split checks run in order, and
// that error must be the rule the case breaks.
func TestValidateEqualsSplitChecksInOrder(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(m *ImplementationModel)
		want   string
	}{
		// Platform rules.
		{"processor empty name", func(m *ImplementationModel) { m.Tech.Platform.Processors[1].Name = "" }, "processor 1 has empty name"},
		{"duplicate processor", func(m *ImplementationModel) { m.Tech.Platform.Processors[1].Name = "p0" }, `duplicate processor "p0"`},
		{"NaN speed", func(m *ImplementationModel) { m.Tech.Platform.Processors[0].SpeedFactor = math.NaN() }, "non-finite speed factor"},
		{"infinite speed", func(m *ImplementationModel) { m.Tech.Platform.Processors[0].SpeedFactor = math.Inf(1) }, "non-finite speed factor"},
		{"zero speed", func(m *ImplementationModel) { m.Tech.Platform.Processors[0].SpeedFactor = 0 }, "non-positive speed factor"},
		{"speed below floor", func(m *ImplementationModel) { m.Tech.Platform.Processors[0].SpeedFactor = MinSpeedFactor / 2 }, "below the minimum"},
		{"negative RAM", func(m *ImplementationModel) { m.Tech.Platform.Processors[0].RAMKiB = -1 }, "negative RAM"},
		{"unknown policy", func(m *ImplementationModel) { m.Tech.Platform.Processors[0].Policy = "edf" }, `unknown policy "edf"`},
		{"network empty name", func(m *ImplementationModel) { m.Tech.Platform.Networks[0].Name = "" }, "network 0 has empty name"},
		{"duplicate network", func(m *ImplementationModel) {
			m.Tech.Platform.Networks = append(m.Tech.Platform.Networks, m.Tech.Platform.Networks[0])
		}, `duplicate network "can0"`},
		{"zero bandwidth", func(m *ImplementationModel) { m.Tech.Platform.Networks[0].BitsPerSec = 0 }, "non-positive bandwidth"},
		{"network attaches unknown processor", func(m *ImplementationModel) {
			m.Tech.Platform.Networks[0].Attached = append(m.Tech.Platform.Networks[0].Attached, "p9")
		}, `attaches unknown processor "p9"`},
		// Functional rules.
		{"function empty name", func(m *ImplementationModel) { m.Tech.Func.Functions[1].Name = "" }, "function 1 has empty name"},
		{"duplicate function", func(m *ImplementationModel) { m.Tech.Func.Functions[1].Name = "prov" }, `duplicate function "prov"`},
		{"invalid contract", func(m *ImplementationModel) { m.Tech.Func.Functions[0].Contract.RealTime.WCETUS = 0 }, "periodic contract without WCET"},
		{"unprovided service", func(m *ImplementationModel) { m.Tech.Func.Functions[1].Requires = []string{"nope"} }, `requires unprovided service "nope"`},
		{"flow unknown function", func(m *ImplementationModel) { m.Tech.Func.Flows[0].To = "ghost" }, "flow 0 references unknown function"},
		{"flow source does not provide", func(m *ImplementationModel) { m.Tech.Func.Flows[0].From = "cli" }, `"cli" does not provide "svc"`},
		{"flow sink does not require", func(m *ImplementationModel) { m.Tech.Func.Flows[0].To = "prov" }, `"prov" does not require "svc"`},
		{"flow negative size", func(m *ImplementationModel) { m.Tech.Func.Flows[0].MsgBytes = -1 }, "flow 0 has negative size/period"},
		// Placement rules.
		{"missing platform", func(m *ImplementationModel) { m.Tech.Platform = nil }, "missing platform or functional model"},
		{"missing functional model", func(m *ImplementationModel) { m.Tech.Func = nil }, "missing platform or functional model"},
		{"instance of unknown function", func(m *ImplementationModel) { m.Tech.Instances[0].Function = "ghost" }, `instance of unknown function "ghost"`},
		{"instance on unknown processor", func(m *ImplementationModel) { m.Tech.Instances[1].Processor = "p9" }, `instance prov#0 mapped to unknown processor "p9"`},
		{"replica count", func(m *ImplementationModel) { m.Tech.Instances = m.Tech.Instances[:2] }, `function "prov" deployed 1 times, contract wants 2`},
		// Derived rules.
		{"missing technical architecture", func(m *ImplementationModel) { m.Tech = nil }, "without technical architecture"},
		{"task on unknown processor", func(m *ImplementationModel) { m.Tasks[2].Processor = "p9" }, `task "cli#0" on unknown processor "p9"`},
		{"periodic task without WCET", func(m *ImplementationModel) { m.Tasks[0].WCETUS = 0 }, `periodic task "prov#0" without WCET`},
		{"shared priority", func(m *ImplementationModel) { m.Tasks[2].Priority = 1 }, `tasks "prov#1" and "cli#0" share priority 1 on "p1"`},
		{"message on unknown network", func(m *ImplementationModel) { m.Messages[0].Network = "eth9" }, `on unknown network "eth9"`},
		{"message without period", func(m *ImplementationModel) { m.Messages[0].PeriodUS = 0 }, "has invalid size/period"},
		{"connection to unknown server", func(m *ImplementationModel) { m.Connections[0].Server = "prov#2" }, "cli#0 -> prov#2 references unknown instance"},
		{"connection from unknown client", func(m *ImplementationModel) { m.Connections[0].Client = "ghost#0" }, "ghost#0 -> prov#0 references unknown instance"},
		{"connection with a zero-padded replica", func(m *ImplementationModel) { m.Connections[0].Server = "prov#01" }, "references unknown instance"},
		{"connection with a signed replica", func(m *ImplementationModel) { m.Connections[0].Server = "prov#+1" }, "references unknown instance"},
		{"connection without a replica", func(m *ImplementationModel) { m.Connections[0].Server = "prov" }, "references unknown instance"},
	}
	if err := splitModel().Validate(); err != nil {
		t.Fatalf("the unbroken model is invalid: %v", err)
	}
	for _, tc := range cases {
		m := splitModel()
		tc.mutate(m)
		whole, split := m.Validate(), splitChecks(m)
		if whole == nil || split == nil {
			t.Errorf("%s: Validate %v, split checks %v; want both to fail", tc.name, whole, split)
			continue
		}
		if whole.Error() != split.Error() {
			t.Errorf("%s: Validate says %q, the split checks in order %q", tc.name, whole, split)
		}
		if !strings.Contains(whole.Error(), tc.want) {
			t.Errorf("%s: first error %q does not name the broken rule (%q)", tc.name, whole, tc.want)
		}
	}
}

// A connection whose endpoints are instance IDs of deployed replicas
// passes, whatever characters the function names hold.
func TestConnectionIDsResolveExactly(t *testing.T) {
	for _, id := range []string{"a#0", "a#b#12", "x#-1"} {
		key, ok := parseInstanceID(id)
		if !ok {
			t.Fatalf("%q did not parse", id)
		}
		if back := (Instance{Function: key.function, Replica: key.replica}).ID(); back != id {
			t.Fatalf("%q parsed to %+v, which spells %q", id, key, back)
		}
	}
	for _, id := range []string{"a", "a#", "a#x", "a#01", "a#+1", "a#-0", "a# 1"} {
		if key, ok := parseInstanceID(id); ok {
			t.Errorf("%q parsed to %+v, but no instance spells it", id, key)
		}
	}
}
