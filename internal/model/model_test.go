package model

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func validArch() *FunctionalArchitecture {
	return &FunctionalArchitecture{
		Functions: []Function{
			{
				Name:     "radar",
				Provides: []string{"objects"},
				Contract: Contract{
					Safety:   ASILB,
					RealTime: RealTimeContract{PeriodUS: 20000, WCETUS: 2000},
				},
			},
			{
				Name:     "acc",
				Requires: []string{"objects"},
				Provides: []string{"accel_cmd"},
				Contract: Contract{
					Safety:   ASILC,
					RealTime: RealTimeContract{PeriodUS: 10000, WCETUS: 1500},
				},
			},
			{
				Name:     "brake",
				Requires: []string{"accel_cmd"},
				Contract: Contract{
					Safety:          ASILD,
					RealTime:        RealTimeContract{PeriodUS: 5000, WCETUS: 500},
					FailOperational: true,
				},
				Replicas: 2,
			},
		},
		Flows: []Flow{
			{From: "radar", To: "acc", Service: "objects", MsgBytes: 64, PeriodUS: 20000},
			{From: "acc", To: "brake", Service: "accel_cmd", MsgBytes: 8, PeriodUS: 10000},
		},
	}
}

func validPlatform() *Platform {
	return &Platform{
		Processors: []Processor{
			{Name: "ecu1", Policy: SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: ASILD},
			{Name: "ecu2", Policy: SPP, SpeedFactor: 0.5, RAMKiB: 2048, MaxSafety: ASILB},
		},
		Networks: []Network{
			{Name: "can0", BitsPerSec: 500000, Attached: []string{"ecu1", "ecu2"}, Kind: "can"},
		},
	}
}

func TestParseSafetyLevel(t *testing.T) {
	cases := map[string]SafetyLevel{
		"QM": QM, "qm": QM,
		"ASIL-A": ASILA, "ASILA": ASILA, "a": ASILA,
		"ASIL-B": ASILB, "ASIL-C": ASILC,
		"asil-d": ASILD, "D": ASILD,
	}
	for in, want := range cases {
		got, err := ParseSafetyLevel(in)
		if err != nil {
			t.Fatalf("ParseSafetyLevel(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseSafetyLevel(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseSafetyLevel("ASIL-E"); err == nil {
		t.Fatal("expected error for ASIL-E")
	}
}

func TestSafetyLevelJSONRoundTrip(t *testing.T) {
	for l := QM; l <= ASILD; l++ {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		var back SafetyLevel
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != l {
			t.Fatalf("round trip %v -> %s -> %v", l, b, back)
		}
	}
	var fromInt SafetyLevel
	if err := json.Unmarshal([]byte("3"), &fromInt); err != nil || fromInt != ASILC {
		t.Fatalf("int decode: %v %v", fromInt, err)
	}
	if err := json.Unmarshal([]byte("9"), &fromInt); err == nil {
		t.Fatal("expected range error for 9")
	}
}

func TestSafetyLevelOrdering(t *testing.T) {
	if !(QM < ASILA && ASILA < ASILB && ASILB < ASILC && ASILC < ASILD) {
		t.Fatal("safety level ordering broken")
	}
	if ASILD.String() != "ASIL-D" || QM.String() != "QM" {
		t.Fatalf("names: %s %s", ASILD, QM)
	}
}

func TestRealTimeContractValidate(t *testing.T) {
	ok := RealTimeContract{PeriodUS: 1000, WCETUS: 100}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if ok.EffectiveDeadlineUS() != 1000 {
		t.Fatalf("implicit deadline = %d", ok.EffectiveDeadlineUS())
	}
	bad := RealTimeContract{PeriodUS: 1000, WCETUS: 2000}
	if err := bad.Validate(); err == nil {
		t.Fatal("WCET > deadline accepted")
	}
	noWCET := RealTimeContract{PeriodUS: 1000}
	if err := noWCET.Validate(); err == nil {
		t.Fatal("periodic without WCET accepted")
	}
	neg := RealTimeContract{PeriodUS: -1}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative period accepted")
	}
	// Time fields are bounded so that the utilization charge cannot wrap.
	for _, tc := range []struct {
		c   RealTimeContract
		err string
	}{
		{RealTimeContract{PeriodUS: 1e13, WCETUS: 1e13}, "above the maximum"},
		{RealTimeContract{PeriodUS: MaxTimeUS + 1, WCETUS: 1}, "above the maximum"},
		{RealTimeContract{PeriodUS: MaxTimeUS, WCETUS: MaxTimeUS + 1, DeadlineUS: MaxTimeUS + 1}, "above the maximum"},
		{RealTimeContract{PeriodUS: 1000, WCETUS: 100, JitterUS: MaxTimeUS + 1}, "above the maximum"},
		{RealTimeContract{PeriodUS: 1000, WCETUS: 100, DeadlineUS: MaxTimeUS + 1}, "above the maximum"},
		{RealTimeContract{PeriodUS: MaxTimeUS, WCETUS: MaxTimeUS}, ""},
		{RealTimeContract{PeriodUS: 1, WCETUS: MaxTimeUS, JitterUS: MaxTimeUS, DeadlineUS: MaxTimeUS}, ""},
	} {
		err := tc.c.Validate()
		if tc.err == "" && err != nil {
			t.Errorf("%+v: %v", tc.c, err)
		}
		if tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%+v: error %v, want one containing %q", tc.c, err, tc.err)
		}
	}
}

func TestResourceContractValidate(t *testing.T) {
	if err := (ResourceContract{RAMKiB: 100, CPUShare: 0.5}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (ResourceContract{CPUShare: 1.5}).Validate(); err == nil {
		t.Fatal("CPU share > 1 accepted")
	}
	if err := (ResourceContract{RAMKiB: -1}).Validate(); err == nil {
		t.Fatal("negative RAM accepted")
	}
}

func TestContractMergeStricter(t *testing.T) {
	a := Contract{
		Safety:    ASILB,
		RealTime:  RealTimeContract{PeriodUS: 10000, WCETUS: 1000},
		Resources: ResourceContract{RAMKiB: 512},
	}
	b := Contract{
		Safety:          ASILD,
		RealTime:        RealTimeContract{PeriodUS: 5000, WCETUS: 800},
		Resources:       ResourceContract{RAMKiB: 256, CPUShare: 0.3},
		FailOperational: true,
	}
	m := a.MergeStricter(b)
	if m.Safety != ASILD {
		t.Fatalf("merged safety = %v", m.Safety)
	}
	if m.RealTime.PeriodUS != 5000 {
		t.Fatalf("merged period = %d, want stricter 5000", m.RealTime.PeriodUS)
	}
	if m.Resources.RAMKiB != 512 {
		t.Fatalf("merged RAM = %d, want max 512", m.Resources.RAMKiB)
	}
	if m.Resources.CPUShare != 0.3 {
		t.Fatalf("merged CPU share = %v", m.Resources.CPUShare)
	}
	if !m.FailOperational {
		t.Fatal("merged lost fail-operational")
	}
}

// Property: MergeStricter is idempotent and commutative on safety level.
func TestPropMergeStricterSafety(t *testing.T) {
	f := func(x, y uint8) bool {
		a := Contract{Safety: SafetyLevel(x % 5)}
		b := Contract{Safety: SafetyLevel(y % 5)}
		ab := a.MergeStricter(b)
		ba := b.MergeStricter(a)
		if ab.Safety != ba.Safety {
			return false
		}
		return ab.MergeStricter(b).Safety == ab.Safety
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFunctionalArchitectureValidate(t *testing.T) {
	a := validArch()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDuplicateFunction(t *testing.T) {
	a := validArch()
	a.Functions = append(a.Functions, Function{Name: "radar"})
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateUnprovidedService(t *testing.T) {
	a := validArch()
	a.Functions[1].Requires = append(a.Functions[1].Requires, "lidar_points")
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "unprovided") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateFlowEndpoints(t *testing.T) {
	a := validArch()
	a.Flows = append(a.Flows, Flow{From: "ghost", To: "acc", Service: "objects"})
	if err := a.Validate(); err == nil {
		t.Fatal("flow from unknown function accepted")
	}
	a = validArch()
	a.Flows = append(a.Flows, Flow{From: "acc", To: "brake", Service: "objects"})
	if err := a.Validate(); err == nil {
		t.Fatal("flow with unprovided service accepted")
	}
}

func TestProviders(t *testing.T) {
	a := validArch()
	p := a.Providers("objects")
	if len(p) != 1 || p[0] != "radar" {
		t.Fatalf("Providers = %v", p)
	}
	if len(a.Providers("nonexistent")) != 0 {
		t.Fatal("Providers of unknown service non-empty")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := validArch()
	c := a.Clone()
	c.Functions[0].Name = "mutated"
	c.Functions[0].Provides[0] = "mutated"
	c.Flows[0].From = "mutated"
	if a.Functions[0].Name != "radar" || a.Functions[0].Provides[0] != "objects" || a.Flows[0].From != "radar" {
		t.Fatal("Clone shares memory with original")
	}
}

func TestWithFunctionReplacesOrAppends(t *testing.T) {
	a := validArch()
	upd := a.Functions[1]
	upd.Version = 2
	b := a.WithFunction(upd)
	if got := b.FunctionByName("acc").Version; got != 2 {
		t.Fatalf("replace failed, version = %d", got)
	}
	if a.FunctionByName("acc").Version != 0 {
		t.Fatal("WithFunction mutated original")
	}
	c := a.WithFunction(Function{Name: "lane_keep", Contract: Contract{}})
	if c.FunctionByName("lane_keep") == nil {
		t.Fatal("append failed")
	}
	if len(c.Functions) != len(a.Functions)+1 {
		t.Fatal("append count wrong")
	}
}

func TestWithoutFunction(t *testing.T) {
	a := validArch()
	b := a.WithoutFunction("radar")
	if b.FunctionByName("radar") != nil {
		t.Fatal("function not removed")
	}
	for _, fl := range b.Flows {
		if fl.From == "radar" || fl.To == "radar" {
			t.Fatal("flow touching removed function kept")
		}
	}
	if a.FunctionByName("radar") == nil {
		t.Fatal("WithoutFunction mutated original")
	}
}

func TestPlatformValidate(t *testing.T) {
	p := validPlatform()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := validPlatform()
	bad.Networks[0].Attached = append(bad.Networks[0].Attached, "ghost")
	if err := bad.Validate(); err == nil {
		t.Fatal("network attaching unknown processor accepted")
	}
	bad = validPlatform()
	bad.Processors[0].Policy = "edf"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// A speed factor must be a finite number no smaller than MinSpeedFactor:
// placement divides utilization by it, NaN or +Inf would turn a processor
// into one that wins every best-fit or has unlimited capacity, and a tiny
// positive one overflows the integer conversion of the scaled charge.
func TestPlatformValidateSpeedFactor(t *testing.T) {
	for _, tc := range []struct {
		speed float64
		err   string
	}{
		{1, ""},
		{0.5, ""},
		{MinSpeedFactor, ""},
		{math.Nextafter(MinSpeedFactor, 0), "below the minimum"},
		{1e-13, "below the minimum"},
		{1e-300, "below the minimum"},
		{0, "non-positive speed factor"},
		{-1, "non-positive speed factor"},
		{math.Inf(-1), "non-finite speed factor"},
		{math.Inf(1), "non-finite speed factor"},
		{math.NaN(), "non-finite speed factor"},
	} {
		p := validPlatform()
		p.Processors[0].SpeedFactor = tc.speed
		err := p.Validate()
		if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("speed factor %v: got %v, want %q", tc.speed, err, tc.err)
		}
	}
}

func TestPlatformConnecting(t *testing.T) {
	p := validPlatform()
	if n := p.Connecting("ecu1", "ecu2"); n == nil || n.Name != "can0" {
		t.Fatalf("Connecting = %v", n)
	}
	if p.Connecting("ecu1", "ghost") != nil {
		t.Fatal("Connecting to unknown processor non-nil")
	}
}

func TestTechnicalArchitectureValidate(t *testing.T) {
	ta := &TechnicalArchitecture{
		Platform: validPlatform(),
		Func:     validArch(),
		Instances: []Instance{
			{Function: "radar", Replica: 0, Processor: "ecu2"},
			{Function: "acc", Replica: 0, Processor: "ecu1"},
			{Function: "brake", Replica: 0, Processor: "ecu1"},
			{Function: "brake", Replica: 1, Processor: "ecu2"},
		},
	}
	if err := ta.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := ta.InstancesOn("ecu1"); len(got) != 2 {
		t.Fatalf("InstancesOn(ecu1) = %v", got)
	}
	if got := ta.InstancesOf("brake"); len(got) != 2 || got[0].Replica != 0 {
		t.Fatalf("InstancesOf(brake) = %v", got)
	}

	// Missing a brake replica must fail.
	ta.Instances = ta.Instances[:3]
	if err := ta.Validate(); err == nil {
		t.Fatal("missing replica accepted")
	}
}

func TestImplementationModelValidate(t *testing.T) {
	ta := &TechnicalArchitecture{
		Platform: validPlatform(),
		Func:     validArch(),
		Instances: []Instance{
			{Function: "radar", Replica: 0, Processor: "ecu2"},
			{Function: "acc", Replica: 0, Processor: "ecu1"},
			{Function: "brake", Replica: 0, Processor: "ecu1"},
			{Function: "brake", Replica: 1, Processor: "ecu2"},
		},
	}
	im := &ImplementationModel{
		Tech: ta,
		Tasks: []Task{
			{Name: "brake#0", Processor: "ecu1", Priority: 1, PeriodUS: 5000, WCETUS: 500, DeadlineUS: 5000},
			{Name: "acc#0", Processor: "ecu1", Priority: 2, PeriodUS: 10000, WCETUS: 1500, DeadlineUS: 10000},
		},
		Messages: []Message{
			{Name: "objects", Network: "can0", Priority: 10, Bytes: 8, PeriodUS: 20000},
		},
		Connections: []Connection{
			{Client: "acc#0", Server: "radar#0", Service: "objects"},
		},
	}
	if err := im.Validate(); err != nil {
		t.Fatal(err)
	}

	dup := *im
	dup.Tasks = append(dup.Tasks, Task{Name: "x", Processor: "ecu1", Priority: 1, PeriodUS: 100, WCETUS: 10})
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "share priority") {
		t.Fatalf("duplicate priority accepted: %v", err)
	}

	stray := *im
	stray.Tasks = append(slices.Clone(im.Tasks),
		Task{Name: "ghost#0", Processor: "ghost", Priority: 7, PeriodUS: 100, WCETUS: 10},
		Task{Name: "phantom#0", Processor: "phantom", Priority: 8, PeriodUS: 100, WCETUS: 10})
	if err := stray.Validate(); err == nil || err.Error() != `model: task "ghost#0" on unknown processor "ghost"` {
		t.Fatalf("unknown processor: got %v, want the first stray task named", err)
	}
}

func TestTasksOnSortedByPriority(t *testing.T) {
	im := &ImplementationModel{
		Tasks: []Task{
			{Name: "c", Processor: "p", Priority: 3},
			{Name: "a", Processor: "p", Priority: 1},
			{Name: "b", Processor: "p", Priority: 2},
			{Name: "other", Processor: "q", Priority: 1},
		},
	}
	got := im.TasksOn("p")
	if len(got) != 3 || got[0].Name != "a" || got[2].Name != "c" {
		t.Fatalf("TasksOn = %v", got)
	}
}

func TestGroupedByProcessorMatchesPerProcessorScans(t *testing.T) {
	tech := &TechnicalArchitecture{Instances: []Instance{
		{Function: "b", Replica: 0, Processor: "p"},
		{Function: "a", Replica: 1, Processor: "q"},
		{Function: "a", Replica: 0, Processor: "p"},
		{Function: "c", Replica: 0, Processor: "p"},
	}}
	im := &ImplementationModel{Tasks: []Task{
		{Name: "c", Processor: "p", Priority: 3},
		{Name: "a", Processor: "p", Priority: 1},
		{Name: "z", Processor: "q", Priority: 2},
		{Name: "y", Processor: "q", Priority: 2},
		{Name: "b", Processor: "p", Priority: 2},
	}}
	insts, tasks := tech.InstancesByProcessor(), im.TasksByProcessor()
	for _, pn := range []string{"p", "q", "idle"} {
		if got, want := insts[pn], tech.InstancesOn(pn); !reflect.DeepEqual(got, want) {
			t.Fatalf("InstancesByProcessor()[%s] = %v, InstancesOn = %v", pn, got, want)
		}
		if got, want := tasks[pn], im.TasksOn(pn); !reflect.DeepEqual(got, want) {
			t.Fatalf("TasksByProcessor()[%s] = %v, TasksOn = %v", pn, got, want)
		}
	}
}

func TestMessagesOnSorted(t *testing.T) {
	im := &ImplementationModel{
		Messages: []Message{
			{Name: "m2", Network: "n", Priority: 2},
			{Name: "m1", Network: "n", Priority: 1},
		},
	}
	got := im.MessagesOn("n")
	if len(got) != 2 || got[0].Name != "m1" {
		t.Fatalf("MessagesOn = %v", got)
	}
}

func TestSystemModelJSONRoundTrip(t *testing.T) {
	sm := &SystemModel{Platform: validPlatform(), Functional: validArch()}
	if err := sm.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(sm, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back SystemModel
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(back.Functional.Functions) != 3 || back.Functional.Functions[2].Contract.Safety != ASILD {
		t.Fatalf("round trip lost data: %+v", back.Functional)
	}
}

func TestInstanceID(t *testing.T) {
	in := Instance{Function: "acc", Replica: 1}
	if in.ID() != "acc#1" {
		t.Fatalf("ID = %q", in.ID())
	}
}
