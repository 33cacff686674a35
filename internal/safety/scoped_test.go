package safety

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// violationArch builds a technical architecture carrying at least one
// finding of every safety rule, interleaved with clean entities, so
// order-sensitive comparisons between the composed and per-rule checks
// are meaningful.
func violationArch() *model.TechnicalArchitecture {
	fa := &model.FunctionalArchitecture{
		Functions: []model.Function{
			{Name: "ctl", Contract: model.Contract{Safety: model.ASILD}},                               // misplaced on qm core
			{Name: "app", Contract: model.Contract{Safety: model.QM}},                                  // fine
			{Name: "failop1", Replicas: 2, Contract: model.Contract{FailOperational: true}},            // both replicas on one core
			{Name: "failop2", Contract: model.Contract{FailOperational: true}},                         // single replica
			{Name: "hog", Contract: model.Contract{Resources: model.ResourceContract{RAMKiB: 999999}}}, // memory
		},
	}
	platform := &model.Platform{
		Processors: []model.Processor{
			{Name: "safe", Policy: model.SPP, SpeedFactor: 1, RAMKiB: 4096, MaxSafety: model.ASILD},
			{Name: "qm", Policy: model.SPP, SpeedFactor: 1, RAMKiB: 4096, MaxSafety: model.QM},
		},
	}
	return &model.TechnicalArchitecture{
		Platform: platform,
		Func:     fa,
		Instances: []model.Instance{
			{Function: "app", Replica: 0, Processor: "safe"},
			{Function: "ctl", Replica: 0, Processor: "qm"}, // asil-placement finding
			{Function: "failop1", Replica: 0, Processor: "safe"},
			{Function: "failop1", Replica: 1, Processor: "safe"}, // shared processor
			{Function: "failop2", Replica: 0, Processor: "safe"},
			{Function: "hog", Replica: 0, Processor: "qm"}, // memory-budget finding on qm
		},
	}
}

func TestCheckScopedFullEqualsCheck(t *testing.T) {
	tech := violationArch()
	full := Check(tech)
	if len(full) != 4 {
		t.Fatalf("fixture yields %d findings, want 4 (placement, 2x redundancy, memory): %v", len(full), full)
	}
	scopedAll, checked := CheckScoped(tech)
	if !reflect.DeepEqual(scopedAll, full) {
		t.Fatalf("CheckScoped diverges from Check:\ngot  %v\nwant %v", scopedAll, full)
	}
	wantChecked := len(tech.Instances) + 2 /* fail-op groups */ + 2 /* loaded procs */
	if checked != wantChecked {
		t.Fatalf("counted check computed %d verdicts, want %d", checked, wantChecked)
	}

	// The composed check must also equal the three published checks in
	// their documented order — the parity the MCC's rejection reports
	// rely on.
	var composed []Finding
	composed = append(composed, CheckPlacement(tech)...)
	composed = append(composed, CheckRedundancy(tech)...)
	composed = append(composed, CheckMemoryBudgets(tech)...)
	if !reflect.DeepEqual(full, composed) {
		t.Fatalf("Check diverges from composed per-rule checks:\ngot  %v\nwant %v", full, composed)
	}
}

func TestCheckScopedDuplicateAndDanglingNames(t *testing.T) {
	tech := violationArch()
	// Duplicate names: the first copy must win, as in FunctionByName and
	// ProcessorByName. The second copies would clear the ctl placement
	// and the qm memory findings if they won.
	tech.Func.Functions = append(tech.Func.Functions,
		model.Function{Name: "ctl", Contract: model.Contract{Safety: model.QM}})
	tech.Platform.Processors = append(tech.Platform.Processors,
		model.Processor{Name: "qm", Policy: model.SPP, SpeedFactor: 1, RAMKiB: 1 << 30, MaxSafety: model.ASILD})
	// Instances referencing entities that do not exist are skipped
	// (structural validation reports them).
	tech.Instances = append(tech.Instances,
		model.Instance{Function: "ghost", Replica: 0, Processor: "safe"},
		model.Instance{Function: "app", Replica: 1, Processor: "nowhere"})
	got, _ := CheckScoped(tech)
	want := []struct{ rule, subject string }{
		{"asil-placement", "ctl#0"},
		{"fail-operational-redundancy", "failop1"},
		{"fail-operational-redundancy", "failop2"},
		{"memory-budget", "qm"},
	}
	if len(got) != len(want) {
		t.Fatalf("findings = %v, want %v", got, want)
	}
	for i, w := range want {
		if got[i].Rule != w.rule || got[i].Subject != w.subject {
			t.Fatalf("finding %d = %s/%s, want %s/%s (all: %v)", i, got[i].Rule, got[i].Subject, w.rule, w.subject, got)
		}
	}
}
