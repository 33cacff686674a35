package safety

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// violationArch builds a technical architecture carrying at least one
// finding of every safety rule, interleaved with clean entities, so
// order-sensitive comparisons between the full and scoped checks are
// meaningful.
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
	scopedAll, checked := CheckScoped(tech, nil, nil)
	if !reflect.DeepEqual(scopedAll, full) {
		t.Fatalf("CheckScoped with nil predicates diverges from Check:\ngot  %v\nwant %v", scopedAll, full)
	}
	wantChecked := len(tech.Instances) + 2 /* fail-op groups */ + 2 /* loaded procs */
	if checked != wantChecked {
		t.Fatalf("full scoped check computed %d verdicts, want %d", checked, wantChecked)
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

func TestCheckScopedCoversExactlyTheTouchedScope(t *testing.T) {
	tech := violationArch()
	// Scope: only ctl (the misplaced instance) and the qm processor (the
	// blown memory budget). The scoped check must report exactly the
	// findings inside that scope, in full-check order, and count only the
	// scope's verdicts.
	touched := func(fn string) bool { return fn == "ctl" }
	procs := func(pn string) bool { return pn == "qm" }
	got, checked := CheckScoped(tech, touched, procs)
	if len(got) != 2 {
		t.Fatalf("scoped findings = %v, want placement(ctl) + memory(qm)", got)
	}
	if got[0].Rule != "asil-placement" || got[0].Subject != "ctl#0" {
		t.Fatalf("first scoped finding = %v, want the ctl placement violation", got[0])
	}
	if got[1].Rule != "memory-budget" || got[1].Subject != "qm" {
		t.Fatalf("second scoped finding = %v, want the qm memory violation", got[1])
	}
	if checked != 2 { // one instance + one processor budget, no fail-op groups touched
		t.Fatalf("scoped check computed %d verdicts, want 2", checked)
	}

	// Scoping to the redundancy offenders picks up both groups in
	// architecture order.
	got, _ = CheckScoped(tech, func(fn string) bool { return fn == "failop1" || fn == "failop2" }, func(string) bool { return false })
	if len(got) != 2 || got[0].Subject != "failop1" || got[1].Subject != "failop2" {
		t.Fatalf("scoped redundancy findings = %v, want failop1 then failop2", got)
	}
}

func TestCheckScopedCleanScopeIsSilent(t *testing.T) {
	tech := violationArch()
	// A scope containing only clean entities must produce no findings and
	// a footprint-sized verdict count — this is the splice the MCC relies
	// on when the committed remainder is known clean.
	got, checked := CheckScoped(tech, func(fn string) bool { return fn == "app" }, func(pn string) bool { return pn == "safe" })
	if len(got) != 0 {
		t.Fatalf("clean scope produced findings: %v", got)
	}
	if checked != 2 { // app#0 placement + safe memory budget
		t.Fatalf("clean scope computed %d verdicts, want 2", checked)
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
	got, _ := CheckScoped(tech, nil, nil)
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
