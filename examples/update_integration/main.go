// update_integration: the CCC in-field update workflow of Section II. An
// MCC manages a deployed vehicle configuration; updates proposed over the
// air pass through the full integration pipeline — contract validation,
// platform mapping, implementation synthesis, safety/security/timing
// acceptance tests — and are committed only if every test passes.
//
// Run with: go run ./examples/update_integration
package main

import (
	"fmt"
	"log"

	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	m, err := mcc.New(scenario.ReferencePlatform())
	if err != nil {
		log.Fatal(err)
	}

	// Initial deployment: the base driving stack.
	base := &model.FunctionalArchitecture{
		Functions: []model.Function{
			{
				Name:     "perception",
				Provides: []string{"objects"},
				Contract: model.Contract{
					Safety:    model.ASILB,
					RealTime:  model.RealTimeContract{PeriodUS: 50000, WCETUS: 9000},
					Resources: model.ResourceContract{RAMKiB: 2048},
					Domain:    "drive",
				},
			},
			{
				Name:     "acc",
				Requires: []string{"objects"},
				Provides: []string{"accel_cmd"},
				Contract: model.Contract{
					Safety:    model.ASILC,
					RealTime:  model.RealTimeContract{PeriodUS: 20000, WCETUS: 1500},
					Resources: model.ResourceContract{RAMKiB: 256},
					Domain:    "drive",
				},
			},
			{
				Name:     "brake-ctl",
				Requires: []string{"accel_cmd"},
				Replicas: 2,
				Contract: model.Contract{
					Safety:          model.ASILD,
					RealTime:        model.RealTimeContract{PeriodUS: 10000, WCETUS: 800},
					Resources:       model.ResourceContract{RAMKiB: 128},
					Domain:          "drive",
					FailOperational: true,
				},
			},
		},
		Flows: []model.Flow{
			{From: "perception", To: "acc", Service: "objects", MsgBytes: 64, PeriodUS: 50000},
			{From: "acc", To: "brake-ctl", Service: "accel_cmd", MsgBytes: 8, PeriodUS: 20000},
		},
	}
	report(m, "initial deployment", m.ProposeArchitecture(base))

	// Update 1: a new comfort function — feasible.
	report(m, "add park-assist (QM)", m.ProposeUpdate(model.Function{
		Name: "park-assist",
		Contract: model.Contract{
			Safety:    model.QM,
			RealTime:  model.RealTimeContract{PeriodUS: 100000, WCETUS: 12000},
			Resources: model.ResourceContract{RAMKiB: 1024},
		},
	}))

	// Update 2: an ACC version with a fatter WCET — still schedulable.
	upd := *base.FunctionByName("acc")
	upd.Version = 2
	upd.Contract.RealTime.WCETUS = 3000
	report(m, "update acc to v2 (WCET 1.5ms -> 3ms)", m.ProposeUpdate(upd))

	// Update 3: a malicious/broken update — telematics wants the
	// actuation service across domains without a permission.
	report(m, "add telematics requiring accel_cmd cross-domain", m.ProposeUpdate(model.Function{
		Name:     "telematics",
		Requires: []string{"accel_cmd"},
		Contract: model.Contract{
			Safety:    model.QM,
			RealTime:  model.RealTimeContract{PeriodUS: 100000, WCETUS: 500},
			Resources: model.ResourceContract{RAMKiB: 128},
			Domain:    "connectivity",
		},
	}))

	// Update 4: run-time observations evolve the ACC contract.
	m.RecordObservedWCET("acc", 3600)
	report(m, "reintegrate with observed WCET 3.6ms (model refinement)", m.ReintegrateWithObservations())

	fmt.Printf("integration history: %d proposals processed\n", processed)
}

// processed counts the proposals report has printed.
var processed int

func report(m *mcc.MCC, what string, rep *mcc.Report) {
	processed++
	verdict := "ACCEPTED"
	if !rep.Accepted {
		verdict = fmt.Sprintf("REJECTED at %s", rep.RejectedAt)
	}
	fmt.Printf("=== %s: %s\n", what, verdict)
	for _, f := range rep.Findings {
		fmt.Printf("      %s\n", f)
	}
	if rep.Accepted && rep.Impl != nil {
		// Whole-platform task counts come from the committed model;
		// rep.Impl.Tasks is unmaterialized on the incremental path.
		fmt.Printf("      tasks=%d messages=%d monitors=%d\n",
			len(m.DeployedImpl().Tasks), len(rep.Impl.Messages), len(rep.FullMonitors()))
	}
	fmt.Println()
}
