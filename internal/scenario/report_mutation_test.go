package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/mcc"
)

// Report-snapshot mutation oracle: a Report, once returned, is a
// snapshot — writing through any surface a consumer can reach (the
// deltas, the materialized whole-table views, findings, telemetry) must
// not change a single future decision of the controller. Twin engines
// process the identical change stream; one twin's reports are vandalized
// after every proposal, the other's are left pristine. Any divergence in
// verdicts, findings, placements, or committed tables means a report
// aliased committed state.

// vandalizeReport writes through every mutable surface of a report.
func vandalizeReport(rep *mcc.Report) {
	if rep == nil {
		return
	}
	rep.Findings = append(rep.Findings, "vandalized")
	rep.DegradedReasons = append(rep.DegradedReasons, "vandalized")
	for i := range rep.TimingDelta {
		rep.TimingDelta[i].Resource = "vandal"
		for j := range rep.TimingDelta[i].Results {
			rep.TimingDelta[i].Results[j].Name = "vandal"
			rep.TimingDelta[i].Results[j].WCRTUS = -1
			rep.TimingDelta[i].Results[j].Schedulable = false
		}
	}
	for i := range rep.MonitorDelta {
		rep.MonitorDelta[i].Target = "vandal"
		rep.MonitorDelta[i].PeriodUS = -1
		rep.MonitorDelta[i].Enforce = !rep.MonitorDelta[i].Enforce
	}
	// The materialized views promise fresh copies on every call: writing
	// through one call's result must not show up in the next call's.
	ft := rep.FullTiming()
	for i := range ft {
		ft[i].Resource = "vandal"
		for j := range ft[i].Results {
			ft[i].Results[j].WCRTUS = -7
			ft[i].Results[j].Schedulable = false
		}
	}
	fm := rep.FullMonitors()
	for i := range fm {
		fm[i].Target = "vandal"
		fm[i].WCETUS = -7
	}
	// A stage note is rendered on read from what the trace holds, so the
	// trace itself is the writable surface: overwrite it whole.
	for i := range rep.Stages {
		_ = rep.Stages[i].Note()
		rep.Stages[i] = mcc.StageTrace{Stage: "vandal", Wall: -1}
	}
}

func TestReportMutationOracle(t *testing.T) {
	seeds := []uint64{3, 42, 0x4d2}
	modes := []struct {
		name string
		opts []mcc.Option
	}{
		{"serial", []mcc.Option{mcc.WithoutIncremental()}},
		{"incremental", nil},
		{"stream", nil},
	}
	for _, mode := range modes {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%#x", mode.name, seed), func(t *testing.T) {
				fleet := GenFleet(paritySpec(seed))
				changes := fleet.Changes(24)

				mk := func() *mcc.MCC {
					m, err := mcc.New(fleet.Platform, mode.opts...)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				pristine, dirty := mk(), mk()
				pb := pristine.ProposeArchitecture(fleet.Baseline)
				db := dirty.ProposeArchitecture(fleet.Baseline)
				if pb.Accepted != db.Accepted {
					t.Fatalf("baseline verdicts diverge before any mutation")
				}
				vandalizeReport(db)
				if !pb.Accepted {
					t.Skip("infeasible baseline for this seed/mode")
				}

				var pReports, dReports []*mcc.Report
				if mode.name == "stream" {
					pReports = mcc.NewStreamScheduler(pristine).Run(changes)
					// Windowed runs hand back all reports at once; the
					// vandal mutates each before comparing, and a second
					// window proves the mutations didn't poison state
					// carried across windows.
					dReports = mcc.NewStreamScheduler(dirty).Run(changes[:len(changes)/2])
					for _, rep := range dReports {
						vandalizeReport(rep)
					}
					more := mcc.NewStreamScheduler(dirty).Run(changes[len(changes)/2:])
					for _, rep := range more {
						vandalizeReport(rep)
					}
					dReports = append(dReports, more...)
				} else {
					propose := func(m *mcc.MCC, c mcc.Change) *mcc.Report {
						if c.Update != nil {
							return m.ProposeUpdate(*c.Update)
						}
						return m.ProposeRemoval(c.Remove)
					}
					for _, c := range changes {
						pReports = append(pReports, propose(pristine, c))
						dr := propose(dirty, c)
						vandalizeReport(dr)
						dReports = append(dReports, dr)
					}
				}

				for i := range pReports {
					if verdict(pReports[i]) != verdict(dReports[i]) {
						t.Fatalf("change %d: verdicts diverge after report mutation: pristine %s, vandalized %s",
							i, verdict(pReports[i]), verdict(dReports[i]))
					}
					// The vandal appended one marker finding, so the
					// vandalized twin's findings must be exactly the
					// pristine twin's plus the marker.
					want := append(append([]string{}, pReports[i].Findings...), "vandalized")
					if got := dReports[i].Findings; !reflect.DeepEqual(got, want) {
						t.Fatalf("change %d findings diverge:\npristine+marker %v\nvandalized      %v", i, want, got)
					}
				}

				if !reflect.DeepEqual(placements(pristine), placements(dirty)) {
					t.Fatalf("final placements diverge after report mutations")
				}
				if !reflect.DeepEqual(pristine.DeployedMonitors(), dirty.DeployedMonitors()) {
					t.Fatalf("final monitor plans diverge after report mutations")
				}
				// The committed timing tables themselves: materialize both
				// final states through the last accepted reports.
				lastAccepted := func(reports []*mcc.Report) *mcc.Report {
					for i := len(reports) - 1; i >= 0; i-- {
						if reports[i].Accepted {
							return reports[i]
						}
					}
					return nil
				}
				pl, dl := lastAccepted(pReports), lastAccepted(dReports)
				if (pl == nil) != (dl == nil) {
					t.Fatalf("accepted-change sets diverge")
				}
				if pl != nil && !reflect.DeepEqual(pl.FullTiming(), dl.FullTiming()) {
					t.Fatalf("final committed WCRT tables diverge after report mutations")
				}
			})
		}
	}
}
