package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mcc"
	"repro/internal/model"
)

// Laws of the decision function: properties one engine must satisfy on its
// own, so they need no second implementation and hold a helper that both
// legs of the parity harness share. From any committed state reached by
// deciding a generated change stream:
//
//   - idempotence: a committed function proposed unchanged is accepted
//     with 0 timing scans and 0 memo misses, and changes nothing;
//   - inverse: an accepted update that keeps every placement, followed by
//     its revert, restores the committed state, and so does an accepted
//     add followed by its removal. An update that moves the function is
//     reverted to the function's current best fit, which need not be
//     where it was, so such a pair restores Deployed() only; a removal
//     followed by a re-add need not restore either, since the re-added
//     function takes the last rank;
//   - unknown removal: removing a name that is not deployed changes
//     nothing.
//
// "The committed state" is Deployed(), DeployedImpl(), DeployedMonitors()
// and the FromScratchTables of the deployed implementation, compared
// whole.

// committedState is everything a law holds unchanged.
type committedState struct {
	fa       *model.FunctionalArchitecture
	impl     *model.ImplementationModel
	monitors []mcc.MonitorSpec
	// oracleTiming/oracleMonitors are FromScratchTables of impl.
	oracleTiming   []mcc.TimingResult
	oracleMonitors []mcc.MonitorSpec
}

func captureState(t *testing.T, p *model.Platform, m *mcc.MCC) committedState {
	t.Helper()
	impl := m.DeployedImpl()
	timing, monitors, err := mcc.FromScratchTables(p, impl)
	if err != nil {
		t.Fatalf("from-scratch tables: %v", err)
	}
	return committedState{m.Deployed(), impl, m.DeployedMonitors(), timing, monitors}
}

// diffState names the first part of the committed state that differs.
func diffState(a, b committedState) string {
	switch {
	case !reflect.DeepEqual(a.fa, b.fa):
		return "Deployed()"
	case !reflect.DeepEqual(a.impl, b.impl):
		return "DeployedImpl()"
	case !reflect.DeepEqual(a.monitors, b.monitors):
		return "DeployedMonitors()"
	case !reflect.DeepEqual(a.oracleTiming, b.oracleTiming):
		return "FromScratchTables timing"
	case !reflect.DeepEqual(a.oracleMonitors, b.oracleMonitors):
		return "FromScratchTables monitors"
	}
	return ""
}

// lawFleet is one committed state the laws start from: a generated
// fleet, replicated or not, with its baseline and change stream decided.
type lawFleet struct {
	name    string
	fleet   *Fleet
	changes []mcc.Change
}

// lawCase is one law: run drives m away from its committed state and
// back, failing on the first violation.
type lawCase struct {
	name string
	run  func(t *testing.T, lf lawFleet, m *mcc.MCC, before committedState)
}

// lawSamples bounds the functions a law visits per fleet: spread evenly
// over the committed list.
const lawSamples = 6

// sampled picks up to lawSamples functions spread evenly over fns.
func sampled(fns []model.Function) []model.Function {
	step := max(1, len(fns)/lawSamples)
	var out []model.Function
	for i := 0; i < len(fns) && len(out) < lawSamples; i += step {
		out = append(out, fns[i])
	}
	return out
}

// perturbed is f with a larger WCET, or more RAM when f has no timing
// contract: an update the placer and every stage must re-decide.
func perturbed(f model.Function) model.Function {
	if f.Contract.RealTime.WCETUS > 0 {
		f.Contract.RealTime.WCETUS += f.Contract.RealTime.WCETUS/8 + 1
	} else {
		f.Contract.Resources.RAMKiB += 64
	}
	return f
}

func lawCases() []lawCase {
	var tt []lawCase

	tt = append(tt, lawCase{
		name: "idempotent update",
		run: func(t *testing.T, lf lawFleet, m *mcc.MCC, before committedState) {
			for _, f := range sampled(before.fa.Functions) {
				misses := m.TimingCacheStats().Misses
				rep := m.ProposeUpdate(f)
				if !rep.Accepted || rep.TimingScans != 0 {
					t.Fatalf("unchanged %s decided %s with %d timing scans, want accept with 0",
						f.Name, verdict(rep), rep.TimingScans)
				}
				if d := m.TimingCacheStats().Misses - misses; d != 0 {
					t.Fatalf("unchanged %s missed the memo %d times", f.Name, d)
				}
				if d := diffState(before, captureState(t, lf.fleet.Platform, m)); d != "" {
					t.Fatalf("unchanged %s changed %s", f.Name, d)
				}
			}
		},
	})

	tt = append(tt, lawCase{
		name: "update then revert",
		run: func(t *testing.T, lf lawFleet, m *mcc.MCC, before committedState) {
			kept := 0
			for _, f := range sampled(before.fa.Functions) {
				placed := placements(m)
				if !m.ProposeUpdate(perturbed(f)).Accepted {
					continue // the law covers accepted updates only
				}
				moved := !slices.Equal(placements(m), placed)
				if rep := m.ProposeUpdate(f); !rep.Accepted {
					t.Fatalf("revert of %s decided %s: %v", f.Name, verdict(rep), rep.Findings)
				}
				after := captureState(t, lf.fleet.Platform, m)
				if moved {
					if !reflect.DeepEqual(before.fa, after.fa) {
						t.Fatalf("update and revert of %s changed Deployed()", f.Name)
					}
					before = after // the revert placed f anew
					continue
				}
				kept++
				if d := diffState(before, after); d != "" {
					t.Fatalf("update and revert of %s changed %s", f.Name, d)
				}
			}
			if kept == 0 {
				t.Fatal("no accepted update kept the placements, the law went unexercised")
			}
		},
	})

	tt = append(tt, lawCase{
		name: "add then remove",
		run: func(t *testing.T, lf lawFleet, m *mcc.MCC, before committedState) {
			added := 0
			for i, c := range lf.changes {
				if c.Update == nil || changeKind(c) != "add" || added == lawSamples {
					continue
				}
				f := *c.Update
				f.Name = fmt.Sprintf("law-%d-%s", i, f.Name)
				if !m.ProposeUpdate(f).Accepted {
					continue
				}
				added++
				if rep := m.ProposeRemoval(f.Name); !rep.Accepted {
					t.Fatalf("removal of added %s decided %s: %v", f.Name, verdict(rep), rep.Findings)
				}
				if d := diffState(before, captureState(t, lf.fleet.Platform, m)); d != "" {
					t.Fatalf("add and removal of %s changed %s", f.Name, d)
				}
			}
			if added == 0 {
				t.Fatal("no generated add was accepted, the law went unexercised")
			}
		},
	})

	tt = append(tt, lawCase{
		name: "unknown removal",
		run: func(t *testing.T, lf lawFleet, m *mcc.MCC, before committedState) {
			m.ProposeRemoval("law-no-such-function")
			if d := diffState(before, captureState(t, lf.fleet.Platform, m)); d != "" {
				t.Fatalf("removing an unknown name changed %s", d)
			}
		},
	})

	return tt
}

// lawFleets returns the parity corpus at 32 processors and its first seed
// at 2048, each plain and with every 5th baseline function replicated.
func lawFleets() []lawFleet {
	var out []lawFleet
	add := func(seed uint64, procs int) {
		for _, replicated := range []bool{false, true} {
			spec := DefaultFleetSpec(procs)
			spec.Seed = int64(seed)
			fleet := GenFleet(spec)
			name := fmt.Sprintf("seed=%#x/%dp", seed, procs)
			if replicated {
				replicateEvery5th(fleet)
				name += "/replicated"
			}
			out = append(out, lawFleet{name, fleet, fleet.Changes(parityChanges)})
		}
	}
	for _, seed := range parityCorpus {
		add(seed, 32)
	}
	add(parityCorpus[0], 2048)
	return out
}

// TestDecisionFunctionLaws holds every law on every fleet's committed
// state after its baseline and change stream.
func TestDecisionFunctionLaws(t *testing.T) {
	for _, lf := range lawFleets() {
		t.Run(lf.name, func(t *testing.T) {
			m, err := mcc.New(lf.fleet.Platform)
			if err != nil {
				t.Fatal(err)
			}
			if !m.ProposeArchitecture(lf.fleet.Baseline).Accepted {
				t.Skip("infeasible baseline")
			}
			for _, c := range lf.changes {
				if c.Update != nil {
					m.ProposeUpdate(*c.Update)
				} else {
					m.ProposeRemoval(c.Remove)
				}
			}
			for _, tc := range lawCases() {
				t.Run(tc.name, func(t *testing.T) {
					tc.run(t, lf, m, captureState(t, lf.fleet.Platform, m))
				})
			}
		})
	}
}
