package scenario

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/mcc"
	"repro/internal/model"
)

// Laws of the decision function: properties one engine must satisfy on its
// own, so they need no second implementation and hold a helper that both
// legs of the parity harness share. From any committed state reached by
// deciding a generated change stream, cleanly or under the E14
// worker-panic rule (whose faulted decisions return through the pinned
// from-scratch pass):
//
//   - whole candidate: deciding a change c by ProposeUpdate or
//     ProposeRemoval equals proposing applyChange(Deployed(), c) with
//     ProposeArchitecture to a twin in the same committed state — verdict,
//     stage, findings and the committed state after it — and re-proposing
//     Deployed() is accepted and changes nothing. The changes include the
//     removal of a committed flow's sink, which cuts the flow and must be
//     accepted: no generated stream removes a flow endpoint. Both sides
//     are fresh replays of the stream, so the laws below still start from
//     the state the stream's warm decisions left;
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
// "The committed state" is Deployed(), DeployedImpl(), DeployedMonitors(),
// the capacity index placement reads (CommittedLoads()) and the
// FromScratchTables of the deployed implementation, compared whole.

// committedState is everything a law holds unchanged.
type committedState struct {
	fa       *model.FunctionalArchitecture
	impl     *model.ImplementationModel
	monitors []mcc.MonitorSpec
	loads    []mcc.ProcessorLoad
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
	return committedState{m.Deployed(), impl, m.DeployedMonitors(), m.CommittedLoads(), timing, monitors}
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
	case !slices.Equal(a.loads, b.loads):
		return "CommittedLoads()"
	case !reflect.DeepEqual(a.oracleTiming, b.oracleTiming):
		return "FromScratchTables timing"
	case !reflect.DeepEqual(a.oracleMonitors, b.oracleMonitors):
		return "FromScratchTables monitors"
	}
	return ""
}

// lawFleet is one committed state the laws start from: a generated
// fleet, replicated or not, with its baseline and change stream decided,
// cleanly or, when faulted is set, under the worker-panic rule.
type lawFleet struct {
	name    string
	fleet   *Fleet
	changes []mcc.Change
	faulted bool
}

// decideLawFleet builds a controller with opts and decides lf's baseline
// and change stream on it. It returns nil when the baseline is rejected,
// and otherwise the number of Degraded decisions in the stream.
func decideLawFleet(t *testing.T, lf lawFleet, opts ...mcc.Option) (*mcc.MCC, int) {
	t.Helper()
	m, err := mcc.New(lf.fleet.Platform, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !m.ProposeArchitecture(lf.fleet.Baseline).Accepted {
		return nil, 0
	}
	degraded := 0
	for _, c := range lf.changes {
		if proposeChaosChange(m, c).Degraded {
			degraded++
		}
	}
	return m, degraded
}

// lawController decides lf on a fresh controller. A faulted fleet runs
// the worker-panic rule capped at the fires a first run of the same
// stream saw, so the rule fires during the stream exactly as uncapped and
// never again: the laws then run warm on what the pinned passes returned.
func lawController(t *testing.T, lf lawFleet) *mcc.MCC {
	t.Helper()
	if !lf.faulted {
		m, _ := decideLawFleet(t, lf)
		return m
	}
	rules := chaosRules(t, "worker-panic")
	probe := faultinject.New(chaosSeed, rules...)
	if m, _ := decideLawFleet(t, lf, mcc.WithFaultInjector(probe)); m == nil {
		return nil
	}
	for i := range rules {
		rules[i].Count = probe.TotalFired()
	}
	m, degraded := decideLawFleet(t, lf, mcc.WithFaultInjector(faultinject.New(chaosSeed, rules...)))
	if degraded == 0 {
		t.Fatal("no Degraded decision in the stream: the fault rule never reached the pinned pass")
	}
	return m
}

// wholeCandidate is applyChange: the architecture fa with change c
// applied.
func wholeCandidate(fa *model.FunctionalArchitecture, c mcc.Change) *model.FunctionalArchitecture {
	if c.Update != nil {
		return fa.WithFunction(*c.Update)
	}
	return fa.WithoutFunction(c.Remove)
}

// flowSink returns the sink of fa's last flow that provides no service:
// removing it cuts the flow and orphans no requirer. It returns "" when
// fa has no such flow.
func flowSink(fa *model.FunctionalArchitecture) string {
	for i := len(fa.Flows) - 1; i >= 0; i-- {
		if f := fa.FunctionByName(fa.Flows[i].To); f != nil && len(f.Provides) == 0 {
			return f.Name
		}
	}
	return ""
}

// wholeStream is the number of stream changes, past the fleet's decided
// ones, that the whole-candidate law decides besides its sampled updates
// and removal.
const wholeStream = 4

// lawCase is one law: run drives m away from its committed state and
// back, failing on the first violation. Only "update then revert" may
// leave m changed, with a moved function placed anew; "whole candidate"
// leaves m alone and decides on fresh replays of its stream.
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
		name: "whole candidate",
		run: func(t *testing.T, lf lawFleet, _ *mcc.MCC, before committedState) {
			p := lf.fleet.Platform
			// warm decides each change from the stream's state as m does;
			// twin is a clean replay that decides whole candidates.
			warm, twin := lawController(t, lf), lawController(t, lawFleet{fleet: lf.fleet, changes: lf.changes})
			if d := diffState(before, captureState(t, p, warm)); d != "" {
				t.Fatalf("a replay of the stream commits a different %s", d)
			}
			if d := diffState(before, captureState(t, p, twin)); d != "" {
				t.Fatalf("a clean replay of the stream commits a different %s", d)
			}
			if rep := twin.ProposeArchitecture(twin.Deployed()); !rep.Accepted {
				t.Fatalf("re-proposing Deployed() decided %s: %v", verdict(rep), rep.Findings)
			}
			if d := diffState(before, captureState(t, p, twin)); d != "" {
				t.Fatalf("re-proposing Deployed() changed %s", d)
			}
			// The flow sink's removal comes first, so the changes after it
			// decide on, and commit over, the flows it cut.
			sink := flowSink(before.fa)
			if sink == "" {
				t.Fatal("no committed flow sink to remove, the flow-cutting row went unexercised")
			}
			n := len(lf.changes)
			changes := append([]mcc.Change{{Remove: sink}}, lf.fleet.Changes(n + wholeStream)[n:]...)
			for i, f := range sampled(before.fa.Functions) {
				if i == 0 {
					changes = append(changes, mcc.Change{Remove: f.Name})
					continue
				}
				upd := perturbed(f)
				changes = append(changes, mcc.Change{Update: &upd})
			}
			for i, c := range changes {
				got := proposeChaosChange(warm, c)
				if i == 0 && !got.Accepted {
					t.Fatalf("removal of flow sink %s decided %s %v, want accepted: the flow-cutting row went unexercised",
						sink, verdict(got), got.Findings)
				}
				want := twin.ProposeArchitecture(wholeCandidate(twin.Deployed(), c))
				if verdict(got) != verdict(want) || !slices.Equal(got.Findings, want.Findings) {
					t.Fatalf("%v decided %s %v, its whole candidate %s %v",
						c, verdict(got), got.Findings, verdict(want), want.Findings)
				}
				if d := diffState(captureState(t, p, warm), captureState(t, p, twin)); d != "" {
					t.Fatalf("%v and its whole candidate commit a different %s", c, d)
				}
			}
		},
	})

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
// at 2048, each plain and with every 5th baseline function replicated,
// and the first lawFaulted corpus seeds at 32 processors again, decided
// under the worker-panic rule.
func lawFleets() []lawFleet {
	var out []lawFleet
	add := func(seed uint64, procs int, faulted bool) {
		for _, replicated := range []bool{false, true} {
			spec := DefaultFleetSpec(procs)
			spec.Seed = int64(seed)
			fleet := GenFleet(spec)
			name := fmt.Sprintf("seed=%#x/%dp", seed, procs)
			if replicated {
				replicateEvery5th(fleet)
				name += "/replicated"
			}
			if faulted {
				name += "/worker-panic"
			}
			out = append(out, lawFleet{name, fleet, fleet.Changes(parityChanges), faulted})
		}
	}
	for _, seed := range parityCorpus {
		add(seed, 32, false)
	}
	add(parityCorpus[0], 2048, false)
	for _, seed := range parityCorpus[:lawFaulted] {
		add(seed, 32, true)
	}
	return out
}

// lawFaulted is the number of corpus seeds whose fleets the laws also
// start from after a worker-panic stream.
const lawFaulted = 6

// TestDecisionFunctionLaws holds every law on every fleet's committed
// state after its baseline and change stream.
func TestDecisionFunctionLaws(t *testing.T) {
	for _, lf := range lawFleets() {
		t.Run(lf.name, func(t *testing.T) {
			m := lawController(t, lf)
			if m == nil {
				t.Skip("infeasible baseline")
			}
			for _, tc := range lawCases() {
				t.Run(tc.name, func(t *testing.T) {
					tc.run(t, lf, m, captureState(t, lf.fleet.Platform, m))
				})
			}
		})
	}
}
