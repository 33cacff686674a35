package scenario

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/mcc"
	"repro/internal/model"
)

// Per-proposal allocation flatness: the O(diff) admission path must not
// allocate proportionally to the platform. The change-driven diff, the
// change decided against the committed snapshot without a candidate
// clone, the committed-list splices, and the
// delta-report contract (reports carry TimingDelta/MonitorDelta —
// footprint-sized — and whole tables only materialize on demand) keep
// the per-proposal allocation *count* constant-ish — measured 29
// allocs at 32 processors vs 33 at 2048 for the update toggle. A regression that
// reintroduces a per-function or per-resource allocation — a clone, a
// map rebuild, a per-entry box — blows the ratio up by orders of
// magnitude, so the 2x bound below is loose against noise yet tight
// against any real O(platform) regression. The *bytes* per proposal are
// bounded the same way: a platform-sized structure rebuilt once per
// proposal (say, a function index dropped by a removal and rebuilt by
// the next lookup) costs a few allocations but many bytes, invisible
// to the count alone. The service-graph shape (a cross-domain client's
// add, removal and denied add) re-derives session rows: only the rows of
// the clients it rewires, read from the committed snapshot, so it stays
// flat too (33 allocs at 32 processors vs about 37 at 2048), and its
// SecurityChecks must not depend on the platform size.
//
// Flatness alone cannot see bookkeeping that costs the same at every size
// (stage notes formatted on every pass, lookup maps rebuilt per pass), so
// the update toggle and the telemetry add/remove also carry an absolute
// budget at 2048 processors: what the path allocated when the budget was
// set, plus 10%.

// allocBudget is a per-proposal ceiling: allocations and heap bytes.
type allocBudget struct{ allocs, bytes float64 }

// deployGenerated deploys the generated baseline at the given platform
// size on a fresh controller.
func deployGenerated(t *testing.T, procs int) (*mcc.MCC, *Fleet) {
	t.Helper()
	fleet := GenFleet(DefaultFleetSpec(procs))
	m, err := mcc.New(fleet.Platform)
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.ProposeArchitecture(fleet.Baseline); !rep.Accepted {
		t.Fatalf("procs=%d: baseline rejected at %s", procs, rep.RejectedAt)
	}
	return m, fleet
}

// updateTogglePair toggles one standalone app between two contract
// variants, so every proposal is a genuine accepted update and the
// committed state returns to the start of the pair.
func updateTogglePair(t *testing.T, m *mcc.MCC, fleet *Fleet) func() {
	var name string
	for _, f := range fleet.Baseline.Functions {
		if strings.HasPrefix(f.Name, "app") {
			name = f.Name
			break
		}
	}
	if name == "" {
		name = fleet.Baseline.Functions[0].Name
	}
	v0 := *fleet.Baseline.FunctionByName(name)
	v1 := v0
	v1.Contract.RealTime.WCETUS++
	return func() {
		if !m.ProposeUpdate(v1).Accepted || !m.ProposeUpdate(v0).Accepted {
			t.Fatalf("%s: update pair rejected", name)
		}
	}
}

// telemetryPair adds and removes one standalone telemetry function —
// the churn shape that exercises the removal path.
func telemetryPair(t *testing.T, m *mcc.MCC, _ *Fleet) func() {
	telem := model.Function{Name: "telem-probe", Contract: model.Contract{
		Safety:    model.QM,
		RealTime:  model.RealTimeContract{PeriodUS: 100000, WCETUS: 3000},
		Resources: model.ResourceContract{RAMKiB: 64},
	}}
	return func() {
		if rep := m.ProposeUpdate(telem); !rep.Accepted {
			t.Fatalf("telemetry add rejected at %s: %v", rep.RejectedAt, rep.Findings)
		}
		if rep := m.ProposeRemoval(telem.Name); !rep.Accepted {
			t.Fatalf("telemetry removal rejected at %s: %v", rep.RejectedAt, rep.Findings)
		}
	}
}

// serviceClientTriple adds a cross-domain client of a baseline chain
// service holding the grant, removes it, and proposes it again without
// the grant, which the security stage denies — the service-graph edit
// that re-derives session rows. checks receives the three proposals'
// SecurityChecks.
func serviceClientTriple(t *testing.T, m *mcc.MCC, fleet *Fleet, checks *[3]int) func() {
	svc := fleet.services[0]
	granted := model.Function{Name: "xdom-probe", Requires: []string{svc}, Contract: model.Contract{
		Safety:       model.QM,
		Domain:       "telematics",
		AllowedPeers: []string{svc},
		RealTime:     model.RealTimeContract{PeriodUS: 100000, WCETUS: 3000},
		Resources:    model.ResourceContract{RAMKiB: 64},
	}}
	denied := granted
	denied.Contract.AllowedPeers = nil
	return func() {
		reps := [3]*mcc.Report{m.ProposeUpdate(granted), m.ProposeRemoval(granted.Name), m.ProposeUpdate(denied)}
		if !reps[0].Accepted || !reps[1].Accepted || reps[2].Accepted || reps[2].RejectedAt != mcc.StageSecurity {
			t.Fatalf("service client triple decided %v/%v/%v@%s, want accepted/accepted/rejected@security",
				reps[0].Accepted, reps[1].Accepted, reps[2].Accepted, reps[2].RejectedAt)
		}
		for i, rep := range reps {
			checks[i] = rep.SecurityChecks
		}
	}
}

// perProposal measures the steady-state allocations and heap bytes of
// one proposal of a pair issuing n proposals per call.
func perProposal(pair func(), n int) (allocs, bytes float64) {
	// Warm the pair so the analyzer memo and splice caches reach steady
	// state before measuring.
	pair()
	pair()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const pairs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range pairs {
		pair()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n*pairs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n*pairs)
}

func TestProposalAllocsFlatAcrossPlatformSize(t *testing.T) {
	var checks [3]int
	shapes := []struct {
		name string
		n    int // proposals per call
		pair func(*testing.T, *mcc.MCC, *Fleet) func()
		// budget and raceBudget bound one proposal at 2048 processors
		// (zero: flatness only); the race detector's instrumentation
		// allocates more, so race builds have a budget of their own.
		budget, raceBudget allocBudget
	}{
		{"update toggle", 2, updateTogglePair,
			allocBudget{33.0 * 1.1, 4968 * 1.1}, allocBudget{34.0 * 1.1, 6032 * 1.1}},
		{"telemetry add/remove", 2, telemetryPair,
			allocBudget{33.0 * 1.1, 4388 * 1.1}, allocBudget{34.0 * 1.1, 5448 * 1.1}},
		{"service client add/remove/deny", 3, func(t *testing.T, m *mcc.MCC, fleet *Fleet) func() {
			return serviceClientTriple(t, m, fleet, &checks)
		}, allocBudget{}, allocBudget{}},
	}
	const small, big = 32, 2048
	type cost struct{ allocs, bytes float64 }
	costs := make(map[int][]cost)
	checksAt := make(map[int][3]int)
	for _, procs := range []int{small, big} {
		m, fleet := deployGenerated(t, procs)
		for _, s := range shapes {
			a, b := perProposal(s.pair(t, m, fleet), s.n)
			costs[procs] = append(costs[procs], cost{a, b})
		}
		checksAt[procs] = checks
	}
	// The service-graph edit re-checks the same rows at every size: the
	// client's own rows on the add and the denied add, none on the removal.
	if checksAt[small] != checksAt[big] {
		t.Errorf("service client SecurityChecks differ across platform sizes: %v @%dp, %v @%dp",
			checksAt[small], small, checksAt[big], big)
	}
	for i, s := range shapes {
		lo, hi := costs[small][i], costs[big][i]
		t.Logf("%s: allocs/proposal %.1f @%dp, %.1f @%dp; bytes/proposal %.0f, %.0f",
			s.name, lo.allocs, small, hi.allocs, big, lo.bytes, hi.bytes)
		if lo.allocs == 0 || lo.bytes == 0 {
			t.Fatalf("%s: implausible zero allocations at %d processors", s.name, small)
		}
		if ratio := hi.allocs / lo.allocs; ratio > 2.0 {
			t.Errorf("%s: per-proposal allocations grew with platform size: %.1f@%dp -> %.1f@%dp (%.2fx, want <= 2x over a 64x platform sweep)",
				s.name, lo.allocs, small, hi.allocs, big, ratio)
		}
		if ratio := hi.bytes / lo.bytes; ratio > 2.0 {
			t.Errorf("%s: per-proposal bytes grew with platform size: %.0f@%dp -> %.0f@%dp (%.2fx, want <= 2x over a 64x platform sweep)",
				s.name, lo.bytes, small, hi.bytes, big, ratio)
		}
		budget := s.budget
		if raceBuild {
			budget = s.raceBudget
		}
		if budget.allocs > 0 && (hi.allocs > budget.allocs || hi.bytes > budget.bytes) {
			t.Errorf("%s: %.1f allocs and %.0f bytes per proposal at %dp, over the budget of %.1f allocs and %.0f bytes",
				s.name, hi.allocs, hi.bytes, big, budget.allocs, budget.bytes)
		}
	}
}

// A verified stream window commits its changes in place, as serial
// proposals do, and rolls back only from its first-write undo record, so
// a window decision costs about what the same change proposed serially
// costs: the window's own bookkeeping (its analysis map, pending entries
// and timing deltas) stays within 512 B per decision. A window that
// copied what its commits write would pay several kilobytes more.
func TestStreamWindowAllocsNearSerial(t *testing.T) {
	const procs, slack = 1024, 512
	streamed, fleet := deployGenerated(t, procs)
	serial, _ := deployGenerated(t, procs)
	window := restoringWindow(fleet)
	sched := mcc.NewStreamScheduler(streamed)
	_, streamBytes := perProposal(func() {
		for i, rep := range sched.Run(window) {
			if !rep.Accepted {
				t.Fatalf("window change %d (%s) rejected at %s: %v", i, window[i], rep.RejectedAt, rep.Findings)
			}
		}
	}, len(window))
	if st := sched.Stats(); st.Replays != 0 || st.Speculated != st.Windows*len(window) {
		t.Fatalf("windows not verified: %s", st)
	}
	_, serialBytes := perProposal(func() {
		for i, c := range window {
			var rep *mcc.Report
			if c.Update != nil {
				rep = serial.ProposeUpdate(*c.Update)
			} else {
				rep = serial.ProposeRemoval(c.Remove)
			}
			if !rep.Accepted {
				t.Fatalf("serial change %d (%s) rejected at %s: %v", i, c, rep.RejectedAt, rep.Findings)
			}
		}
	}, len(window))
	t.Logf("%dp: %.0f B per window decision, %.0f B per serial proposal", procs, streamBytes, serialBytes)
	if streamBytes > serialBytes+slack {
		t.Errorf("%dp: a window decision allocates %.0f B, over the serial proposal's %.0f B plus %d B",
			procs, streamBytes, serialBytes, slack)
	}
}

// restoringWindow is one stream window of 16 feasible changes that leaves
// the committed state as it found it: six standalone apps updated, two
// telemetry functions added and removed, and the six apps reverted.
func restoringWindow(fleet *Fleet) []mcc.Change {
	var apps []model.Function
	for _, f := range fleet.Baseline.Functions {
		if strings.HasPrefix(f.Name, "app") && len(apps) < 6 {
			apps = append(apps, f)
		}
	}
	out := make([]mcc.Change, 0, 16)
	for _, f := range apps {
		f.Contract.RealTime.WCETUS++
		out = append(out, mcc.Change{Update: &f})
	}
	for _, name := range []string{"telem-a", "telem-b"} {
		out = append(out, mcc.Change{Update: &model.Function{Name: name, Contract: model.Contract{
			Safety:    model.QM,
			RealTime:  model.RealTimeContract{PeriodUS: 100000, WCETUS: 3000},
			Resources: model.ResourceContract{RAMKiB: 64},
		}}})
	}
	out = append(out, mcc.Change{Remove: "telem-a"}, mcc.Change{Remove: "telem-b"})
	for _, f := range apps {
		out = append(out, mcc.Change{Update: &f})
	}
	return out
}

// The from-scratch deploy — the baseline deploy, every fleet registration
// and crash rebuild, the degradation ladder's pinned pass and every cold
// retry — validates each artifact once, builds its lookup index once, and
// builds each instance ID once. One 2048-processor baseline deploy carries
// an absolute budget: what it allocated when the budget was set, plus 10%.
// A second validation pass, a regrouping of the flat lists or an ID built
// per task and session row costs thousands of allocations, far beyond the
// margin.
func TestColdDeployAllocsBudget(t *testing.T) {
	budget := allocBudget{31_270 * 1.1, 13_213_000 * 1.1}
	if raceBuild {
		budget = allocBudget{33_670 * 1.1, 14_025_000 * 1.1}
	}
	fleet := GenFleet(DefaultFleetSpec(2048))
	deploy := func() (allocs, bytes float64) {
		m, err := mcc.New(fleet.Platform)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep := m.ProposeArchitecture(fleet.Baseline)
		runtime.ReadMemStats(&after)
		if !rep.Accepted {
			t.Fatalf("baseline rejected at %s: %v", rep.RejectedAt, rep.Findings)
		}
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
	}
	deploy() // warm lazily initialized runtime and package state
	allocs, bytes := deploy()
	t.Logf("2048p baseline deploy: %.0f allocs, %.0f bytes", allocs, bytes)
	if allocs > budget.allocs || bytes > budget.bytes {
		t.Errorf("2048p baseline deploy: %.0f allocs and %.0f bytes, over the budget of %.0f allocs and %.0f bytes",
			allocs, bytes, budget.allocs, budget.bytes)
	}
}
