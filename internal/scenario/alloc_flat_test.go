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
// in-place candidate mutation, the committed-list splices, and the
// delta-report contract (reports carry TimingDelta/MonitorDelta —
// footprint-sized — and whole tables only materialize on demand) keep
// the per-proposal allocation *count* constant-ish — measured ~71
// allocs at 32 processors vs ~76 at 2048. A regression that
// reintroduces a per-function or per-resource allocation — a clone, a
// map rebuild, a per-entry box — blows the ratio up by orders of
// magnitude, so the 2x bound below is loose against noise yet tight
// against any real O(platform) regression. The *bytes* per proposal are
// bounded the same way: a platform-sized structure rebuilt once per
// proposal (say, a function index dropped by a removal and rebuilt by
// the next lookup) costs a few allocations but many bytes, invisible
// to the count alone.

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

// perProposal measures the steady-state allocations and heap bytes of
// one proposal of the given pair.
func perProposal(pair func()) (allocs, bytes float64) {
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
	return float64(after.Mallocs-before.Mallocs) / (2 * pairs),
		float64(after.TotalAlloc-before.TotalAlloc) / (2 * pairs)
}

func TestProposalAllocsFlatAcrossPlatformSize(t *testing.T) {
	shapes := []struct {
		name string
		pair func(*testing.T, *mcc.MCC, *Fleet) func()
	}{
		{"update toggle", updateTogglePair},
		{"telemetry add/remove", telemetryPair},
	}
	const small, big = 32, 2048
	type cost struct{ allocs, bytes float64 }
	costs := make(map[int][]cost)
	for _, procs := range []int{small, big} {
		m, fleet := deployGenerated(t, procs)
		for _, s := range shapes {
			a, b := perProposal(s.pair(t, m, fleet))
			costs[procs] = append(costs[procs], cost{a, b})
		}
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
	}
}
