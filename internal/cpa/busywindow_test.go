package cpa

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// coldBusyWindow is busyWindow with every activation's fixed point
// started from the workload equation's constant term, the iteration the
// warm start of fixedPoint is held to.
func coldBusyWindow(t Task, hp []Task, blocking int64, nonPreemptive bool) (int64, int, bool) {
	var wcrt int64
	for q := int64(1); ; q++ {
		if q > iterationCap {
			return 0, int(q), false
		}
		base := q * t.WCETUS
		if nonPreemptive {
			base = blocking + (q-1)*t.WCETUS
		}
		w, ok := max(base, 1), false
		for iter := 0; iter < iterationCap && !ok; iter++ {
			next := base
			for _, j := range hp {
				if nonPreemptive {
					next += j.Event.EtaPlus(w+1) * j.WCETUS
				} else {
					next += j.Event.EtaPlus(w) * j.WCETUS
				}
			}
			w, ok = next, next == w
		}
		if !ok {
			return 0, int(q), false
		}
		resp, busyEnd := w+t.Event.JitterUS-(q-1)*t.Event.PeriodUS, w
		if nonPreemptive {
			resp, busyEnd = resp+t.WCETUS, busyEnd+t.WCETUS
		}
		wcrt = max(wcrt, resp)
		if busyEnd <= q*t.Event.PeriodUS-t.Event.JitterUS {
			return wcrt, int(q), true
		}
	}
}

// coldResults is what analyze returns with coldBusyWindow in place of
// busyWindow.
func coldResults(tasks []Task, nonPreemptive bool) []Result {
	sorted := slices.SortedFunc(slices.Values(tasks), func(a, b Task) int { return cmp.Compare(a.Priority, b.Priority) })
	out := make([]Result, 0, len(sorted))
	for i, t := range sorted {
		res := Result{Name: t.Name, DeadlineUS: t.DeadlineUS, UtilizationPPM: taskUtilPPM(t)}
		if Utilization(sorted[:i+1]) < 1_000_000 {
			var blocking int64
			if nonPreemptive {
				for _, lp := range sorted[i+1:] {
					blocking = max(blocking, lp.WCETUS)
				}
			}
			res.WCRTUS, res.BusyWindows, res.Converged = coldBusyWindow(t, sorted[:i], blocking, nonPreemptive)
			res.Schedulable = res.Converged && res.WCRTUS <= t.DeadlineUS
		}
		out = append(out, res)
	}
	return out
}

// randomTaskSet draws 1–8 tasks of periods up to 2 ms, some with jitter, whose
// utilizations sum to about target (each WCET rounds down, at least 1 µs).
func randomTaskSet(r *rand.Rand, target float64) []Task {
	n := 1 + r.IntN(8)
	shares := make([]float64, n)
	sum := 0.0
	for i := range shares {
		shares[i] = r.Float64() + 0.05
		sum += shares[i]
	}
	tasks := make([]Task, n)
	for i, prio := range r.Perm(n) {
		period := int64(20 + r.IntN(1980))
		var jitter int64
		if r.IntN(3) == 0 {
			jitter = r.Int64N(period)
		}
		tasks[i] = Task{
			Name:       fmt.Sprintf("t%d", i),
			Priority:   prio,
			WCETUS:     max(1, int64(target*shares[i]/sum*float64(period))),
			Event:      EventModel{PeriodUS: period, JitterUS: jitter},
			DeadlineUS: period + jitter,
		}
	}
	return tasks
}

// Starting each activation's fixed point from the previous activation's
// changes no result: on random SPP and SPNP task sets, near-saturated ones
// included, AnalyzeSPP and AnalyzeSPNP equal the cold-start iteration
// field by field.
func TestBusyWindowWarmStartMatchesColdStart(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	multi := 0 // results of more than one activation: the warm start ran
	for i := range 400 {
		target := 0.3 + 0.65*r.Float64()
		if i%2 == 0 {
			target = 0.95 + 0.0499*r.Float64() // near saturation
		}
		tasks := randomTaskSet(r, target)
		for _, np := range []bool{false, true} {
			got, err := analyze(tasks, np)
			if err != nil {
				t.Fatalf("set %d (%+v): %v", i, tasks, err)
			}
			want := coldResults(tasks, np)
			if len(got) != len(want) {
				t.Fatalf("set %d: %d results, want %d", i, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("set %d nonPreemptive=%v task %d:\ngot  %+v\nwant %+v\ntasks %+v", i, np, k, got[k], want[k], tasks)
				}
				if want[k].BusyWindows > 1 {
					multi++
				}
			}
		}
	}
	if multi < 100 {
		t.Fatalf("only %d results span more than one activation", multi)
	}
	t.Logf("%d results span more than one activation", multi)
}
