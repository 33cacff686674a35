package fleet

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mcc"
	"repro/internal/model"
)

// Fleet lifecycle tier: bulkhead isolation, backpressure, supervised
// restart, parking, and graceful drain. Run under -race in CI — the
// server is exercised from many goroutines on purpose.

func fleetPlatform() *model.Platform {
	return &model.Platform{
		Processors: []model.Processor{
			{Name: "ecu-safe", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD},
			{Name: "ecu-safe2", Policy: model.SPP, SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD},
			{Name: "ecu-perf", Policy: model.SPP, SpeedFactor: 2.0, RAMKiB: 8192, MaxSafety: model.ASILB},
		},
		Networks: []model.Network{
			{Name: "can0", BitsPerSec: 500_000, Attached: []string{"ecu-safe", "ecu-safe2", "ecu-perf"}, Kind: "can"},
		},
	}
}

func fleetFn(name string, safetyLvl model.SafetyLevel, periodUS, wcetUS, ram int64) model.Function {
	return model.Function{
		Name: name,
		Contract: model.Contract{
			Safety:    safetyLvl,
			RealTime:  model.RealTimeContract{PeriodUS: periodUS, WCETUS: wcetUS},
			Resources: model.ResourceContract{RAMKiB: ram},
		},
	}
}

func fleetBaseline() *model.FunctionalArchitecture {
	return &model.FunctionalArchitecture{
		Functions: []model.Function{
			fleetFn("brake", model.ASILD, 5000, 500, 128),
			fleetFn("acc", model.ASILC, 10000, 1500, 256),
		},
	}
}

// fleetChanges is a deterministic per-vehicle stream: mostly feasible
// telemetry adds with a contract violation every fifth change, so both
// verdict kinds appear.
func fleetChanges(vehicle string, n int) []mcc.Change {
	out := make([]mcc.Change, 0, n)
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			f := fleetFn(fmt.Sprintf("%s-bad%02d", vehicle, i), model.QM, 1000, 5000, 64)
			out = append(out, mcc.Change{Update: &f})
			continue
		}
		f := fleetFn(fmt.Sprintf("%s-telem%02d", vehicle, i), model.QM, 100000+int64(i)*10000, 800, 64)
		out = append(out, mcc.Change{Update: &f})
	}
	return out
}

// oracleReports decides the stream on a standalone, never-restarted MCC
// (same options as a fleet vehicle, minus the shared analyzer).
func oracleReports(t *testing.T, changes []mcc.Change) []*mcc.Report {
	t.Helper()
	m, err := mcc.New(fleetPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.ProposeArchitecture(fleetBaseline()); !rep.Accepted {
		t.Fatalf("oracle baseline rejected: %v", rep.Findings)
	}
	out := make([]*mcc.Report, 0, len(changes))
	for _, c := range changes {
		if c.Update != nil {
			out = append(out, m.ProposeUpdate(*c.Update))
		} else {
			out = append(out, m.ProposeRemoval(c.Remove))
		}
	}
	return out
}

// assertDecisionParity requires verdict + findings bit-parity between a
// vehicle's fleet decisions and its standalone oracle.
func assertDecisionParity(t *testing.T, vehicle string, got []Decision, want []*mcc.Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d decisions for %d changes (lost or duplicated)", vehicle, len(got), len(want))
	}
	for i := range want {
		d := got[i]
		wantVerdict := Rejected
		if want[i].Accepted {
			wantVerdict = Accepted
		}
		if d.Verdict != wantVerdict {
			t.Fatalf("%s change %d: verdict %s, oracle %s", vehicle, i, d.Verdict, wantVerdict)
		}
		if d.Report == nil {
			t.Fatalf("%s change %d: decided without a report", vehicle, i)
		}
		if !reflect.DeepEqual(d.Report.Findings, want[i].Findings) {
			t.Fatalf("%s change %d: findings diverge from oracle:\ngot  %v\nwant %v",
				vehicle, i, d.Report.Findings, want[i].Findings)
		}
	}
}

func newTestServer(t *testing.T, cfg Config, vehicles ...string) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range vehicles {
		if err := s.AddVehicle(id, fleetPlatform(), fleetBaseline()); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { s.Drain() })
	return s
}

func TestFleetServesTenantsWithOracleParity(t *testing.T) {
	s := newTestServer(t, Config{}, "v0", "v1", "v2")
	const n = 10
	decisions := make(map[string][]Decision)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range s.Vehicles() {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			var got []Decision
			for _, c := range fleetChanges(id, n) {
				got = append(got, s.Propose(context.Background(), id, c))
			}
			mu.Lock()
			decisions[id] = got
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	for _, id := range s.Vehicles() {
		assertDecisionParity(t, id, decisions[id], oracleReports(t, fleetChanges(id, n)))
	}
	st := s.Stats()
	if st.Decided != 3*n || st.Shed != 0 {
		t.Fatalf("stats = %+v, want %d decided, 0 shed", st, 3*n)
	}
	if st.Analyzer.Hits == 0 {
		t.Fatal("same-model vehicles shared no analysis through the fleet analyzer")
	}
}

func TestFleetAdmissionRejections(t *testing.T) {
	s := newTestServer(t, Config{}, "v0")
	c := fleetChanges("x", 1)[0]
	if d := s.Propose(context.Background(), "ghost", c); d.Verdict != RejectedUnknown {
		t.Fatalf("unknown vehicle verdict = %s", d.Verdict)
	}
	if err := s.AddVehicle("v0", fleetPlatform(), fleetBaseline()); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := s.AddVehicle("", fleetPlatform(), fleetBaseline()); err == nil {
		t.Fatal("empty vehicle id accepted")
	}
}

func TestFleetBackpressureShedsInsteadOfHanging(t *testing.T) {
	inj := faultinject.New(7, faultinject.Rule{
		Stage: "fleet.worker", Mode: faultinject.ModeSlow, StallUS: 20_000,
	})
	s := newTestServer(t, Config{MaxInFlight: 2, QueueDepth: 1, Injector: inj}, "v0")

	const offered = 12
	verdicts := make(chan Verdict, offered)
	var wg sync.WaitGroup
	for i := 0; i < offered; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := fleetChanges("v0", offered)[i]
			verdicts <- s.Propose(context.Background(), "v0", c).Verdict
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("overloaded fleet hung a Propose call")
	}
	close(verdicts)
	shed, decided := 0, 0
	for v := range verdicts {
		switch v {
		case RejectedOverload:
			shed++
		case Accepted, Rejected:
			decided++
		default:
			t.Fatalf("unexpected verdict under overload: %s", v)
		}
	}
	if shed == 0 {
		t.Fatal("overload shed nothing despite budget 2 and 12 offered")
	}
	if shed+decided != offered {
		t.Fatalf("%d shed + %d decided != %d offered", shed, decided, offered)
	}
	st := s.Stats()
	if st.Shed != int64(shed) || st.Decided != int64(decided) {
		t.Fatalf("stats %+v disagree with observed shed=%d decided=%d", st, shed, decided)
	}
}

func TestFleetQueueFaultShedsOnlyTargetTenant(t *testing.T) {
	inj := faultinject.New(3, faultinject.Rule{
		Stage: "fleet.queue", Resource: "v1", Mode: faultinject.ModeError,
	})
	s := newTestServer(t, Config{Injector: inj}, "v0", "v1")
	c := fleetChanges("q", 1)[0]
	if d := s.Propose(context.Background(), "v1", c); d.Verdict != RejectedOverload {
		t.Fatalf("faulted admission verdict = %s, want %s", d.Verdict, RejectedOverload)
	}
	if d := s.Propose(context.Background(), "v0", c); d.Verdict != Accepted {
		t.Fatalf("healthy tenant verdict = %s, want %s", d.Verdict, Accepted)
	}
}

// The core bulkhead property: a tenant that crashes repeatedly is
// restarted (its in-flight request redelivered, never lost or decided
// twice) and every OTHER tenant's decisions stay bit-identical to a
// fault-free oracle — zero blast radius.
func TestFleetCrashRestartBlastRadiusZero(t *testing.T) {
	inj := faultinject.New(11, faultinject.Rule{
		Stage: "fleet.worker", Resource: "v-faulty", Mode: faultinject.ModePanic, Every: 3, Count: 4,
	})
	s := newTestServer(t, Config{
		Injector:       inj,
		RestartBackoff: time.Millisecond,
		MaxRestarts:    10,
	}, "v-faulty", "v0", "v1")

	const n = 15
	decisions := make(map[string][]Decision)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, id := range s.Vehicles() {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			var got []Decision
			for _, c := range fleetChanges(id, n) {
				got = append(got, s.Propose(context.Background(), id, c))
			}
			mu.Lock()
			decisions[id] = got
			mu.Unlock()
		}(id)
	}
	wg.Wait()

	st := s.Stats()
	if st.Crashes == 0 || st.Restarts == 0 {
		t.Fatalf("fault rule never crashed the worker: %+v", st)
	}
	if st.Parked != 0 {
		t.Fatalf("vehicle parked despite crash budget %d: %+v", 10, st)
	}
	// Every tenant — including the crashed-and-rebuilt one — must match
	// its oracle decision for every change. The healthy tenants prove the
	// blast radius is zero; the faulty one proves redelivery after the
	// rebuild loses and duplicates nothing.
	for _, id := range s.Vehicles() {
		assertDecisionParity(t, id, decisions[id], oracleReports(t, fleetChanges(id, n)))
	}
}

func TestFleetParksAfterCrashBudget(t *testing.T) {
	inj := faultinject.New(5, faultinject.Rule{
		Stage: "fleet.worker", Resource: "v-dead", Mode: faultinject.ModePanic,
	})
	s := newTestServer(t, Config{
		Injector:       inj,
		RestartBackoff: time.Millisecond,
		MaxRestarts:    2,
	}, "v-dead", "v0")

	c := fleetChanges("p", 1)[0]
	if d := s.Propose(context.Background(), "v-dead", c); d.Verdict != RejectedParked {
		t.Fatalf("crashing tenant verdict = %s, want %s", d.Verdict, RejectedParked)
	}
	// Parked is terminal: admission rejects without consuming budget.
	if d := s.Propose(context.Background(), "v-dead", c); d.Verdict != RejectedParked {
		t.Fatalf("parked tenant verdict = %s, want %s", d.Verdict, RejectedParked)
	}
	st := s.Stats()
	if st.Parked != 1 || st.Crashes != 3 {
		t.Fatalf("stats = %+v, want 1 parked after 3 crashes (budget 2)", st)
	}
	// The other bulkhead is untouched.
	if d := s.Propose(context.Background(), "v0", c); d.Verdict != Accepted {
		t.Fatalf("healthy tenant verdict = %s after peer parked", d.Verdict)
	}
	if rep := s.Drain(); rep.Parked != 1 {
		t.Fatalf("drain report %+v, want 1 parked", rep)
	}
}

// Drain must flush every admitted request to a real decision and refuse
// new intake — an accepted in-flight decision is never lost.
func TestFleetDrainFlushesAdmittedRequests(t *testing.T) {
	inj := faultinject.New(9, faultinject.Rule{
		Stage: "fleet.worker", Mode: faultinject.ModeSlow, StallUS: 10_000,
	})
	s := newTestServer(t, Config{QueueDepth: 8, Injector: inj}, "v0")

	const n = 6
	changes := fleetChanges("v0", n)
	decisions := make(chan Decision, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			decisions <- s.Propose(context.Background(), "v0", changes[i])
		}(i)
	}
	// Give the requests time to be admitted, then drain concurrently.
	time.Sleep(5 * time.Millisecond)
	rep := s.Drain()
	wg.Wait()
	close(decisions)

	admitted := 0
	for d := range decisions {
		switch d.Verdict {
		case Accepted, Rejected:
			admitted++
			if d.Report == nil {
				t.Fatal("flushed decision carries no report")
			}
		case RejectedDraining, RejectedOverload:
			// Not admitted before the drain (or shed) — allowed.
		default:
			t.Fatalf("unexpected verdict during drain: %s", d.Verdict)
		}
	}
	if st := s.Stats(); int64(admitted) != st.Decided {
		t.Fatalf("%d admitted decisions vs %d decided in stats", admitted, st.Decided)
	}
	if rep.Flushed < 0 || rep.Shed != s.Stats().Shed {
		t.Fatalf("drain report %+v inconsistent with stats %+v", rep, s.Stats())
	}
	// Intake is closed for good.
	if d := s.Propose(context.Background(), "v0", changes[0]); d.Verdict != RejectedDraining {
		t.Fatalf("post-drain verdict = %s, want %s", d.Verdict, RejectedDraining)
	}
	if err := s.AddVehicle("late", fleetPlatform(), fleetBaseline()); err == nil {
		t.Fatal("post-drain registration accepted")
	}
	// Idempotent.
	if rep2 := s.Drain(); rep2 != rep {
		t.Fatalf("second drain report %+v != first %+v", rep2, rep)
	}
}

// Per-request deadline semantics propagate end to end: a stalled tenant
// worker is bounded by the request context, and the expired context
// resolves the proposal as a deterministic deadline rejection — never a
// hang.
func TestFleetRequestDeadlineBoundsStalledWorker(t *testing.T) {
	inj := faultinject.New(13, faultinject.Rule{
		Stage: "fleet.worker", Mode: faultinject.ModeStall,
		StallUS: int64(10 * time.Second / time.Microsecond),
	})
	s := newTestServer(t, Config{Injector: inj}, "v0")
	c := fleetChanges("d", 1)[0]
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	d := s.Propose(ctx, "v0", c)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled proposal took %v despite 20ms request deadline", elapsed)
	}
	if d.Verdict != Rejected || d.Report == nil || !d.Report.Degraded {
		t.Fatalf("stalled proposal = %s (report %+v), want degraded rejection", d.Verdict, d.Report)
	}
	var hasDeadline bool
	for _, r := range d.Report.DegradedReasons {
		hasDeadline = hasDeadline || r == "deadline"
	}
	if !hasDeadline {
		t.Fatalf("degraded reasons %v missing \"deadline\"", d.Report.DegradedReasons)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitingForTurn counts the goroutines blocked on a vehicle's turn.
func waitingForTurn() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[chan send") && strings.Contains(g, "fleet.(*Server).decide(") {
			n++
		}
	}
	return n
}

// A proposal decides on its caller's goroutine: registering vehicles and
// deciding on each starts no goroutine that outlives the call, and Drain
// has none to stop.
func TestFleetStartsNoGoroutinePerVehicle(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	for i := 0; i < 32; i++ {
		if err := s.AddVehicle(fmt.Sprintf("v%02d", i), fleetPlatform(), fleetBaseline()); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range s.Vehicles() {
		if d := s.Propose(context.Background(), id, fleetChanges(id, 1)[0]); d.Verdict != Accepted {
			t.Fatalf("%s: verdict %s, want %s", id, d.Verdict, Accepted)
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines rose from %d to %d after 32 decisions", before, n)
	}
	s.Drain()
	waitFor(t, fmt.Sprintf("goroutines to return to %d after Drain", before), func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// A vehicle admits at most QueueDepth waiting proposals plus the one
// deciding; the rest shed at admission.
func TestFleetAdmitsQueueDepthPlusOne(t *testing.T) {
	inj := faultinject.New(17, faultinject.Rule{
		Stage: "fleet.worker", Mode: faultinject.ModeStall, Count: 1,
		StallUS: int64(10 * time.Second / time.Microsecond),
	})
	s := newTestServer(t, Config{QueueDepth: 3, Injector: inj}, "v0")
	v := s.vehicles["v0"]

	const callers = 10
	changes := fleetChanges("v0", callers)
	verdicts := make(chan Verdict, callers)
	var wg sync.WaitGroup
	propose := func(ctx context.Context, i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			verdicts <- s.Propose(ctx, "v0", changes[i]).Verdict
		}()
	}
	// The first caller's decision stalls in the fleet.worker hook until
	// its context is cancelled, after every other caller was admitted or
	// shed.
	hold, release := context.WithCancel(context.Background())
	defer release()
	propose(hold, 0)
	waitFor(t, "the first decision to stall", func() bool { return inj.TotalFired() == 1 })
	for i := 1; i < callers; i++ {
		propose(context.Background(), i)
	}
	waitFor(t, "every caller to be admitted or shed", func() bool {
		return s.Stats().Shed+v.pending.Load() == callers
	})
	release()
	wg.Wait()
	close(verdicts)

	decided, shed := 0, 0
	for vd := range verdicts {
		switch vd {
		case Accepted, Rejected:
			decided++
		case RejectedOverload:
			shed++
		default:
			t.Fatalf("unexpected verdict %s", vd)
		}
	}
	if decided != 4 || shed != 6 {
		t.Fatalf("%d decided and %d shed, want 4 and 6 (QueueDepth 3 plus the one deciding)", decided, shed)
	}
	if st := s.Stats(); st.Decided != 4 || st.Shed != 6 {
		t.Fatalf("stats %+v disagree with 4 decided and 6 shed", st)
	}
}

// Proposals waiting behind a stalled decision take the vehicle's turn in
// the order they arrived.
func TestFleetWaitingRequestsDecideInArrivalOrder(t *testing.T) {
	inj := faultinject.New(19, faultinject.Rule{
		Stage: "fleet.worker", Mode: faultinject.ModeStall, Count: 1,
		StallUS: int64(10 * time.Second / time.Microsecond),
	})
	s := newTestServer(t, Config{Injector: inj}, "v0")
	v := s.vehicles["v0"]

	hold, release := context.WithCancel(context.Background())
	defer release()
	var wg sync.WaitGroup
	propose := func(ctx context.Context, c mcc.Change) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d := s.Propose(ctx, "v0", c); d.Report == nil {
				t.Errorf("%s: verdict %s without a decision", c, d.Verdict)
			}
		}()
	}
	propose(hold, fleetChanges("held", 1)[0])
	waitFor(t, "the first decision to stall", func() bool { return inj.TotalFired() == 1 })
	var want []string
	for i := 0; i < 6; i++ {
		f := fleetFn(fmt.Sprintf("order%d", i), model.QM, 100000+int64(i)*10000, 800, 64)
		want = append(want, f.Name)
		propose(context.Background(), mcc.Change{Update: &f})
		// The next caller arrives only once this one waits for the turn.
		waitFor(t, fmt.Sprintf("caller %d to wait for the turn", i), func() bool { return waitingForTurn() == i+1 })
	}
	// The held decision expires into a deadline rejection, then the
	// waiting callers decide, each committing its function.
	release()
	wg.Wait()
	var got []string
	for _, c := range v.committed {
		got = append(got, c.Update.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("committed in order %v, want arrival order %v", got, want)
	}
}

// Drain does not wait out a crashed vehicle's restart backoff, and every
// caller admitted before it still gets a reply.
func TestFleetDrainCutsCrashBackoff(t *testing.T) {
	inj := faultinject.New(23, faultinject.Rule{
		Stage: "fleet.worker", Mode: faultinject.ModePanic, Count: 1,
	})
	s := newTestServer(t, Config{Injector: inj, RestartBackoff: 10 * time.Second}, "v0")
	v := s.vehicles["v0"]

	const callers = 3
	changes := fleetChanges("v0", callers)
	decisions := make([]Decision, callers)
	var wg sync.WaitGroup
	propose := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			decisions[i] = s.Propose(context.Background(), "v0", changes[i])
		}()
	}
	propose(0)
	waitFor(t, "the first decision to crash", func() bool { return s.Stats().Crashes == 1 })
	for i := 1; i < callers; i++ {
		propose(i)
	}
	waitFor(t, "every caller to be admitted", func() bool { return v.pending.Load() == callers })

	start := time.Now()
	s.Drain()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("drain took %v behind a crashed vehicle's restart backoff", elapsed)
	}
	wg.Wait()
	// The crashed caller is retried on the rebuilt vehicle; only if the
	// drain began before its backoff did is it resolved as parked. The
	// callers behind it decide.
	if vd := decisions[0].Verdict; vd != Accepted && vd != RejectedParked {
		t.Fatalf("crashed caller verdict %s, want %s or %s", vd, Accepted, RejectedParked)
	}
	for i := 1; i < callers; i++ {
		if d := decisions[i]; d.Report == nil {
			t.Fatalf("caller %d: verdict %s without a decision", i, d.Verdict)
		}
	}
}

// BackoffTestCase is one restart-delay row: the configured base, the
// consecutive crash count, and the delay the supervisor must sleep.
type BackoffTestCase struct {
	name    string
	base    time.Duration
	crashes int
	want    time.Duration
}

// The restart delay doubles from the configured base and caps at
// max(2s, base): a base above the cap is slept as configured. The table
// computes the delays and sleeps none of them.
func TestBackoffDelay(t *testing.T) {
	var tt []BackoffTestCase

	tt = append(tt, BackoffTestCase{name: "first crash sleeps the base", base: 10 * time.Millisecond, crashes: 1, want: 10 * time.Millisecond})
	tt = append(tt, BackoffTestCase{name: "doubles per crash", base: 10 * time.Millisecond, crashes: 3, want: 40 * time.Millisecond})
	tt = append(tt, BackoffTestCase{name: "caps at 2s", base: 10 * time.Millisecond, crashes: 20, want: 2 * time.Second})
	tt = append(tt, BackoffTestCase{name: "large base is not shortened", base: 10 * time.Second, crashes: 1, want: 10 * time.Second})
	tt = append(tt, BackoffTestCase{name: "large base is its own cap", base: 10 * time.Second, crashes: 4, want: 10 * time.Second})
	tt = append(tt, BackoffTestCase{name: "shift overflow caps", base: time.Millisecond, crashes: 70, want: 2 * time.Second})

	for _, tc := range tt {
		t.Run(tc.name, func(t *testing.T) {
			if got := backoffDelay(tc.base, tc.crashes); got != tc.want {
				t.Fatalf("backoffDelay(%v, %d) = %v, want %v", tc.base, tc.crashes, got, tc.want)
			}
		})
	}
}
