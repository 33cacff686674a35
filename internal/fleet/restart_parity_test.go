package fleet

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/mcc"
	"repro/internal/model"
)

// Restart-parity tier: a fleetd killed and restarted mid-stream (warm
// analyzer cache + committed state rebuilt from the journal) must
// produce decisions identical to an uninterrupted serial oracle, and a
// torn or corrupt cache file must fall back to a cold start cleanly.

// runFleetSplit decides each vehicle's stream with a server restart
// after the first `split` changes, returning the concatenated decisions
// per vehicle.
func runFleetSplit(t *testing.T, dir string, vehicles []string, streams map[string][]mcc.Change, split int) map[string][]Decision {
	t.Helper()
	cfg := Config{
		CachePath:   filepath.Join(dir, "analyzer.cache"),
		JournalPath: filepath.Join(dir, "fleet.journal"),
	}
	decisions := make(map[string][]Decision)

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1.WarmStarted() {
		t.Fatal("first session reported a warm cache")
	}
	for _, id := range vehicles {
		if err := s1.AddVehicle(id, fleetPlatform(), fleetBaseline()); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range vehicles {
		for _, c := range streams[id][:split] {
			decisions[id] = append(decisions[id], s1.Propose(context.Background(), id, c))
		}
	}
	if rep := s1.Drain(); !rep.CacheSaved {
		t.Fatalf("drain did not persist the analyzer cache: %+v", rep)
	}

	// "Restart": a fresh process image on the same cache + journal.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if !s2.WarmStarted() {
		t.Fatal("second session did not warm-start from the persisted cache")
	}
	if got := s2.Vehicles(); !reflect.DeepEqual(got, vehicles) {
		t.Fatalf("recovered vehicles %v, want %v", got, vehicles)
	}
	if st := s2.Analyzer().Stats(); st.Entries == 0 {
		t.Fatal("warm-started analyzer holds no entries")
	}
	for _, id := range vehicles {
		for _, c := range streams[id][split:] {
			decisions[id] = append(decisions[id], s2.Propose(context.Background(), id, c))
		}
	}
	return decisions
}

func TestFleetRestartMidStreamMatchesUninterruptedOracle(t *testing.T) {
	vehicles := []string{"v0", "v1"}
	const n, split = 12, 7
	streams := map[string][]mcc.Change{
		"v0": fleetChanges("v0", n),
		"v1": fleetChanges("v1", n),
	}
	decisions := runFleetSplit(t, t.TempDir(), vehicles, streams, split)
	for _, id := range vehicles {
		assertDecisionParity(t, id, decisions[id], oracleReports(t, streams[id]))
	}
}

// Several restart points, including immediately after registration and
// after the whole stream: the kill-and-recover corpus.
func TestFleetRestartParityCorpus(t *testing.T) {
	const n = 10
	for _, split := range []int{0, 1, 5, n} {
		t.Run(splitName(split), func(t *testing.T) {
			vehicles := []string{"v0", "v1", "v2"}
			streams := make(map[string][]mcc.Change)
			for _, id := range vehicles {
				streams[id] = fleetChanges(id, n)
			}
			decisions := runFleetSplit(t, t.TempDir(), vehicles, streams, split)
			for _, id := range vehicles {
				assertDecisionParity(t, id, decisions[id], oracleReports(t, streams[id]))
			}
		})
	}
}

func splitName(split int) string {
	return "split-" + string(rune('0'+split/10)) + string(rune('0'+split%10))
}

// A torn or corrupt analyzer cache file must fall back to a cold start
// cleanly: New succeeds, decisions are unaffected (the cache is a pure
// performance artifact), and the next drain rewrites a good file.
func TestFleetCorruptCacheFallsBackCold(t *testing.T) {
	dir := t.TempDir()
	cachePath := filepath.Join(dir, "analyzer.cache")
	if err := os.WriteFile(cachePath, []byte("not a gob stream at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{CachePath: cachePath})
	if err != nil {
		t.Fatalf("corrupt cache file failed the boot: %v", err)
	}
	if s.WarmStarted() {
		t.Fatal("corrupt cache reported as warm start")
	}
	if err := s.AddVehicle("v0", fleetPlatform(), fleetBaseline()); err != nil {
		t.Fatal(err)
	}
	changes := fleetChanges("v0", 6)
	var got []Decision
	for _, c := range changes {
		got = append(got, s.Propose(context.Background(), "v0", c))
	}
	assertDecisionParity(t, "v0", got, oracleReports(t, changes))
	if rep := s.Drain(); !rep.CacheSaved {
		t.Fatalf("drain did not rewrite the cache: %+v", rep)
	}
	// The rewritten file is a valid warm-start tier again.
	s2, err := New(Config{CachePath: cachePath})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain()
	if !s2.WarmStarted() {
		t.Fatal("rewritten cache did not warm-start")
	}
}

// A torn journal tail (crash mid-append) recovers the committed prefix;
// the restarted server keeps serving the affected vehicle from that
// prefix.
func TestFleetTornJournalTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JournalPath: filepath.Join(dir, "fleet.journal")}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.AddVehicle("v0", fleetPlatform(), fleetBaseline()); err != nil {
		t.Fatal(err)
	}
	changes := fleetChanges("v0", 5)
	accepted := 0
	for _, c := range changes {
		if s1.Propose(context.Background(), "v0", c).Verdict == Accepted {
			accepted++
		}
	}
	s1.Drain()

	// Simulate a crash mid-append.
	f, err := os.OpenFile(cfg.JournalPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x10, 0x00, 0x01})
	f.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("torn journal failed the boot: %v", err)
	}
	defer s2.Drain()
	if got := s2.Vehicles(); !reflect.DeepEqual(got, []string{"v0"}) {
		t.Fatalf("recovered vehicles %v", got)
	}
	// The recovered vehicle serves new work; its committed prefix held.
	extra := fleetFn("v0-post", model.QM, 150000, 500, 64)
	d := s2.Propose(context.Background(), "v0", mcc.Change{Update: &extra})
	if d.Verdict != Accepted {
		t.Fatalf("post-recovery proposal = %s: %+v", d.Verdict, d.Report)
	}
}

// A change whose journal append fails is not replied "accepted": the
// vehicle is brought back to its journaled trajectory, the counters agree
// with the replies, and the vehicle then decides the next change exactly
// as a server restarted from the journal does.
func TestFleetFailedJournalAppendIsNotAccepted(t *testing.T) {
	cfg := Config{JournalPath: filepath.Join(t.TempDir(), "fleet.journal")}
	s := newTestServer(t, cfg, "v0")
	changes := fleetChanges("v0", 4) // four feasible telemetry adds
	ctx := context.Background()
	for i, c := range changes[:2] {
		if d := s.Propose(ctx, "v0", c); d.Verdict != Accepted {
			t.Fatalf("change %d: verdict %s before the journal failed", i, d.Verdict)
		}
	}
	if err := s.journal.f.Close(); err != nil { // the journal file fails under the live server
		t.Fatal(err)
	}
	d := s.Propose(ctx, "v0", changes[2])
	if d.Verdict == Accepted {
		t.Fatal("a change the journal could not record was replied accepted")
	}
	if d.Verdict != RejectedJournal || d.Report != nil {
		t.Fatalf("failed append replied %s (report %v), want %s without a report", d.Verdict, d.Report, RejectedJournal)
	}
	if st := s.Stats(); st.Decided != 3 || st.Accepted != 2 || st.Rejected != 1 {
		t.Fatalf("stats decided/accepted/rejected %d/%d/%d, want 3/2/1 as replied", st.Decided, st.Accepted, st.Rejected)
	}

	restarted, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Drain()
	live, twin := s.vehicles["v0"].m, restarted.vehicles["v0"].m
	if !reflect.DeepEqual(live.Deployed(), twin.Deployed()) {
		t.Fatalf("live vehicle diverges from its journal:\nlive     %+v\njournal  %+v", live.Deployed(), twin.Deployed())
	}
	next := *changes[3].Update
	got, want := live.ProposeUpdate(next), twin.ProposeUpdate(next)
	if got.Accepted != want.Accepted || got.RejectedAt != want.RejectedAt || !reflect.DeepEqual(got.Findings, want.Findings) {
		t.Fatalf("next change decided accepted=%v at %q %v, restarted server accepted=%v at %q %v",
			got.Accepted, got.RejectedAt, got.Findings, want.Accepted, want.RejectedAt, want.Findings)
	}
	if !reflect.DeepEqual(got.FullTiming(), want.FullTiming()) || !reflect.DeepEqual(got.FullMonitors(), want.FullMonitors()) {
		t.Fatal("next change committed tables that differ from the restarted server's")
	}
}
