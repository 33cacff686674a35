package scenario

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/mcc"
	"repro/internal/model"
)

// Golden decision logs: generated change streams at every benchmarked
// platform size, decided once and committed as one line per change. The
// E13 log holds the E13 streams as generated (DefaultFleetSpec); the mixed
// log adds cross-domain clients and near-capacity heavy adds to the same
// fleets, so it also reaches the paths the E13 streams never do:
// connection rebuilds, security rejections, and stream windows that fail
// a deferred timing verdict and replay. Each line hashes the change's
// verdict and findings, and — for accepted changes — the whole committed
// WCRT table and monitor plan the report binds (FullTiming/FullMonitors).
// Every engine — the from-scratch serial oracle included, since it
// places by the engine's policy — replays the log and must reproduce it
// line for line, so a core rewrite is held to the decisions of the code
// before it at the platform sizes the benchmarks run, not only on the
// small fuzz fleets of the parity corpus. The E14 column replays the logs
// under the worker-panic fault rule: every faulted proposal is re-decided
// on the pinned path, and the lines must still equal the clean log's. The
// restart column decides the E13 log through a fleet server that restarts
// from its commit journal mid-stream, and its lines must equal the log's
// too.
//
// Regenerate with
//
//	go test -run TestGoldenDecisionLog ./internal/scenario/ -update-golden
//
// only together with a CHANGES.md entry naming every changed line and why
// it changed.

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/golden_e13*.txt logs from the full-incremental engine")

const goldenChanges = 64

// goldenLog is one committed log: its file, its header, the subtest name
// prefix of its replays, and the fleet and change stream it decides at a
// platform size.
type goldenLog struct {
	path, header, prefix string
	stream               func(procs int) (*Fleet, []mcc.Change)
}

var goldenLogs = []goldenLog{
	{
		path:   "testdata/golden_e13.txt",
		header: "# E13 golden decision log: scenario.DefaultFleetSpec streams, 64 changes per size.\n",
		stream: func(procs int) (*Fleet, []mcc.Change) {
			fleet := GenFleet(DefaultFleetSpec(procs))
			return fleet, fleet.Changes(goldenChanges)
		},
	},
	{
		path:   "testdata/golden_e13_mixed.txt",
		header: "# Mixed golden decision log: scenario.DefaultFleetSpec with Mix.CrossDomain = 2, every 16th change from index 10 a heavy ASIL-D add, 64 changes per size.\n",
		prefix: "mixed/",
		stream: func(procs int) (*Fleet, []mcc.Change) {
			spec := DefaultFleetSpec(procs)
			spec.Mix.CrossDomain = 2
			fleet := GenFleet(spec)
			changes := fleet.Changes(goldenChanges)
			for i := 10; i < len(changes); i += 16 {
				changes[i] = goldenHeavy(i)
			}
			return fleet, changes
		},
	},
	{
		path:   "testdata/golden_e13_replicated.txt",
		header: "# Replicated golden decision log: scenario.DefaultFleetSpec streams with Replicas: 2 on every 5th baseline function, 64 changes per size.\n",
		prefix: "replicated/",
		stream: func(procs int) (*Fleet, []mcc.Change) {
			fleet := GenFleet(DefaultFleetSpec(procs))
			replicateEvery5th(fleet)
			return fleet, fleet.Changes(goldenChanges)
		},
	},
}

// goldenHeavy is a near-capacity ASIL-D add: 55-70% of a lockstep core at
// a 10 ms period with an implicit deadline. Its 5 ms release jitter makes
// it miss that deadline wherever it is placed, so a stream window fails
// its deferred timing verdict and replays.
func goldenHeavy(i int) mcc.Change {
	fn := model.Function{
		Name: fmt.Sprintf("heavy%03d", i),
		Contract: model.Contract{
			Safety:    model.ASILD,
			RealTime:  model.RealTimeContract{PeriodUS: 10000, WCETUS: 5500 + int64(i/16%4)*500, JitterUS: 5000},
			Resources: model.ResourceContract{RAMKiB: 64},
		},
	}
	return mcc.Change{Update: &fn}
}

// goldenSizes lists the E13 platform sizes the log covers.
var goldenSizes = []int{32, 128, 512, 2048}

// goldenFaultSizes lists the sizes of the E14 column.
var goldenFaultSizes = []int{128, 512, 2048}

// goldenLine renders one change's log line: platform size, stream index,
// verdict (for humans reading a diff), the decision hash over verdict and
// findings, and the table hash over the whole committed WCRT table and
// monitor plan an accepted report binds (FullTiming/FullMonitors; empty
// for rejections, which commit nothing).
func goldenLine(procs, i int, rep *mcc.Report) string {
	dec := sha256.New()
	fmt.Fprintf(dec, "%s\n", verdict(rep))
	for _, f := range rep.Findings {
		fmt.Fprintf(dec, "finding %s\n", f)
	}
	tab := sha256.New()
	if rep.Accepted {
		for _, tr := range rep.FullTiming() {
			fmt.Fprintf(tab, "timing %s %+v\n", tr.Resource, tr.Results)
		}
		for _, ms := range rep.FullMonitors() {
			fmt.Fprintf(tab, "monitor %+v\n", ms)
		}
	}
	short := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }
	return fmt.Sprintf("%d %d %s %s %s", procs, i, verdict(rep), short(dec), short(tab))
}

// goldenRun decides the log's stream at one size on one engine, built
// with the extra options opts, and returns its log lines and the number
// of Degraded decisions.
func goldenRun(t *testing.T, log goldenLog, procs int, mode MCCThroughputMode, opts ...mcc.Option) ([]string, int) {
	t.Helper()
	fleet, changes := log.stream(procs)
	if mode == ThroughputSerial {
		opts = append(opts, mcc.WithoutIncremental())
	}
	m, err := mcc.New(fleet.Platform, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.ProposeArchitecture(fleet.Baseline); !rep.Accepted {
		t.Fatalf("%dp %s: baseline rejected at %s: %v", procs, mode, rep.RejectedAt, rep.Findings)
	}
	var reports []*mcc.Report
	if mode == ThroughputStream {
		reports = mcc.NewStreamScheduler(m).Run(changes)
	} else {
		for _, c := range changes {
			if c.Update != nil {
				reports = append(reports, m.ProposeUpdate(*c.Update))
			} else {
				reports = append(reports, m.ProposeRemoval(c.Remove))
			}
		}
	}
	lines, degraded := make([]string, 0, len(reports)), 0
	for i, rep := range reports {
		lines = append(lines, goldenLine(procs, i, rep))
		if rep.Degraded {
			degraded++
		}
	}
	return lines, degraded
}

// goldenCompare fails on the first line of got that differs from want.
func goldenCompare(t *testing.T, path string, got, want []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("change %d diverges from %s:\ngot  %s\nwant %s", i, path, got[i], want[i])
		}
	}
}

func readGolden(t *testing.T, log goldenLog) map[int][]string {
	t.Helper()
	f, err := os.Open(log.path)
	if err != nil {
		t.Fatalf("golden log: %v (regenerate with -update-golden)", err)
	}
	defer f.Close()
	out := make(map[int][]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var procs int
		if _, err := fmt.Sscanf(line, "%d", &procs); err != nil {
			t.Fatalf("golden log: malformed line %q", line)
		}
		out[procs] = append(out[procs], line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeGolden(t *testing.T, log goldenLog) {
	t.Helper()
	var b strings.Builder
	b.WriteString(log.header)
	b.WriteString("# procs index verdict sha256(verdict, findings)[:16] sha256(FullTiming, FullMonitors)[:16]\n")
	for _, procs := range goldenSizes {
		lines, _ := goldenRun(t, log, procs, ThroughputFull)
		for _, line := range lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	if err := os.MkdirAll(filepath.Dir(log.path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(log.path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenDecisionLog replays every committed golden log against the
// serial, full-incremental and stream-parallel engines at every size. Any
// differing line fails with both lines named.
func TestGoldenDecisionLog(t *testing.T) {
	for _, log := range goldenLogs {
		if *updateGolden {
			writeGolden(t, log)
		}
		golden := readGolden(t, log)
		for _, procs := range goldenSizes {
			want := golden[procs]
			if len(want) != goldenChanges {
				t.Fatalf("%s holds %d lines for %dp, want %d", log.path, len(want), procs, goldenChanges)
			}
			for _, mode := range ThroughputModes() {
				t.Run(fmt.Sprintf("%s%dp/%s", log.prefix, procs, mode), func(t *testing.T) {
					got, _ := goldenRun(t, log, procs, mode)
					goldenCompare(t, log.path, got, want)
				})
			}
		}
	}
}

// chaosRules returns a copy of the rules of the named DefaultChaosSpecs
// entry.
func chaosRules(t *testing.T, name string) []faultinject.Rule {
	t.Helper()
	for _, fs := range DefaultChaosSpecs() {
		if fs.Name == name {
			return slices.Clone(fs.Rules)
		}
	}
	t.Fatalf("no %s rule in DefaultChaosSpecs", name)
	return nil
}

// TestGoldenDecisionLogWorkerPanic is the E14 column: both logs replayed
// on the full-incremental engine under the chaos rule worker-panic
// (timing.worker panics every 11th job). A faulted proposal quarantines
// the engine and is re-decided on the pinned path, which must decide and
// place as the clean engine does: every line equals the clean log's, and
// each size shows at least one Degraded decision.
func TestGoldenDecisionLogWorkerPanic(t *testing.T) {
	rules := chaosRules(t, "worker-panic")
	for _, log := range goldenLogs {
		golden := readGolden(t, log)
		for _, procs := range goldenFaultSizes {
			t.Run(fmt.Sprintf("%s%dp/worker-panic", log.prefix, procs), func(t *testing.T) {
				got, degraded := goldenRun(t, log, procs, ThroughputFull,
					mcc.WithFaultInjector(faultinject.New(chaosSeed, rules...)))
				goldenCompare(t, log.path, got, golden[procs])
				if degraded == 0 {
					t.Fatalf("no Degraded decision at %dp: the fault rule never reached the pinned path", procs)
				}
				t.Logf("%d degraded decisions", degraded)
			})
		}
	}
}

// goldenRestartAfter lists the restart points of the restart column: the
// server restarts once it has decided this many changes of the stream.
var goldenRestartAfter = []int{0, 1, 31, 63}

// goldenRestartSizes lists the sizes of the restart column.
var goldenRestartSizes = []int{32, 128}

// TestGoldenDecisionLogRestart is the restart column: the E13 log's
// streams decided through a fleet.Server with a commit journal, drained
// and restarted from the journal after k changes. The restarted server
// rebuilds the vehicle by replaying its baseline and accepted changes,
// and every line, before the restart and after it, must equal the
// committed log's.
func TestGoldenDecisionLogRestart(t *testing.T) {
	log := goldenLogs[0]
	golden := readGolden(t, log)
	for _, procs := range goldenRestartSizes {
		fl, changes := log.stream(procs)
		for _, k := range goldenRestartAfter {
			t.Run(fmt.Sprintf("%dp/restart-after-%d", procs, k), func(t *testing.T) {
				cfg := fleet.Config{JournalPath: filepath.Join(t.TempDir(), "fleet.journal")}
				srv, err := fleet.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Drain() })
				if err := srv.AddVehicle("v", fl.Platform, fl.Baseline); err != nil {
					t.Fatal(err)
				}
				got := make([]string, 0, len(changes))
				for i, c := range changes {
					if i == k {
						if rep := srv.Drain(); rep.JournalErr != nil {
							t.Fatalf("drain after %d changes: %v", k, rep.JournalErr)
						}
						if srv, err = fleet.New(cfg); err != nil {
							t.Fatalf("restart after %d changes: %v", k, err)
						}
					}
					d := srv.Propose(context.Background(), "v", c)
					if d.Report == nil {
						t.Fatalf("change %d replied %s without a report", i, d.Verdict)
					}
					got = append(got, goldenLine(procs, i, d.Report))
				}
				goldenCompare(t, log.path, got, golden[procs])
			})
		}
	}
}
