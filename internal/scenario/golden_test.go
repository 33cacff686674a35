package scenario

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
// Every engine replays the log and must reproduce it line for line (the
// serial engine its decision part, see goldenDecision), so a core rewrite
// is held to the decisions of the code before it at the platform sizes
// the benchmarks run, not only on the small fuzz fleets of the parity
// corpus.
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

// goldenSerialMax is the largest platform the from-scratch serial engine
// replays: at 2048 processors a 64-change serial run re-analyzes the
// whole platform per change and dominates the tier's wall clock.
const goldenSerialMax = 512

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

// goldenDecision strips a log line to its decision part (size, index,
// verdict, decision hash). The from-scratch serial engine is held to this
// part only: it re-places the whole fleet on every proposal, so its
// accepted placements — and with them its committed tables — legitimately
// differ from the warm-started engines' (the documented accept-side
// warm-start gap); the parity corpus holds its tables to its own
// from-scratch oracle instead.
func goldenDecision(line string) string {
	f := strings.Fields(line)
	return strings.Join(f[:min(4, len(f))], " ")
}

// goldenRun decides the log's stream at one size on one engine and
// returns its log lines.
func goldenRun(t *testing.T, log goldenLog, procs int, mode MCCThroughputMode) []string {
	t.Helper()
	fleet, changes := log.stream(procs)
	var opts []mcc.Option
	if mode == ThroughputSerial {
		opts = append(opts, mcc.WithoutIncremental(), mcc.WithTimingWorkers(1))
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
	lines := make([]string, 0, len(reports))
	for i, rep := range reports {
		lines = append(lines, goldenLine(procs, i, rep))
	}
	return lines
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
		for _, line := range goldenRun(t, log, procs, ThroughputFull) {
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
// serial (32–512 processors), full-incremental and stream-parallel
// engines (every size). Any differing line fails with both lines named.
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
				if mode == ThroughputSerial && procs > goldenSerialMax {
					continue
				}
				t.Run(fmt.Sprintf("%s%dp/%s", log.prefix, procs, mode), func(t *testing.T) {
					got := goldenRun(t, log, procs, mode)
					for i := range want {
						g, w := got[i], want[i]
						if mode == ThroughputSerial {
							g, w = goldenDecision(g), goldenDecision(w)
						}
						if g != w {
							t.Fatalf("change %d diverges from %s:\ngot  %s\nwant %s", i, log.path, g, w)
						}
					}
				})
			}
		}
	}
}
