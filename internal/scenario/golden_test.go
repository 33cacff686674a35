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
)

// Golden decision log: the E13 generated streams (DefaultFleetSpec) at
// every benchmarked platform size, decided once and committed as one line
// per change. Each line hashes the change's verdict and findings, and —
// for accepted changes — the whole committed WCRT table and monitor plan
// the report binds (FullTiming/FullMonitors). Every engine replays the
// log and must reproduce it line for line (the serial engine its decision
// part, see goldenDecision), so a core rewrite is held to
// the decisions of the code before it at the platform sizes the
// benchmarks run, not only on the small fuzz fleets of the parity corpus.
//
// Regenerate with
//
//	go test -run TestGoldenDecisionLog ./internal/scenario/ -update-golden
//
// only together with a CHANGES.md entry naming every changed line and why
// it changed.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_e13.txt from the full-incremental engine")

const (
	goldenPath    = "testdata/golden_e13.txt"
	goldenChanges = 64
)

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

// goldenRun decides the size's E13 stream on one engine and returns its
// log lines.
func goldenRun(t *testing.T, procs int, mode MCCThroughputMode) []string {
	t.Helper()
	fleet := GenFleet(DefaultFleetSpec(procs))
	changes := fleet.Changes(goldenChanges)
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

func readGolden(t *testing.T) map[int][]string {
	t.Helper()
	f, err := os.Open(goldenPath)
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

func writeGolden(t *testing.T) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# E13 golden decision log: scenario.DefaultFleetSpec streams, 64 changes per size.\n")
	b.WriteString("# procs index verdict sha256(verdict, findings)[:16] sha256(FullTiming, FullMonitors)[:16]\n")
	for _, procs := range goldenSizes {
		for _, line := range goldenRun(t, procs, ThroughputFull) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenDecisionLog replays the committed golden log against the
// serial (32–512 processors), full-incremental and stream-parallel
// engines (every size). Any differing line fails with both lines named.
func TestGoldenDecisionLog(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
	}
	golden := readGolden(t)
	for _, procs := range goldenSizes {
		want := golden[procs]
		if len(want) != goldenChanges {
			t.Fatalf("golden log holds %d lines for %dp, want %d", len(want), procs, goldenChanges)
		}
		for _, mode := range ThroughputModes() {
			if mode == ThroughputSerial && procs > goldenSerialMax {
				continue
			}
			t.Run(fmt.Sprintf("%dp/%s", procs, mode), func(t *testing.T) {
				got := goldenRun(t, procs, mode)
				for i := range want {
					g, w := got[i], want[i]
					if mode == ThroughputSerial {
						g, w = goldenDecision(g), goldenDecision(w)
					}
					if g != w {
						t.Fatalf("change %d diverges from the golden log:\ngot  %s\nwant %s", i, g, w)
					}
				}
			})
		}
	}
}
