// Command benchgate is the CI flatness gate of the E13 scale tier: it
// compares a freshly measured E13 sweep (the CI smoke) against the
// committed BENCH_PR*.json trajectory point and fails when the
// incremental engines regress.
//
// Two properties are gated, both machine-independent:
//
//   - Admission-work flatness, absolute: scans-per-change and
//     checks-per-change of the incremental modes must stay flat from the
//     smallest to the largest platform of the sweep (bounded by
//     -max-growth, default 2x). These count stage-internal work — timing
//     analyses, safety/security verdict checks — and are the paper's
//     O(diff) claim in its directly measurable form.
//
//   - Throughput-collapse ratio, relative to the committed baseline: the
//     changes/s ratio between the smallest and largest platform may not
//     exceed the committed ratio by more than -max-degrade (default 2x).
//     The ratio within one run cancels the speed of the machine, so the
//     gate holds on any CI runner; absolute changes/s comparisons across
//     machines would not. Under the delta-report contract an accepted
//     proposal materializes only its change footprint (Report.TimingDelta
//     and MonitorDelta; whole tables are copy-on-read views of the
//     committed state), so the committed collapse ratio is close to flat
//     and the gate keeps it there. See README "admission cost model".
//
// With -e15 the command additionally (or instead, when -current is
// omitted) gates the E15 availability tier: every parity-checked fault
// row must report a zero blast radius — no decision lost and no decision
// diverging from the standalone oracle on any healthy vehicle while one
// tenant is faulted. This is absolute, not baseline-relative: a single
// lost healthy decision is a bulkhead regression.
//
// Without -baseline the gate compares against the newest committed
// trajectory point: the highest-numbered BENCH_PR<N>.json in the working
// directory that carries an E13 sweep.
//
// Usage: benchgate -current smoke.json [-baseline BENCH_PR9.json] [-e15 e15.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// e13Point is the subset of the canbench e13 row the gate consumes.
type e13Point struct {
	Procs           int     `json:"procs"`
	Mode            string  `json:"mode"`
	ScansPerChange  float64 `json:"scans_per_change"`
	ChecksPerChange float64 `json:"checks_per_change"`
	ChangesPerSec   float64 `json:"changes_per_sec"`
}

// e15Point is the subset of the canbench e15 row the gate consumes.
type e15Point struct {
	Spec              string `json:"spec"`
	ParityChecked     bool   `json:"parity_checked"`
	HealthyLost       int    `json:"healthy_lost"`
	HealthyMismatches int    `json:"healthy_mismatches"`
	BlastRadiusOK     bool   `json:"blast_radius_ok"`
}

type benchFile struct {
	E13 []e13Point `json:"e13"`
	E15 []e15Point `json:"e15"`
}

// incrementalModes are the engines whose flatness the gate enforces; the
// serial baseline is expected to collapse with platform size.
var incrementalModes = []string{"full-incremental", "stream-parallel"}

func load(path string) (benchFile, error) {
	var bf benchFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.E13) == 0 {
		return bf, fmt.Errorf("%s: no e13 rows", path)
	}
	return bf, nil
}

// discoverBaseline picks the default committed trajectory point: the
// highest-numbered BENCH_PR<N>.json in dir whose payload carries an E13
// sweep. Files that fail to parse or lack E13 rows are skipped, so a
// committed point that only recorded another tier never shadows the
// newest usable sweep. An explicit -baseline always wins over discovery.
func discoverBaseline(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(e.Name(), "BENCH_PR%d.json", &n); err != nil || fmt.Sprintf("BENCH_PR%d.json", n) != e.Name() {
			continue
		}
		if n <= bestN {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if _, err := load(path); err != nil {
			continue
		}
		best, bestN = path, n
	}
	if best == "" {
		return "", fmt.Errorf("%s: no BENCH_PR*.json with an e13 sweep", dir)
	}
	return best, nil
}

func point(rows []e13Point, procs int, mode string) (e13Point, bool) {
	for _, r := range rows {
		if r.Procs == procs && r.Mode == mode {
			return r, true
		}
	}
	return e13Point{}, false
}

// span returns the smallest and largest platform size present for mode.
func span(rows []e13Point, mode string) (lo, hi int, ok bool) {
	for _, r := range rows {
		if r.Mode != mode {
			continue
		}
		if !ok {
			lo, hi, ok = r.Procs, r.Procs, true
			continue
		}
		if r.Procs < lo {
			lo = r.Procs
		}
		if r.Procs > hi {
			hi = r.Procs
		}
	}
	return lo, hi, ok
}

// gate applies both checks and returns the human-readable failures.
func gate(baseline, current benchFile, maxGrowth, maxDegrade float64) []string {
	var fails []string
	for _, mode := range incrementalModes {
		lo, hi, ok := span(current.E13, mode)
		if !ok || lo == hi {
			fails = append(fails, fmt.Sprintf("%s: current sweep needs at least two platform sizes", mode))
			continue
		}
		small, ok1 := point(current.E13, lo, mode)
		big, ok2 := point(current.E13, hi, mode)
		if !ok1 || !ok2 {
			fails = append(fails, fmt.Sprintf("%s: missing sweep endpoints", mode))
			continue
		}

		if small.ScansPerChange > 0 {
			if g := big.ScansPerChange / small.ScansPerChange; g > maxGrowth {
				fails = append(fails, fmt.Sprintf(
					"%s: scans/change grew %.2fx from %dp to %dp (%.2f -> %.2f, max %.1fx)",
					mode, g, lo, hi, small.ScansPerChange, big.ScansPerChange, maxGrowth))
			}
		}
		if small.ChecksPerChange > 0 {
			if g := big.ChecksPerChange / small.ChecksPerChange; g > maxGrowth {
				fails = append(fails, fmt.Sprintf(
					"%s: checks/change grew %.2fx from %dp to %dp (%.2f -> %.2f, max %.1fx)",
					mode, g, lo, hi, small.ChecksPerChange, big.ChecksPerChange, maxGrowth))
			}
		}

		baseSmall, ok1 := point(baseline.E13, lo, mode)
		baseBig, ok2 := point(baseline.E13, hi, mode)
		if !ok1 || !ok2 {
			fails = append(fails, fmt.Sprintf(
				"%s: baseline has no %dp/%dp rows to compare against", mode, lo, hi))
			continue
		}
		if big.ChangesPerSec <= 0 || baseBig.ChangesPerSec <= 0 {
			fails = append(fails, fmt.Sprintf("%s: non-positive changes/s", mode))
			continue
		}
		baseRatio := baseSmall.ChangesPerSec / baseBig.ChangesPerSec
		curRatio := small.ChangesPerSec / big.ChangesPerSec
		fmt.Printf("%-17s %dp->%dp collapse: current %.1fx, committed %.1fx (budget %.1fx)\n",
			mode, lo, hi, curRatio, baseRatio, baseRatio*maxDegrade)
		if curRatio > baseRatio*maxDegrade {
			fails = append(fails, fmt.Sprintf(
				"%s: changes/s collapse %dp->%dp is %.1fx, committed trajectory is %.1fx (max degradation %.1fx)",
				mode, lo, hi, curRatio, baseRatio, maxDegrade))
		}
	}
	return fails
}

// gateE15 enforces the blast-radius property on every parity-checked
// fault row, the overload column's decided changes included. Rows with
// ParityChecked=false are exempt.
func gateE15(rows []e15Point) []string {
	var fails []string
	checked := 0
	for _, r := range rows {
		if !r.ParityChecked {
			continue
		}
		checked++
		if r.HealthyLost != 0 || r.HealthyMismatches != 0 || !r.BlastRadiusOK {
			fails = append(fails, fmt.Sprintf(
				"e15 %s: blast radius not zero: %d healthy decision(s) lost, %d diverged from the oracle",
				r.Spec, r.HealthyLost, r.HealthyMismatches))
		}
	}
	if checked == 0 {
		fails = append(fails, "e15: no parity-checked rows to gate")
	}
	return fails
}

func main() {
	baselinePath := flag.String("baseline", "", "committed E13 trajectory point (default: newest BENCH_PR*.json carrying an e13 sweep)")
	currentPath := flag.String("current", "", "freshly measured E13 sweep (canbench -experiment e13 -json)")
	e15Path := flag.String("e15", "", "freshly measured E15 availability tier (canbench -experiment e15 -json); gated for a zero blast radius")
	maxGrowth := flag.Float64("max-growth", 2.0, "max small->large growth of scans/change and checks/change")
	maxDegrade := flag.Float64("max-degrade", 2.0, "max worsening of the changes/s collapse ratio vs the baseline")
	flag.Parse()
	if *currentPath == "" && *e15Path == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current or -e15 is required")
		os.Exit(2)
	}
	var fails []string
	gated := ""
	if *currentPath != "" {
		if *baselinePath == "" {
			found, err := discoverBaseline(".")
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchgate:", err)
				os.Exit(2)
			}
			*baselinePath = found
			fmt.Printf("benchgate: baseline %s (auto-discovered)\n", found)
		}
		baseline, err := load(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		current, err := load(*currentPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fails = append(fails, gate(baseline, current, *maxGrowth, *maxDegrade)...)
		gated = "E13 flatness"
	}
	if *e15Path != "" {
		raw, err := os.ReadFile(*e15Path)
		var bf benchFile
		if err == nil {
			err = json.Unmarshal(raw, &bf)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fails = append(fails, gateE15(bf.E15)...)
		if gated != "" {
			gated += " + "
		}
		gated += "E15 blast-radius"
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %s gate passed\n", gated)
}
