// Command perfbench is the repository's benchmark: it drives the
// Multi-Change Controller through its public entry points on one of three
// stationary workloads, checks every verdict, and prints one JSON result
// line. See README.md for the workloads, metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports; perLayer those a
// traced run reports. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"decisions_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"mcc.validate_us", "us"},
	{"mcc.mapping_us", "us"},
	{"mcc.synthesis_us", "us"},
	{"mcc.safety_us", "us"},
	{"mcc.security_us", "us"},
	{"mcc.timing_us", "us"},
	{"mcc.monitors_us", "us"},
	{"mcc.commit_us", "us"},
	{"mcc.unattributed_us", "us"},
	{"mcc.passes_per_decision", "count"},
	{"mcc.timing_scans_per_decision", "count"},
	{"mcc.checks_per_decision", "count"},
	{"mcc.flow_edit_us_p50", "us"},
	{"cpa.hit_ratio", "fraction"},
	{"cpa.misses_per_decision", "count"},
	{"cpa.flight_waits", "count"},
	{"cpa.entries", "count"},
	{"stream.decisions_per_window", "count"},
	{"stream.speculated_ratio", "fraction"},
	{"stream.replays", "count"},
	{"stream.discarded_passes", "count"},
	{"stream.prefetched_per_decision", "count"},
	{"stream.conflicts", "count"},
	{"stream.barrier_us", "us"},
	{"fleet.queue_us_p50", "us"},
	{"fleet.shed", "count"},
	{"fleet.crashes", "count"},
	{"fleetd.http_us_p50", "us"},
	{"fleetd.reply_bytes", "B"},
	{"fleetd.register_ms_p50", "ms"},
	{"fleetd.flow_edits", "count"},
	{"go.alloc_bytes_per_decision", "B"},
	{"go.allocs_per_decision", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"setup.baseline_deploy_s", "s"},
	{"station.deployed_first", "count"},
	{"station.deployed_last", "count"},
	{"station.rate_first_per_s", "1/s"},
	{"station.rate_last_per_s", "1/s"},
	{"trace.overhead_us_p50", "us"},
	{"failed_ratio", "fraction"},
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // build and trace output directory
	fleetd  string // cmd/fleetd binary
}

// outcome is what a workload measured and checked.
type outcome struct {
	setups    []float64 // seconds per fresh set-up
	phase     phase     // the timed phase
	attempted int
	// failed counts operations that got no verdict: transport or HTTP
	// errors and sheds. Degraded decisions are mismatches.
	failed int
	// mismatches lists correctness-check failures; mismatched counts the
	// operations they concern.
	mismatches []string
	mismatched int
	peakRSS    float64
	station    station
	layers     map[string]float64 // traced runs only
	spans      *tracer
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatched++
	if len(o.mismatches) < 20 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

// station is the stationarity record of a run: the deployed function
// count at the end of the first tenth of the timed phase and at its end.
type station struct{ deployedFirst, deployedLast int }

// maxDrift bounds how far the deployed function count may move over a
// run: 1% of the deployed set, at least 8 functions (the heavy slots plus
// the add/remove pairing slack).
func maxDrift(deployed int) int { return max(8, deployed/100) }

var workloads = map[string]func(config) (*outcome, error){
	"propose-2048p": runPropose,
	"stream-1024p":  runStream,
	"fleet-8v256p":  runFleet,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: propose-2048p, stream-1024p or fleet-8v256p")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced mode and reports the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "output directory for traces")
	fleetd := flag.String("fleetd", filepath.Join(".bench_build", "perfbench", "fleetd"), "cmd/fleetd binary")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q seconds %v trace %d\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, out: *out, fleetd: *fleetd}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res := summarize(*workload, cfg, o)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// summarize checks stationarity, reports what failed, and assembles the
// result line for the run's mode.
func summarize(workload string, cfg config, o *outcome) result {
	rates := o.phase.rates()
	first, last := rates[0], rates[9]
	st := o.station
	if d := st.deployedLast - st.deployedFirst; d > maxDrift(st.deployedFirst) || -d > maxDrift(st.deployedFirst) {
		o.mismatch("stationarity: deployed functions drifted from %d to %d", st.deployedFirst, st.deployedLast)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d decisions in %.2fs; deployed %d -> %d; rate per tenth %.0f/s; GOMAXPROCS=%d GOGC=%s\n",
		workload, cfg.seed, o.phase.decisions, o.phase.wall.Seconds(), st.deployedFirst, st.deployedLast,
		rates, runtime.GOMAXPROCS(0), gogc())
	fmt.Fprintf(os.Stderr, "perfbench: set-ups %.3f s\n", o.setups)
	for _, m := range o.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: mismatch:", m)
	}
	failed := min(o.failed+o.mismatched, max(o.attempted, 1))
	res := result{
		Correct:   o.mismatched == 0,
		Attempted: max(o.attempted, 1),
		Failed:    failed,
		Metrics:   make(map[string]metricOut),
	}
	if !cfg.trace {
		vals := map[string]float64{
			"decisions_per_s": o.phase.throughput(),
			"latency_p50_us":  us(quantile(o.phase.lat, 0.50)),
			"latency_p99_us":  us(quantile(o.phase.lat, 0.99)),
			"setup_s":         median(o.setups),
			"peak_rss_mb":     o.peakRSS,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricOut{vals[d.name], d.unit}
		}
		return res
	}
	l := o.layers
	l["station.deployed_first"] = float64(st.deployedFirst)
	l["station.deployed_last"] = float64(st.deployedLast)
	l["station.rate_first_per_s"] = first
	l["station.rate_last_per_s"] = last
	l["failed_ratio"] = float64(failed) / float64(res.Attempted)
	for _, d := range perLayer {
		res.Metrics[d.name] = metricOut{l[d.name], d.unit}
	}
	writeTrace(workload, cfg, o, res)
	return res
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

// writeTrace writes the run's spans and its per-layer table next to the
// build output; the table also goes to standard error.
func writeTrace(workload string, cfg config, o *outcome, res result) {
	base := filepath.Join(cfg.out, "trace", fmt.Sprintf("%s-seed%d", workload, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace directory:", err)
		return
	}
	if o.spans != nil {
		if err := o.spans.write(base + ".spans.jsonl"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
		}
		if o.spans.dropped > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d spans past the in-memory bound were not kept\n", o.spans.dropped)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "# %s seed %d, traced run at %s\n", workload, cfg.seed, time.Now().UTC().Format(time.RFC3339))
	for _, n := range names {
		fmt.Fprintf(&b, "%-32s %14.3f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprint(os.Stderr, b.String())
	if err := os.WriteFile(base+".layers.txt", []byte(b.String()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write layer table:", err)
	}
}
