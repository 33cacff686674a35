package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/scenario"
)

// stream renders the first n changes of a generator, live-set fill first.
func stream(t *testing.T, seed int64, m mix, n int) []byte {
	t.Helper()
	f := scenario.GenFleet(scenario.DefaultFleetSpec(32))
	g := newGen(seed, f.Baseline, m, 16)
	ops := g.fill()
	g.startHeavies(10)
	ops = append(ops, g.take(n)...)
	var b bytes.Buffer
	for _, x := range ops {
		line, err := json.Marshal(struct {
			Kind     kind
			FlowEdit bool
			Update   any
			Remove   string
		}{x.kind, x.flowEdit, x.change.Update, x.change.Remove})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for name, m := range map[string]mix{"propose": proposeMix, "stream": {telemetry: 20, heavyEvery: 97}, "fleetd": fleetMix} {
		a, b := stream(t, 7, m, 5000), stream(t, 7, m, 5000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different streams", name)
		}
		if bytes.Equal(a, stream(t, 8, m, 5000)) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkMetrics holds a result line's metrics to the names and units a
// BENCHMARK.json section declares, both ways.
func checkMetrics(t *testing.T, label string, got map[string]metricOut, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json declares %d", label, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: %s declared but not emitted", label, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s emitted in %q, declared in %q", label, w.Name, m.Unit, w.Unit)
		}
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s declared but not implemented", w.Name)
		}
	}
	for w := range workloads {
		if !slices.Contains(names, w) {
			t.Errorf("workload %s implemented but not declared", w)
		}
	}
	o := &outcome{layers: map[string]float64{}}
	checkMetrics(t, "untraced", summarize("test", config{}, o).Metrics, bf.EndToEnd)
	checkMetrics(t, "traced", summarize("test", config{trace: true, out: t.TempDir()}, o).Metrics, bf.PerLayer)
}

// runTraced runs one workload's traced mode briefly and checks that it
// passed every correctness check and emitted the declared metrics.
func runTraced(t *testing.T, name string, cfg config) map[string]float64 {
	t.Helper()
	if testing.Short() {
		t.Skip("runs a workload")
	}
	cfg.trace = true
	if cfg.out == "" {
		cfg.out = t.TempDir()
	}
	o, err := workloads[name](cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := summarize(name, cfg, o)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d: %v", name, res.Correct, res.Failed, o.mismatches)
	}
	checkMetrics(t, name, res.Metrics, readBenchmarkFile(t).PerLayer)
	return o.layers
}

func TestProposeLedgerReconciles(t *testing.T) {
	l := runTraced(t, "propose-2048p", config{seed: 3, seconds: 2})
	var stageSum float64
	for _, s := range stages {
		stageSum += l["mcc."+string(s)+"_us"]
	}
	if stageSum <= 0 || l["mcc.unattributed_us"] < 0 {
		t.Errorf("stage means sum to %.2f us with %.2f us unattributed", stageSum, l["mcc.unattributed_us"])
	}
	if l["stream.replays"] != 0 || l["mcc.flow_edit_us_p50"] != 0 {
		t.Errorf("flow-free serial workload reports stream replays %v, flow edits %v us", l["stream.replays"], l["mcc.flow_edit_us_p50"])
	}
}

func TestStreamReplaysAndWindows(t *testing.T) {
	l := runTraced(t, "stream-1024p", config{seed: 3, seconds: 3})
	if l["stream.replays"] <= 0 {
		t.Errorf("stream.replays = %v, want > 0", l["stream.replays"])
	}
	if l["stream.decisions_per_window"] <= 1 {
		t.Errorf("stream.decisions_per_window = %v, want > 1", l["stream.decisions_per_window"])
	}
}

// buildFleetd builds cmd/fleetd into a temporary directory.
func buildFleetd(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds fleetd")
	}
	bin := filepath.Join(t.TempDir(), "fleetd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/fleetd").CombinedOutput(); err != nil {
		t.Fatalf("build fleetd: %v\n%s", err, out)
	}
	return bin
}

// TestFleetdConfig holds the in-process fleet to the configuration
// cmd/fleetd builds from its default flags.
func TestFleetdConfig(t *testing.T) {
	cfg, err := fleetdConfig(buildFleetd(t))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.QueueDepth <= 0 || cfg.MaxInFlight <= 0 || cfg.MaxRestarts <= 0 || cfg.ProposalDeadline <= 0 {
		t.Errorf("fleetd defaults parsed as %+v, want every bound set", cfg)
	}
}

func TestFleetFlowEdits(t *testing.T) {
	l := runTraced(t, "fleet-8v256p", config{seed: 3, seconds: 2, fleetd: buildFleetd(t)})
	if l["fleetd.flow_edits"] <= 0 || l["mcc.flow_edit_us_p50"] <= 0 {
		t.Errorf("fleetd.flow_edits = %v, mcc.flow_edit_us_p50 = %v, want both > 0", l["fleetd.flow_edits"], l["mcc.flow_edit_us_p50"])
	}
	if l["fleetd.http_us_p50"] <= 0 {
		t.Errorf("fleetd.http_us_p50 = %v, want > 0", l["fleetd.http_us_p50"])
	}
}
