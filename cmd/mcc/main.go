// Command mcc runs the Multi-Change Controller integration process
// (Section II.A, experiment E3).
//
// With -model it loads a JSON system model (model.SystemModel: platform +
// functional architecture), integrates it, and prints the acceptance
// report including the WCRT tables and the planned monitors. Without
// -model it runs the built-in E3 update stream on the reference platform.
//
// Usage:
//
//	mcc                      # built-in E3 update stream
//	mcc -model system.json   # integrate a system model from disk
//	mcc -updates 48          # longer built-in stream
//	mcc -throughput                         # fleet-scale E12 throughput run (stream-parallel)
//	mcc -throughput -mode serial            # ... or serial / full-incremental
//	mcc -throughput -cache mcc.cache        # warm-start timing analyses across sessions
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/cpa"
	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/scenario"
)

func main() {
	log.SetFlags(0)
	modelPath := flag.String("model", "", "path to a JSON system model")
	updates := flag.Int("updates", 24, "number of proposals in the built-in stream")
	throughput := flag.Bool("throughput", false, "run the fleet-scale E12 throughput scenario instead of E3")
	mode := flag.String("mode", string(scenario.ThroughputStream), "E12 integration strategy: serial, full-incremental, stream-parallel")
	cachePath := flag.String("cache", "", "persistent timing-analyzer memo table: loaded before integrating, saved back after (warm-starts busy-window analyses across sessions)")
	flag.Parse()

	analyzer, saveCache := loadCache(*cachePath)
	if *modelPath != "" {
		integrateFile(*modelPath, analyzer)
		saveCache()
		return
	}

	if *throughput {
		cfg := scenario.DefaultMCCThroughputConfig()
		cfg.Mode = scenario.MCCThroughputMode(*mode)
		cfg.Analyzer = analyzer
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "updates" {
				cfg.Updates = *updates
			}
		})
		res, err := scenario.RunMCCThroughput(cfg)
		if err != nil {
			log.Fatal(err)
		}
		saveCache()
		fmt.Println("E12: MCC fleet-scale change-stream throughput")
		for _, row := range res.Rows() {
			fmt.Println(row)
		}
		fmt.Printf("  stream wall time: %v (%.0f changes/s)\n",
			res.StreamWall.Round(time.Microsecond), float64(cfg.Updates)/res.StreamWall.Seconds())
		return
	}

	res, err := scenario.RunMCCStream(scenario.MCCStreamConfig{Updates: *updates, Analyzer: analyzer})
	if err != nil {
		log.Fatal(err)
	}
	saveCache()
	fmt.Println("E3: MCC in-field update stream")
	for _, row := range res.Rows() {
		fmt.Println(row)
	}
}

// loadCache prepares the persistent analyzer memo table: a nil analyzer
// (and a no-op save) when no -cache path was given.
func loadCache(path string) (*cpa.Analyzer, func()) {
	if path == "" {
		return nil, func() {}
	}
	analyzer := cpa.NewAnalyzer()
	if err := cpa.LoadCacheFile(analyzer, path); err != nil && !os.IsNotExist(err) {
		log.Fatal(err)
	}
	return analyzer, func() {
		if err := cpa.SaveCacheFile(analyzer, path); err != nil {
			log.Fatal(err)
		}
	}
}

func integrateFile(path string, analyzer *cpa.Analyzer) {
	rep, err := loadAndIntegrate(path, analyzer)
	if err != nil {
		log.Fatal(err)
	}
	printReport(rep)
	if !rep.Accepted {
		os.Exit(1)
	}
}

// loadAndIntegrate parses a JSON system model and runs it through a fresh
// MCC, returning the integration report.
func loadAndIntegrate(path string, analyzer *cpa.Analyzer) (*mcc.Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sm model.SystemModel
	if err := json.Unmarshal(raw, &sm); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if err := sm.Validate(); err != nil {
		return nil, fmt.Errorf("invalid model: %w", err)
	}
	m, err := mcc.New(sm.Platform, mcc.WithAnalyzer(analyzer))
	if err != nil {
		return nil, err
	}
	return m.ProposeArchitecture(sm.Functional), nil
}

func printReport(rep *mcc.Report) {
	if rep.Accepted {
		fmt.Println("ACCEPTED")
	} else {
		fmt.Printf("REJECTED at stage %q\n", rep.RejectedAt)
		for _, f := range rep.Findings {
			fmt.Printf("  - %s\n", f)
		}
	}
	if len(rep.Stages) > 0 {
		fmt.Println("pipeline stages:")
		for _, tr := range rep.Stages {
			line := fmt.Sprintf("  %-10s %10v", tr.Stage, tr.Wall.Round(time.Microsecond))
			if note := tr.Note(); note != "" {
				line += "  (" + note + ")"
			}
			fmt.Println(line)
		}
	}
	if rep.Impl != nil {
		fmt.Printf("tasks: %d, messages: %d, connections: %d\n",
			len(rep.Impl.Tasks), len(rep.Impl.Messages), len(rep.Impl.Connections))
	}
	// Whole-platform views, materialized on demand from the committed
	// tables the accepted report is bound to (a rejected report shows the
	// tables its attempt actually computed).
	for _, tr := range rep.FullTiming() {
		fmt.Printf("timing on %s:\n", tr.Resource)
		for _, r := range tr.Results {
			status := "OK"
			if !r.Schedulable {
				status = "MISS"
			}
			fmt.Printf("  %-24s WCRT %8dus  deadline %8dus  %s\n", r.Name, r.WCRTUS, r.DeadlineUS, status)
		}
	}
	if monitors := rep.FullMonitors(); len(monitors) > 0 {
		fmt.Printf("monitor plan: %d monitors\n", len(monitors))
		for _, ms := range monitors {
			fmt.Printf("  %-6s %-24s period %8dus\n", ms.Kind, ms.Target, ms.PeriodUS)
		}
	}
	if rep.Accepted && rep.Impl != nil {
		if order, err := mcc.StartupOrder(rep.Impl); err == nil {
			fmt.Printf("startup order: %v\n", order)
		}
	}
}
