// Command fleetd is the long-lived multi-tenant MCC server: it hosts one
// fleet.Server (per-vehicle bulkheads behind a supervised bounded
// scheduler, one shared content-addressed timing analyzer) and exposes a
// small JSON HTTP API:
//
//	POST /v1/vehicles  {"id","platform","baseline"}     register a vehicle
//	POST /v1/propose   {"vehicle","update"|"remove"}    decide one change
//	GET  /v1/vehicles                                   list registered IDs
//	GET  /v1/stats                                      server counters
//
// Propose never hangs: overload, draining, parked, and unknown-vehicle
// conditions come back as explicit verdicts, and -deadline bounds every
// admitted decision (the HTTP request context propagates too, so a
// disconnected client stops paying for its proposal). The status follows
// the verdict: unknown vehicle 404, overload 429, draining or parked 503,
// and 500 for a change the -journal could not record (verdict
// "rejected-journal": not committed); decided changes are 200.
//
// SIGTERM/SIGINT triggers a graceful drain: intake closes, queued and
// in-flight proposals are flushed to replies, the analyzer cache is
// persisted to -cache, the commit journal is synced, and the drain
// report is logged. A restarted fleetd warm-starts from -cache and
// rebuilds every vehicle's committed state from -journal.
//
// -seed-vehicles pre-registers a generated fleet (scenario archetypes)
// so a demo instance serves traffic immediately.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/scenario"
)

// registerRequest is the POST /v1/vehicles body.
type registerRequest struct {
	ID       string                        `json:"id"`
	Platform *model.Platform               `json:"platform"`
	Baseline *model.FunctionalArchitecture `json:"baseline"`
}

// proposeRequest is the POST /v1/propose body: exactly one of Update
// (a new/updated function contract) or Remove (a function name).
type proposeRequest struct {
	Vehicle string          `json:"vehicle"`
	Update  *model.Function `json:"update,omitempty"`
	Remove  string          `json:"remove,omitempty"`
}

// proposeResponse is the decision reply.
type proposeResponse struct {
	Vehicle string      `json:"vehicle"`
	Verdict string      `json:"verdict"`
	Report  *reportView `json:"report,omitempty"`
}

// reportView is the JSON projection of an integration report: the
// verdict, the findings, and the O(change) timing/monitor deltas — not
// the implementation model (shared with the vehicle's committed state)
// and not the whole-platform tables (the delta contract keeps replies
// proportional to the change, not the platform).
type reportView struct {
	Accepted        bool               `json:"accepted"`
	RejectedAt      string             `json:"rejected_at,omitempty"`
	Findings        []string           `json:"findings,omitempty"`
	TimingDelta     []mcc.TimingResult `json:"timing_delta,omitempty"`
	MonitorDelta    []mcc.MonitorSpec  `json:"monitor_delta,omitempty"`
	Passes          int                `json:"passes,omitempty"`
	Degraded        bool               `json:"degraded,omitempty"`
	DegradedReasons []string           `json:"degraded_reasons,omitempty"`
}

func viewOf(rep *mcc.Report) *reportView {
	if rep == nil {
		return nil
	}
	return &reportView{
		Accepted:        rep.Accepted,
		RejectedAt:      string(rep.RejectedAt),
		Findings:        rep.Findings,
		TimingDelta:     rep.TimingDelta,
		MonitorDelta:    rep.MonitorDelta,
		Passes:          rep.Passes,
		Degraded:        rep.Degraded,
		DegradedReasons: rep.DegradedReasons,
	}
}

// Request-body bounds: a registration carries a whole platform +
// baseline architecture, a proposal one function contract.
const (
	maxRegisterBytes = 8 << 20
	maxProposeBytes  = 1 << 20
)

// decodeBody decodes a bounded JSON request body, distinguishing
// oversized bodies (413) from malformed ones (400).
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, err)
		return false
	}
	return true
}

// newMux builds the HTTP API over a fleet server. The method-qualified
// patterns make the mux answer wrong-method requests with 405 and an
// Allow header on its own.
func newMux(srv *fleet.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/vehicles", func(w http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if !decodeBody(w, r, maxRegisterBytes, &req) {
			return
		}
		if req.Platform == nil || req.Baseline == nil {
			httpError(w, http.StatusBadRequest, errors.New("platform and baseline are required"))
			return
		}
		if err := srv.AddVehicle(req.ID, req.Platform, req.Baseline); err != nil {
			httpError(w, http.StatusConflict, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"id": req.ID})
	})
	mux.HandleFunc("POST /v1/propose", func(w http.ResponseWriter, r *http.Request) {
		var req proposeRequest
		if !decodeBody(w, r, maxProposeBytes, &req) {
			return
		}
		if (req.Update == nil) == (req.Remove == "") {
			httpError(w, http.StatusBadRequest, errors.New("exactly one of update or remove is required"))
			return
		}
		d := srv.Propose(r.Context(), req.Vehicle, mcc.Change{Update: req.Update, Remove: req.Remove})
		status := http.StatusOK
		switch d.Verdict {
		case fleet.RejectedUnknown:
			status = http.StatusNotFound
		case fleet.RejectedOverload:
			status = http.StatusTooManyRequests
		case fleet.RejectedDraining, fleet.RejectedParked:
			status = http.StatusServiceUnavailable
		case fleet.RejectedJournal:
			status = http.StatusInternalServerError
		}
		writeJSON(w, status, proposeResponse{Vehicle: d.Vehicle, Verdict: string(d.Verdict), Report: viewOf(d.Report)})
	})
	mux.HandleFunc("GET /v1/vehicles", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, srv.Vehicles())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, srv.Stats())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is not our error
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// seedFleet pre-registers vehicles generated from scenario archetypes.
func seedFleet(srv *fleet.Server, vehicles, archetypes, procs int) error {
	if archetypes < 1 {
		archetypes = 1
	}
	if archetypes > vehicles {
		archetypes = vehicles
	}
	archs := make([]*scenario.Fleet, archetypes)
	for k := range archs {
		spec := scenario.DefaultFleetSpec(procs)
		spec.Seed = int64(k + 1)
		archs[k] = scenario.GenFleet(spec)
	}
	for i := 0; i < vehicles; i++ {
		arch := archs[i%archetypes]
		id := fmt.Sprintf("a%d-v%02d", i%archetypes, i)
		if err := srv.AddVehicle(id, arch.Platform, arch.Baseline); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	listen := flag.String("listen", ":8080", "HTTP listen address")
	queueDepth := flag.Int("queue-depth", 16, "per-vehicle bound on waiting proposals")
	maxInFlight := flag.Int("max-inflight", 256, "global admitted-but-undecided budget; beyond it proposals shed")
	maxRestarts := flag.Int("max-restarts", 3, "per-vehicle crash budget before the vehicle is parked")
	deadline := flag.Duration("deadline", 2*time.Second, "per-proposal decision deadline (0 disables)")
	cachePath := flag.String("cache", "", "analyzer cache file: warm-started at boot, persisted on drain")
	journalPath := flag.String("journal", "", "commit journal file: replayed at boot to rebuild committed state")
	seedVehicles := flag.Int("seed-vehicles", 0, "pre-register this many generated vehicles (0 disables)")
	seedArchetypes := flag.Int("seed-archetypes", 2, "archetype count for -seed-vehicles")
	seedProcs := flag.Int("seed-procs", 8, "platform size for -seed-vehicles archetypes")
	flag.Parse()

	srv, err := fleet.New(fleet.Config{
		QueueDepth:       *queueDepth,
		MaxInFlight:      *maxInFlight,
		MaxRestarts:      *maxRestarts,
		ProposalDeadline: *deadline,
		CachePath:        *cachePath,
		JournalPath:      *journalPath,
	})
	if err != nil {
		log.Fatal("fleetd: ", err)
	}
	if srv.WarmStarted() {
		log.Printf("fleetd: warm-started analyzer cache from %s", *cachePath)
	}
	if n := len(srv.Vehicles()); n > 0 {
		log.Printf("fleetd: recovered %d vehicle(s) from %s", n, *journalPath)
	}
	if *seedVehicles > 0 {
		if err := seedFleet(srv, *seedVehicles, *seedArchetypes, *seedProcs); err != nil {
			log.Fatal("fleetd: seed fleet: ", err)
		}
		log.Printf("fleetd: seeded %d generated vehicle(s)", *seedVehicles)
	}

	httpSrv := &http.Server{Addr: *listen, Handler: newMux(srv)}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("fleetd: serving %d vehicle(s) on %s", len(srv.Vehicles()), *listen)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		log.Printf("fleetd: %s: draining", sig)
	case err := <-errCh:
		log.Fatal("fleetd: ", err)
	}

	// Drain first so requests still arriving over open connections get
	// explicit RejectedDraining replies; then stop the listener.
	rep := srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx) //nolint:errcheck // drain already flushed all work
	log.Printf("fleetd: drained: flushed=%d shed=%d parked=%d cache_saved=%v",
		rep.Flushed, rep.Shed, rep.Parked, rep.CacheSaved)
}
