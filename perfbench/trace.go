package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/mcc"
)

// span is one traced interval. Spans of one unit of work share Req; a
// stage span's Parent is the call that ran it.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory; later spans are counted,
// not stored, so a long traced run cannot grow without bound.
const maxSpans = 200_000

// tracer keeps spans in memory and writes them out at exit. Untraced
// runs have none; their call sites pay one nil check per unit.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	nextID  uint64
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(req, parent uint64, name string, start, end time.Time) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	if len(t.spans) >= maxSpans {
		t.dropped++
		return t.nextID
	}
	t.spans = append(t.spans, span{
		Req: req, ID: t.nextID, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return t.nextID
}

// call records a span around one call into the system and, as its
// children, the report's stages. Report.Stages carries durations only, so
// the stage spans are laid end to end from the call's start in execution
// order; whatever of the call they leave uncovered is unattributed.
func (t *tracer) call(req uint64, name string, start, end time.Time, reps ...*mcc.Report) {
	id := t.add(req, 0, name, start, end)
	at := start
	for _, rep := range reps {
		for _, st := range rep.Stages {
			t.add(req, id, "mcc."+string(st.Stage), at, at.Add(st.Wall))
			at = at.Add(st.Wall)
		}
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stages lists the MCC pipeline stages in execution order; each becomes
// an mcc.<stage>_us layer metric.
var stages = []mcc.Stage{
	mcc.StageValidate, mcc.StageMapping, mcc.StageSynth, mcc.StageSafety,
	mcc.StageSecurity, mcc.StageTiming, mcc.StageMonitors, mcc.StageCommit,
}

// ledger accumulates the per-layer costs of the traced units of a run.
type ledger struct {
	decisions int
	stage     map[mcc.Stage]time.Duration
	passes    int
	scans     int
	checks    int
	// callWall sums the walls of the Propose* calls the bench timed
	// directly; callStages the stage time inside them.
	callWall, callStages time.Duration
	// overrun counts calls whose stages sum past the call's own wall, a
	// ledger that does not add up.
	overrun int
	// barrier sums, per stream chunk, the chunk wall minus the stage
	// walls of its reports.
	barrier time.Duration
	chunks  int
	// flowEdit holds the walls of decisions that changed the flow set;
	// queue holds fleet.Server.Propose walls minus their stage time.
	flowEdit []time.Duration
	queue    []time.Duration
}

func newLedger() *ledger { return &ledger{stage: make(map[mcc.Stage]time.Duration)} }

// report adds one decision's counters and returns its stage time.
func (l *ledger) report(rep *mcc.Report) time.Duration {
	l.decisions++
	l.passes += rep.Passes
	l.scans += rep.TimingScans
	l.checks += rep.SafetyChecks + rep.SecurityChecks
	var sum time.Duration
	for _, st := range rep.Stages {
		l.stage[st.Stage] += st.Wall
		sum += st.Wall
	}
	return sum
}

// call adds one directly timed Propose* call.
func (l *ledger) call(rep *mcc.Report, wall time.Duration) {
	st := l.report(rep)
	l.callWall += wall
	l.callStages += st
	if st > wall {
		l.overrun++
	}
}

// chunk adds one StreamScheduler.Run chunk.
func (l *ledger) chunk(reps []*mcc.Report, wall time.Duration) {
	var st time.Duration
	for _, rep := range reps {
		st += l.report(rep)
	}
	l.barrier += wall - st
	l.chunks++
}

func (l *ledger) perDecisionUS(d time.Duration) float64 {
	if l.decisions == 0 {
		return 0
	}
	return us(d) / float64(l.decisions)
}

func (l *ledger) perDecision(n int) float64 {
	if l.decisions == 0 {
		return 0
	}
	return float64(n) / float64(l.decisions)
}

// layers fills the mcc.* and stream.barrier_us metrics of the ledger.
func (l *ledger) layers(out map[string]float64) {
	for _, s := range stages {
		out[fmt.Sprintf("mcc.%s_us", s)] = l.perDecisionUS(l.stage[s])
	}
	out["mcc.unattributed_us"] = l.perDecisionUS(l.callWall - l.callStages)
	out["mcc.passes_per_decision"] = l.perDecision(l.passes)
	out["mcc.timing_scans_per_decision"] = l.perDecision(l.scans)
	out["mcc.checks_per_decision"] = l.perDecision(l.checks)
	out["mcc.flow_edit_us_p50"] = us(quantile(l.flowEdit, 0.5))
	if l.chunks > 0 {
		out["stream.barrier_us"] = us(l.barrier) / float64(l.chunks)
	}
	out["fleet.queue_us_p50"] = us(quantile(l.queue, 0.5))
}

// reconcile checks the propose ledger: every stage a report recorded is
// one of the known stages, and no call's stages sum past the call's own
// wall. Then the mcc.<stage>_us means plus mcc.unattributed_us add up to
// the mean measured call wall, with a residual that is never negative.
func (l *ledger) reconcile() error {
	if l.overrun > 0 {
		return fmt.Errorf("ledger: %d call(s) whose stage walls exceed the call wall", l.overrun)
	}
	var sum time.Duration
	for _, s := range stages {
		sum += l.stage[s]
	}
	if sum != l.callStages {
		return fmt.Errorf("ledger: %v of stage wall outside the known stages", l.callStages-sum)
	}
	return nil
}
