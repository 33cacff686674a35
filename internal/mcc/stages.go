package mcc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpa"
	"repro/internal/faultinject"
	"repro/internal/mcc/pipeline"
	"repro/internal/model"
	"repro/internal/safety"
	"repro/internal/security"
)

// This file implements the built-in pipeline stages of the MCC. Each stage
// holds a pointer back to the controller for the committed snapshot, the
// attempt handoff and the memoizing analyzer; the pure viewpoint checks
// (safety, security) are stateless. Stages work incrementally when the
// context says so and from scratch otherwise.

// --- Stage 1: contract validation -----------------------------------------

type validateStage struct{ m *MCC }

func (s *validateStage) Name() Stage { return StageValidate }

func (s *validateStage) Run(ctx *pipeline.Context) error {
	if ctx.Diff.Full() {
		if err := s.m.candidate(ctx).Validate(); err != nil {
			return pipeline.Rejectf("%s", err)
		}
		return nil
	}
	return s.runIncremental(ctx)
}

// runIncremental re-checks only what the diff can have invalidated: the
// contracts of changed functions and their flow neighborhoods, plus the
// global invariants (unique names, resolvable services) that a removal
// anywhere can break. The rule set itself lives in
// model.ValidateScoped — the same code path as the full validation — so
// the two can never drift apart.
func (s *validateStage) runIncremental(ctx *pipeline.Context) error {
	d := ctx.Diff
	if d.Empty() {
		ctx.Note("no-op: candidate identical to deployed")
		return nil
	}
	if done, err := s.fastVerdict(ctx); done {
		return err
	}
	cand := s.m.candidate(ctx)
	nb := d.Neighborhood(cand)
	err := cand.ValidateScoped(
		// Contracts of untouched functions were validated when they were
		// committed; only the diff neighborhood needs a re-check.
		func(name string) bool { return nb[name] },
		// Likewise for flows: only flows touching changed functions (or a
		// changed flow set) can have become invalid.
		func(fl model.Flow) bool { return d.FlowsChanged || nb[fl.From] || nb[fl.To] },
	)
	if err != nil {
		return pipeline.Rejectf("%s", err)
	}
	ctx.Note("re-checked %d/%d function scopes", len(nb), len(cand.Functions))
	return nil
}

// fastVerdict decides the common single-change shapes without walking
// the candidate: a changed function with an unchanged service surface
// only needs its contract re-checked, an added function additionally its
// requires resolved against the committed provider lists, a removal of
// a provide-less function can invalidate nothing (its flows were cut
// with it). Anything it cannot prove clean — including every suspected
// violation — falls back to the scoped walk, which produces the exact
// finding the from-scratch path would.
func (s *validateStage) fastVerdict(ctx *pipeline.Context) (bool, error) {
	m, d := s.m, ctx.Diff
	if d.TouchedCount() != 1 {
		return false, nil
	}
	if d.FlowsChanged && len(d.Removed) != 1 {
		return false, nil // arbitrary flow edits: walk the flow set
	}
	if len(d.Removed) == 1 {
		old := m.snap.fn(d.Removed[0])
		if old == nil || len(old.Provides) > 0 {
			// A dropped provider may orphan committed requirers.
			return false, nil
		}
		ctx.Note("fast: removal provides no services, flows cut with it")
		return true, nil
	}
	var name string
	if len(d.Changed) == 1 {
		name = d.Changed[0]
	} else if len(d.Added) == 1 {
		name = d.Added[0]
	} else {
		return false, nil
	}
	neu := m.candFn(ctx, name)
	if neu == nil || neu.Name == "" {
		return false, nil
	}
	if err := neu.Contract.Validate(); err != nil {
		// The scoped walk's first (and only possible) finding here is this
		// contract error: committed names are unique and non-empty, every
		// committed contract validated when it committed, and the walk
		// checks contracts before service resolution. Reject directly, in
		// the walk's exact wrapping, instead of paying its O(n) map build.
		return true, pipeline.Rejectf("model: function %q: %s", name, err)
	}
	old := m.snap.fn(name)
	if old != nil {
		// Changed: with Provides/Requires unchanged, the committed service
		// resolution and every committed flow check still hold verbatim.
		if !slices.Equal(old.Provides, neu.Provides) || !slices.Equal(old.Requires, neu.Requires) {
			return false, nil
		}
		ctx.Note("fast: contract re-checked, service surface unchanged")
		return true, nil
	}
	// Added: no committed flow can reference the new name (flow endpoints
	// must exist when they commit); only its requires need resolving.
	for _, svc := range neu.Requires {
		if len(m.snap.prov.get(svc)) == 0 && !slices.Contains(neu.Provides, svc) {
			return false, nil
		}
	}
	ctx.Note("fast: added function's contract and required services verified")
	return true, nil
}

// --- Stage 2: mapping ------------------------------------------------------

type mappingStage struct{ m *MCC }

func (s *mappingStage) Name() Stage { return StageMapping }

// Run places by the one policy of every pass: the committed instances of
// untouched functions stay, the diff is best-fit around them, and every
// function is best-fit from nothing when the diff does not fit or on the
// retry pass (attempt.full, see MCC.decide). The kept load comes from the
// capacity index on a warm pass and is re-accounted on any other.
func (s *mappingStage) Run(ctx *pipeline.Context) error {
	m := s.m
	if !ctx.Diff.Full() {
		if tech, kept, placed, ok := m.mapWarmStart(ctx); ok {
			ctx.Tech, ctx.Warm, m.att.kept = tech, true, true
			ctx.Note("warm-start: kept %d instances, placed %d", kept, placed)
			return nil
		}
		ctx.Note("warm-start infeasible, fell back to full best-fit")
	}
	tech, err := m.mapToPlatform(m.candidate(ctx), ctx.Diff.Full() && !m.att.full)
	if err != nil {
		return pipeline.Rejectf("%s", err)
	}
	ctx.Tech = tech
	return nil
}

// sortByConstraint orders functions for placement: hardest constraints
// first (safety desc, utilization desc, name). The keys are taken once
// into one array, so a from-scratch sort of every function neither
// recomputes utilizations nor chases function pointers per comparison.
func sortByConstraint(fns []*model.Function) {
	if len(fns) < 2 {
		return
	}
	type keyed struct {
		safety model.SafetyLevel
		util   int64
		f      *model.Function
	}
	keys := make([]keyed, len(fns))
	for i, f := range fns {
		keys[i] = keyed{f.Contract.Safety, utilPPM(f), f}
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		if a.safety != b.safety {
			return cmp.Compare(b.safety, a.safety)
		}
		if a.util != b.util {
			return cmp.Compare(b.util, a.util)
		}
		return strings.Compare(a.f.Name, b.f.Name)
	})
	for i := range keys {
		fns[i] = keys[i].f
	}
}

// bestFit is the placement routine of every pass: it places every replica
// of fns, hardest constraints first, over the loads p holds and appends
// them to out. A placer over an index of its own flushes each function's
// charges into it. It fails on the first replica that fits nowhere.
func (p *placer) bestFit(fns []*model.Function, out []model.Instance) ([]model.Instance, error) {
	sortByConstraint(fns)
	for _, f := range fns {
		n := len(out)
		var ok bool
		if out, ok = p.place(f, out); !ok {
			return out, fmt.Errorf("mcc: no feasible processor for %s#%d (safety %v, util %.1f%%, ram %d KiB)",
				f.Name, len(out)-n, f.Contract.Safety, float64(utilPPM(f))/10000, f.Contract.Resources.RAMKiB)
		}
		if p.e != 0 {
			p.flush()
		}
	}
	return out, nil
}

// mapWarmStart is the warm pass's placement, in O(diff): the touched
// functions' committed charges are subtracted in the placer's overlay over
// the committed capacity index — integer-exact, so the loads equal
// mapToPlatform's re-accounting — and the diff is best-fit over index plus
// overlay, in O(log P) per replica while capacity is not tight. Nothing
// committed is written: the overlay goes to the commit, the placements
// into the reset synthesis overlay (no flat instance list is assembled;
// DeployedImpl materializes it on demand). It reports ok=false when the
// diff does not fit.
func (m *MCC) mapWarmStart(ctx *pipeline.Context) (tech *model.TechnicalArchitecture, kept, placed int, ok bool) {
	d, over := ctx.Diff, m.synth.reset()

	p := &placer{m: m, tree: m.snap.capacity}
	cut := 0
	for _, names := range [3][]string{d.Added, d.Changed, d.Removed} {
		for _, name := range names {
			old := m.snap.fns.get(name)
			cut += len(old.insts)
			for _, in := range old.insts {
				if old.fn == nil || !p.discount(old.fn, in.Processor) {
					return nil, 0, 0, false // stale committed state; decide cold
				}
			}
		}
	}

	todo, total := over.todo[:0], 0
	for _, names := range [2][]string{d.Added, d.Changed} {
		for _, name := range names {
			if f := m.candFn(ctx, name); f != nil {
				todo, total = append(todo, f), total+f.EffectiveReplicas()
			}
		}
	}
	over.todo = todo
	ins, err := p.bestFit(todo, make([]model.Instance, 0, total))
	if err != nil {
		return nil, 0, 0, false
	}
	for _, f := range todo { // bestFit's order: one run of replicas each
		n := f.EffectiveReplicas()
		over.insts[f.Name], ins = ins[:n:n], ins[n:]
	}
	m.att.over = p.over
	return &model.TechnicalArchitecture{Platform: m.platform, Func: ctx.Candidate}, m.snap.instTotal - cut, total, true
}

// mapToPlatform places the whole candidate fa of a from-scratch pass: with
// keep set, around the committed instances keepCommitted keeps, else (or
// when the diff does not fit) from nothing. Validation has checked fa and
// New the platform, so only the placement's own rules are checked here;
// the accepted placement becomes the pass index (m.att.index).
func (m *MCC) mapToPlatform(fa *model.FunctionalArchitecture, keep bool) (*model.TechnicalArchitecture, error) {
	total := 0
	for i := range fa.Functions {
		total += fa.Functions[i].EffectiveReplicas()
	}
	p := &placer{m: m, tree: m.layout.zero, e: m.newEpoch()}
	todo, instances := make([]*model.Function, 0, len(fa.Functions)), make([]model.Instance, 0, total)
	if keep {
		todo, instances = m.keepCommitted(p, fa, todo, instances)
	}
	if !m.att.kept {
		for i := range fa.Functions {
			todo = append(todo, &fa.Functions[i])
		}
	}
	instances, err := p.bestFit(todo, instances)
	if err != nil && m.att.kept {
		m.att.kept = false
		return m.mapToPlatform(fa, false)
	}
	if err != nil {
		return nil, err
	}
	slices.SortFunc(instances, compareInstances)
	tech := &model.TechnicalArchitecture{Platform: m.platform, Func: fa, Instances: instances}
	if err := tech.ValidatePlacement(); err != nil {
		return nil, err
	}
	m.att.index = newPassIndex(fa, instances, m.procIdx)
	return tech, nil
}

// keepCommitted appends the committed instances of fa's untouched
// functions (deployed in an equal version) to kept and re-accounts their
// loads onto p's zero-load index from the committed instance list, never
// reading the capacity index; the other functions go to todo. It sets
// m.att.kept unless nothing is committed.
func (m *MCC) keepCommitted(p *placer, fa *model.FunctionalArchitecture, todo []*model.Function, kept []model.Instance) ([]*model.Function, []model.Instance) {
	dep := m.Deployed()
	if len(dep.Functions) == 0 {
		return todo, kept
	}
	old := make(map[string]*model.Function, len(dep.Functions))
	for i := range dep.Functions {
		old[dep.Functions[i].Name] = &dep.Functions[i]
	}
	same := make(map[string]*model.Function, len(fa.Functions))
	for i := range fa.Functions {
		if f := &fa.Functions[i]; old[f.Name] != nil && old[f.Name].Equal(*f) {
			same[f.Name] = f
		} else {
			todo = append(todo, f)
		}
	}
	for _, in := range m.DeployedImpl().Tech.Instances {
		if f := same[in.Function]; f != nil {
			p.charge(f, m.procIdx[in.Processor], 1)
			p.flush()
			kept = append(kept, in)
		}
	}
	m.att.kept = true
	return todo, kept
}

// compareInstances is Instance.Less as a comparison function.
func compareInstances(a, b model.Instance) int {
	return cmp.Or(strings.Compare(a.Function, b.Function), cmp.Compare(a.Replica, b.Replica))
}

// --- Stage 3: implementation synthesis ------------------------------------

type synthStage struct{ m *MCC }

func (s *synthStage) Name() Stage { return StageSynth }

func (s *synthStage) Run(ctx *pipeline.Context) error {
	var impl *model.ImplementationModel
	var err error
	if ctx.Warm {
		impl, err = s.m.synthesizeIncremental(ctx)
	} else {
		impl, err = s.m.synthesize(ctx.Tech, &s.m.att.index)
	}
	if err != nil {
		return pipeline.Rejectf("%s", err)
	}
	ctx.Impl = impl
	ctx.Report.Impl = impl
	return nil
}

// synthOverlay is the diff-sized patch one incremental synthesis lays
// over the committed snapshot: an entry per diff-touched function (nil
// marks a removal), the touched functions' new replica placements, and
// the affected processors' rebuilt task lists and candidate resident
// lists (committed residents minus touched functions plus new
// placements), and the rewired clients' rows with the provider and
// requirer lists of the services an edit joins or leaves (see
// rewireSessions). The commit stage writes it into the next snapshot.
//
// The MCC owns one overlay (MCC.synth) and reuses it for every warm
// pass, like timingScratch: the warm start resets it, so its maps and
// lists keep their storage and a pass allocates only the values it may
// commit (placements, task and resident lists, rows, name lists), which
// the snapshot keeps once committed and the overlay never writes again.
type synthOverlay struct {
	fns       map[string]*model.Function
	insts     map[string][]model.Instance
	tasksOn   map[string][]model.Task
	instsOn   map[string][]model.Instance
	conns     map[string][]model.Connection
	prov, req map[string][]string
	// affected is the pass's ascending affected-processor list
	// (ctx.AffectedProcs).
	affected []string

	// Scratch of one pass: the warm start's placement order, one
	// processor's timed residents (synthesizeTasksOn), and the clients
	// a service-graph edit rewires.
	todo    []*model.Function
	cands   []taskCand
	clients map[string]bool
	names   []string
}

// reset empties the overlay for the next warm pass, keeping the storage
// of every map and list, and returns it.
func (o *synthOverlay) reset() *synthOverlay {
	if o.fns == nil {
		*o = synthOverlay{
			fns:     make(map[string]*model.Function),
			insts:   make(map[string][]model.Instance),
			tasksOn: make(map[string][]model.Task),
			instsOn: make(map[string][]model.Instance),
			conns:   make(map[string][]model.Connection),
			prov:    make(map[string][]string),
			req:     make(map[string][]string),
			clients: make(map[string]bool),
		}
		return o
	}
	clear(o.fns)
	clear(o.insts)
	clear(o.tasksOn)
	clear(o.instsOn)
	clear(o.conns)
	clear(o.prov)
	clear(o.req)
	clear(o.clients)
	clear(o.todo) // drop the pointers into the last candidate
	o.affected, o.todo = o.affected[:0], o.todo[:0]
	return o
}

// synthView resolves the function/instance lookups of one synthesis run:
// an overlay first, then the snapshot. The from-scratch path overlays the
// pass index's tables on no snapshot; the incremental path overlays the
// diff-touched entries on the committed snapshot — O(diff) instead of
// rebuilding both tables from the technical architecture.
type synthView struct {
	snap *snapshot
	over *synthOverlay
}

func (v *synthView) fn(name string) *model.Function {
	if f, ok := v.over.fns[name]; ok {
		return f // nil for removed functions
	}
	if v.snap != nil {
		return v.snap.fn(name)
	}
	return nil
}

func (v *synthView) instances(name string) []model.Instance {
	if _, touched := v.over.fns[name]; touched {
		return v.over.insts[name]
	}
	if v.snap != nil {
		return v.snap.fns.get(name).insts
	}
	return nil
}

// conns returns a client's candidate session rows: re-derived, dropped
// with a removed function, or committed.
func (v *synthView) conns(name string) []model.Connection {
	if rows, ok := v.over.conns[name]; ok {
		return rows
	}
	if f, touched := v.over.fns[name]; touched && f == nil {
		return nil
	}
	return v.snap.fns.get(name).conns
}

// candNames returns the candidate's provider or requirer list of svc:
// the overlay's when the change altered it, else the committed one.
func candNames(over map[string][]string, committed *pmap[[]string], svc string) []string {
	if l, ok := over[svc]; ok {
		return l
	}
	return committed.get(svc)
}

func (v *synthView) requirers(svc string) []string { return candNames(v.over.req, &v.snap.req, svc) }

// elected names the candidate's provider of svc ("" if none).
func (v *synthView) elected(svc string) string {
	if l := candNames(v.over.prov, &v.snap.prov, svc); len(l) > 0 {
		return l[0]
	}
	return ""
}

// synthOverlay builds the candidate's lookup view against the committed
// tables: the diff names its touched functions, whose candidate values
// are collected directly, everything untouched resolves through the
// snapshot (whose entries are value-identical under the warm-started
// mapping). The warm start that precedes every warm synthesis has reset
// the overlay and written the fresh placements into it, keyed by
// function and replica-ascending — the exact per-function lists
// of a from-scratch pass index — so no flat candidate instance list is
// needed. No lookup table is rebuilt and no candidate-sized scan runs —
// cost is O(diff).
func (m *MCC) synthOverlay(ctx *pipeline.Context) (*synthView, *synthOverlay) {
	d, over := ctx.Diff, &m.synth
	for _, name := range d.Removed {
		over.fns[name] = nil
	}
	for _, names := range [2][]string{d.Added, d.Changed} {
		for _, name := range names {
			if f := m.candFn(ctx, name); f != nil {
				over.fns[f.Name] = f
			}
		}
	}
	return &synthView{snap: m.snap, over: over}, over
}

// taskCand is one timed resident of a processor while its task set is
// derived.
type taskCand struct {
	inst model.Instance
	fn   *model.Function
}

// synthesizeTasksOn derives the deadline-monotonic task set of one
// processor (WCET scaled by the processor speed) from its resident
// instance list. The list order is irrelevant: the deadline-monotonic
// sort's comparator is total (ties break on Instance.Less). committed is
// the processor's committed task list (nil on the cold path); a resident
// that keeps its place in it keeps its task name, so only a new
// placement, or a resident whose deadline changed, builds one.
func (m *MCC) synthesizeTasksOn(look *synthView, pn string, insts []model.Instance, committed []model.Task) []model.Task {
	var p *model.Processor
	if i, ok := m.procIdx[pn]; ok {
		p = &m.platform.Processors[i]
	}
	cands := m.synth.cands[:0]
	for _, in := range insts {
		f := look.fn(in.Function)
		if f == nil || !f.Contract.RealTime.HasTiming() {
			continue
		}
		cands = append(cands, taskCand{in, f})
	}
	// Deadline-monotonic order.
	slices.SortFunc(cands, func(a, b taskCand) int {
		return cmp.Or(
			cmp.Compare(a.fn.Contract.RealTime.EffectiveDeadlineUS(), b.fn.Contract.RealTime.EffectiveDeadlineUS()),
			strings.Compare(a.inst.Function, b.inst.Function), // then Instance.Less
			cmp.Compare(a.inst.Replica, b.inst.Replica))
	})
	tasks := make([]model.Task, 0, len(cands))
	for i, c := range cands {
		rt := c.fn.Contract.RealTime
		var name string
		name, committed = committedTaskName(committed, rt.EffectiveDeadlineUS(), c.inst)
		tasks = append(tasks, model.Task{
			Name:       name,
			Processor:  pn,
			Priority:   i + 1,
			PeriodUS:   rt.PeriodUS,
			JitterUS:   rt.JitterUS,
			WCETUS:     int64(float64(rt.WCETUS) / p.SpeedFactor),
			DeadlineUS: rt.EffectiveDeadlineUS(),
			Safety:     c.fn.Contract.Safety,
		})
	}
	// The list is the next call's scratch; drop its function pointers.
	clear(cands)
	m.synth.cands = cands[:0]
	return tasks
}

// committedTaskName returns the name of the task that realizes in with
// the given deadline, taken from a committed deadline-monotonic task list
// when the list holds it and built otherwise. Callers ask in
// deadline-monotonic order, so the list is consumed as it is searched:
// the second result is the part left for the next instance.
func committedTaskName(committed []model.Task, deadline int64, in model.Instance) (string, []model.Task) {
	for len(committed) > 0 {
		t := &committed[0]
		i := strings.LastIndexByte(t.Name, '#')
		replica, _ := strconv.Atoi(t.Name[i+1:])
		order := cmp.Or(
			cmp.Compare(t.DeadlineUS, deadline),
			strings.Compare(t.Name[:i], in.Function),
			cmp.Compare(replica, in.Replica))
		if order > 0 {
			break
		}
		committed = committed[1:]
		if order == 0 {
			return t.Name, committed
		}
	}
	return in.ID(), committed
}

// synthesizeMessages derives the network messages of the candidate's
// flows: for every periodic flow whose replica pairs land on different
// processors, one message per distinct network crossed (deterministic
// order). A flow whose replica pairs cross several networks loads each of
// them — charging only one bus would leave the others' real load out of
// the timing acceptance test.
func (m *MCC) synthesizeMessages(flows []model.Flow, look *synthView) ([]model.Message, error) {
	type msgCand struct {
		flow model.Flow
		nets []string // distinct crossed networks, sorted
	}
	var msgs []msgCand
	for _, fl := range flows {
		if fl.PeriodUS <= 0 {
			continue // sporadic flows handled by rate monitors only
		}
		fromInsts := look.instances(fl.From)
		toInsts := look.instances(fl.To)
		var nets []string
		for _, fi := range fromInsts {
			for _, ti := range toInsts {
				if fi.Processor == ti.Processor {
					continue
				}
				n := m.connecting(fi.Processor, ti.Processor)
				if n == nil {
					return nil, fmt.Errorf("mcc: no network connects %s and %s for flow %s->%s",
						fi.Processor, ti.Processor, fl.From, fl.To)
				}
				if !slices.Contains(nets, n.Name) {
					nets = append(nets, n.Name)
				}
			}
		}
		if len(nets) == 0 {
			continue
		}
		slices.Sort(nets)
		msgs = append(msgs, msgCand{fl, nets})
	}
	// Deadline(=period)-monotonic message priorities per network.
	slices.SortFunc(msgs, func(a, b msgCand) int {
		return cmp.Or(
			cmp.Compare(a.flow.PeriodUS, b.flow.PeriodUS),
			strings.Compare(a.flow.Service, b.flow.Service),
			strings.Compare(a.flow.From, b.flow.From),
			strings.Compare(a.flow.To, b.flow.To))
	})
	var out []model.Message
	prioByNet := make(map[string]int, len(m.platform.Networks))
	for _, mc := range msgs {
		for _, nn := range mc.nets {
			prioByNet[nn]++
			name := mc.flow.Service + ":" + mc.flow.From + "->" + mc.flow.To
			if len(mc.nets) > 1 {
				name += "@" + nn // disambiguate the per-network copies
			}
			out = append(out, model.Message{
				Name:       name,
				Network:    nn,
				Priority:   prioByNet[nn],
				Bytes:      mc.flow.MsgBytes,
				PeriodUS:   mc.flow.PeriodUS,
				DeadlineUS: mc.flow.PeriodUS,
			})
		}
	}
	return out, nil
}

// synthesizeConnections wires every requirer to the elected provider of
// each service it requires: the lowest-named function providing it.
func synthesizeConnections(tech *model.TechnicalArchitecture, look *synthView) ([]model.Connection, error) {
	elected := make(map[string]string)
	for i := range tech.Func.Functions {
		f := &tech.Func.Functions[i]
		for _, svc := range f.Provides {
			if cur, ok := elected[svc]; !ok || f.Name < cur {
				elected[svc] = f.Name
			}
		}
	}
	var out []model.Connection
	var err error
	for ins := tech.Instances; len(ins) > 0; {
		n := 1
		for n < len(ins) && ins[n].Function == ins[0].Function {
			n++
		}
		out, err = appendClientRows(out, look, look.fn(ins[0].Function), ins[:n], func(svc string) string { return elected[svc] })
		if err != nil {
			return nil, err
		}
		ins = ins[n:]
	}
	return out, nil
}

// appendClientRows is the per-client row builder of both synthesis
// paths: for every replica of client (insts), one row per required
// service in Requires order, served by replica 0 of the provider elect
// names ("" for an unprovided service).
func appendClientRows(out []model.Connection, look *synthView, client *model.Function, insts []model.Instance, elect func(string) string) ([]model.Connection, error) {
	if client == nil {
		return out, nil
	}
	for _, in := range insts {
		for _, svc := range client.Requires {
			provName := elect(svc)
			if provName == "" {
				return nil, fmt.Errorf("mcc: unprovided service %q", svc)
			}
			prov := look.instances(provName)
			if len(prov) == 0 {
				return nil, fmt.Errorf("mcc: provider %q not deployed", provName)
			}
			out = append(out, model.Connection{
				Client:      in.ID(),
				Server:      prov[0].ID(),
				Service:     svc,
				CrossDomain: client.Contract.Domain != look.fn(provName).Contract.Domain,
			})
		}
	}
	return out, nil
}

// rewireSessions patches the candidate's session graph onto the committed
// one and reports whether the change edits it at all (connTouched). The
// services an edited function joins or leaves get new provider and
// requirer lists, and rows are re-derived for exactly the clients the
// change can rewire: the edited functions, and the requirers of every
// service whose elected provider changed or is itself edited. Every other
// client's rows — a touched one's included — would re-derive verbatim, so
// they stay committed. Cost is the rewired rows, not the platform.
func (m *MCC) rewireSessions(look *synthView, over *synthOverlay) (bool, error) {
	var buf [4]string
	edited := buf[:0]
	for name, neu := range over.fns {
		if connTouched(m.snap.fn(name), neu) {
			edited = append(edited, name)
		}
	}
	if len(edited) == 0 {
		return false, nil
	}
	clients := over.clients
	for _, name := range edited {
		old, neu := m.snap.fn(name), over.fns[name]
		var np, nr []string
		if neu != nil {
			np, nr = neu.Provides, neu.Requires
			clients[name] = true
		}
		for _, f := range [2]*model.Function{old, neu} {
			if f == nil {
				continue
			}
			for _, svc := range f.Provides {
				over.prov[svc] = withName(candNames(over.prov, &m.snap.prov, svc), name, slices.Contains(np, svc))
			}
			for _, svc := range f.Requires {
				over.req[svc] = withName(look.requirers(svc), name, slices.Contains(nr, svc))
			}
		}
	}
	for svc, l := range over.prov {
		// An untouched provider resolves to one value on both sides, which
		// connTouched never flags.
		if was := m.snap.prov.get(svc); len(l) == 0 || len(was) == 0 || l[0] != was[0] ||
			connTouched(m.snap.fn(l[0]), look.fn(l[0])) {
			for _, c := range look.requirers(svc) {
				clients[c] = true
			}
		}
	}
	names := over.names[:0]
	for name := range clients {
		names = append(names, name)
	}
	slices.Sort(names)
	over.names = names
	for _, name := range names { // deterministic first error
		rows, err := appendClientRows(nil, look, look.fn(name), look.instances(name), look.elected)
		if err != nil {
			return true, err
		}
		over.conns[name] = rows
	}
	return true, nil
}

// synthesize derives the full implementation model of tech, whose pass
// index is ix: per-processor tasks with deadline-monotonic priorities
// (WCET scaled by processor speed), kept in ix.tasksOn as well,
// inter-processor messages from flows, and sessions from service
// requirements. tech's parts are validated already, so only the derived
// parts are checked.
func (m *MCC) synthesize(tech *model.TechnicalArchitecture, ix *passIndex) (*model.ImplementationModel, error) {
	impl := &model.ImplementationModel{Tech: tech}
	look := &synthView{over: &synthOverlay{fns: ix.fns, insts: ix.insts}}

	ix.tasksOn = make([][]model.Task, len(ix.instsOn))
	total := 0
	for _, pn := range m.procs {
		i := m.procIdx[pn]
		ix.tasksOn[i] = m.synthesizeTasksOn(look, pn, ix.instsOn[i], nil)
		total += len(ix.tasksOn[i])
	}
	impl.Tasks = slices.Grow(impl.Tasks, total)
	for _, pn := range m.procs {
		impl.Tasks = append(impl.Tasks, ix.tasksOn[m.procIdx[pn]]...)
	}
	msgs, err := m.synthesizeMessages(tech.Func.Flows, look)
	if err != nil {
		return nil, err
	}
	impl.Messages = msgs
	conns, err := synthesizeConnections(tech, look)
	if err != nil {
		return nil, err
	}
	impl.Connections = conns

	if err := impl.ValidateDerived(); err != nil {
		return nil, err
	}
	return impl, nil
}

// synthesizeIncremental rebuilds only the parts of the implementation
// model the diff can have changed, against the cached deployed model:
// tasks of processors hosting a touched instance (old or new placement),
// messages only when the flow topology or a flow endpoint changed, and
// the session rows of the clients a change to the service graph rewires.
// Everything else is copied from the deployed implementation.
// Callers guarantee the placement of untouched instances is unchanged
// (warm-started mapping), which is what makes the copies valid.
//
// Lookups resolve through the committed snapshot plus a diff-sized
// overlay — the tables are not re-derived, and untouched processors'
// task lists stay in the snapshot.
func (m *MCC) synthesizeIncremental(ctx *pipeline.Context) (*model.ImplementationModel, error) {
	tech, d := ctx.Tech, ctx.Diff
	dep := ctx.DeployedImpl
	impl := &model.ImplementationModel{Tech: tech}
	look, over := m.synthOverlay(ctx)

	// Processors affected by the diff: wherever a touched function's
	// instances were (committed lookup), or now are (overlay), ascending
	// by name — the order of MCC.procs and of the timing table's slots.
	affected := over.affected[:0]
	for name := range over.fns {
		for _, in := range m.snap.fns.get(name).insts {
			affected = append(affected, in.Processor)
		}
		for _, in := range over.insts[name] {
			affected = append(affected, in.Processor)
		}
	}
	slices.Sort(affected)
	affected = slices.Compact(affected)
	over.affected = affected

	// Rebuild the affected processors' task lists; the candidate's flat
	// task list stays unmaterialized (impl.Tasks is nil). The rebuilt
	// lists live in over.tasksOn, every untouched processor keeps its
	// committed list in the snapshot, and every consumer of the
	// incremental path reads one of the two (timing-job construction,
	// monitor delta, custom viewpoints via ctx.Tasks()); DeployedImpl
	// materializes the committed flat list on demand for whole-model
	// readers. Assembling — and allocating — the platform-sized splice
	// here was the single largest O(n) term of the accepted-change path.
	// The sorted iteration keeps the first-error selection of the
	// per-task validation deterministic.
	for _, pn := range affected {
		insts := m.residentInstances(pn, over)
		over.instsOn[pn] = insts
		rebuilt := m.synthesizeTasksOn(look, pn, insts, m.proc(pn).tasks)
		// Scoped validation of the rebuilt task set (the spliced ones
		// were validated at commit time), through the same Task
		// invariant the full impl.Validate enforces — without it, a
		// WCET that rounds to zero under speed scaling would sail
		// through here while the from-scratch path rejects it.
		for _, t := range rebuilt {
			if err := t.Validate(); err != nil {
				return nil, err
			}
		}
		over.tasksOn[pn] = rebuilt
	}
	reusedProcs := len(m.procs) - len(affected)
	ctx.TasksFn = func() []model.Task { return m.candTasks(over) }

	// Messages change only when the flow set changed or a flow endpoint
	// was touched (untouched endpoints keep their placement under the
	// warm-started mapping). With the flow set unchanged the candidate's
	// flows are the committed ones, so the committed flow-touch index
	// answers "is any touched function a flow endpoint" in O(diff). A
	// touched endpoint forces a rebuild only if its placement actually
	// moved: messages derive from flows and endpoint placements alone, so
	// a change that re-places every replica onto its committed processor
	// leaves every message identical.
	rebuildMsgs := d.FlowsChanged
	if !rebuildMsgs {
		for name := range over.fns {
			if m.snap.flowTouch[name] && placementChanged(m.snap.fns.get(name).insts, over.insts[name]) {
				rebuildMsgs = true
				break
			}
		}
	}
	if rebuildMsgs {
		// A rebuild re-derives every message from the whole candidate's
		// flow list; the timing stage re-derives every network's job, and
		// a network whose list came out unchanged keeps its digest, so it
		// stays clean.
		msgs, err := m.synthesizeMessages(m.candidate(ctx).Flows, look)
		if err != nil {
			return nil, err
		}
		impl.Messages = msgs
	} else {
		// The committed slice is immutable once built; alias it.
		impl.Messages = dep.Messages
	}

	// The session graph changes only when a touched function alters what
	// it provides or requires, its trust domain, or its replica count:
	// connection endpoints are function#replica IDs, provider election
	// reads only the Provides sets, and CrossDomain only the two domains.
	// Only the rewired clients' rows are re-derived; the candidate's flat
	// list stays unmaterialized (impl.Connections is nil), consumers read
	// the per-client rows, and DeployedImpl materializes it on demand.
	rebuildConns, err := m.rewireSessions(look, over)
	if err != nil {
		return nil, err
	}

	// Record what the partial synthesis actually rebuilt so later stages
	// (timing-job construction, monitor planning) can splice their own
	// cached artifacts for the untouched remainder, and hand the lookup
	// overlay to the commit stage.
	ctx.AffectedProcs = affected
	ctx.MessagesRebuilt = rebuildMsgs
	m.att.synth = over

	ctx.Note("reused %d/%d processors, messages %s, connections %s",
		reusedProcs, len(m.platform.Processors), reusedWord(!rebuildMsgs), reusedWord(!rebuildConns))
	return impl, nil
}

// residentInstances derives the candidate's instance list on one
// affected processor: the committed residents minus the touched
// functions' instances, plus the touched instances now placed there, in
// the (function, replica) order a from-scratch commit groups them in.
// Cost is the processor's population, not the platform's.
func (m *MCC) residentInstances(pn string, over *synthOverlay) []model.Instance {
	old := m.proc(pn).insts
	out := make([]model.Instance, 0, len(old)+2)
	for _, in := range old {
		if _, touched := over.fns[in.Function]; !touched {
			out = append(out, in)
		}
	}
	for name := range over.fns {
		for _, in := range over.insts[name] {
			if in.Processor == pn {
				out = append(out, in)
			}
		}
	}
	slices.SortFunc(out, compareInstances)
	return out
}

// candTasks materializes the candidate's flat task list from the
// committed per-processor lists plus the overlay's rebuilt ones, in the
// m.procs assembly order of every synthesis path. Only consumers that
// genuinely need the whole flat list pay for it (ctx.Tasks(), and
// DeployedImpl with an empty overlay). Non-nil even when empty, so the
// memoization in DeployedImpl sticks.
func (m *MCC) candTasks(over *synthOverlay) []model.Task {
	total := 0
	for _, pn := range m.procs {
		if tasks, ok := over.tasksOn[pn]; ok {
			total += len(tasks)
		} else {
			total += len(m.proc(pn).tasks)
		}
	}
	out := make([]model.Task, 0, total)
	for _, pn := range m.procs {
		if tasks, ok := over.tasksOn[pn]; ok {
			out = append(out, tasks...)
			continue
		}
		out = append(out, m.proc(pn).tasks...)
	}
	return out
}

// placementChanged reports whether a touched function's replica
// placements differ from its committed ones (both lists are
// replica-ascending).
func placementChanged(old, neu []model.Instance) bool {
	if len(old) != len(neu) {
		return true
	}
	for i := range old {
		if old[i].Processor != neu[i].Processor || old[i].Replica != neu[i].Replica {
			return true
		}
	}
	return false
}

// connTouched reports whether a function change can alter the session
// graph: the Provides/Requires sets, the trust domain, or the replica
// count changed. Connection rows are placement-independent
// (function#replica endpoints), so anything else cannot affect them.
func connTouched(old, neu *model.Function) bool {
	switch {
	case old == nil && neu == nil:
		return false
	case old == nil:
		return len(neu.Provides) > 0 || len(neu.Requires) > 0
	case neu == nil:
		return len(old.Provides) > 0 || len(old.Requires) > 0
	default:
		if !slices.Equal(old.Provides, neu.Provides) || !slices.Equal(old.Requires, neu.Requires) {
			return true
		}
		if len(old.Provides) == 0 && len(old.Requires) == 0 {
			return false
		}
		return old.Contract.Domain != neu.Contract.Domain ||
			old.EffectiveReplicas() != neu.EffectiveReplicas()
	}
}

func reusedWord(reused bool) string {
	if reused {
		return "reused"
	}
	return "rebuilt"
}

// --- Stage 4a: safety acceptance ------------------------------------------

// The safety and security stages are pure verdicts: they mutate nothing
// and decide on the mapping/synthesis artifacts alone. Under partial
// synthesis both run diff-scoped — only the entities the change can have
// altered are re-verified, everything else splices its committed-clean
// verdict (a configuration only commits after these stages accepted it,
// so the committed state carries no findings; the warm-started mapping
// keeps untouched placements, so unchanged inputs imply unchanged
// verdicts). The scoped verdict is therefore identical to the full check
// by construction. Both stages always decide inline, the stream
// scheduler's optimistic passes included: a from-scratch (cold) pass runs
// the full check, and a failing check rejects the change on the spot.

type safetyStage struct{ m *MCC }

func (s *safetyStage) Name() Stage { return StageSafety }

func (s *safetyStage) Run(ctx *pipeline.Context) error {
	if ctx.Warm {
		// Entity-driven, not whole-model scans: CheckScoped walks every
		// candidate instance and function even for a one-function change,
		// while the footprint here is a handful of names. The
		// touched functions resolve through the committed tables plus this
		// proposal's overlay (the same view the synthesis used), the
		// affected processors' candidate residents were just computed by
		// the partial synthesis (over.instsOn) — so nothing below reads
		// the unmaterialized flat lists, and the cost is O(diff).
		m, d := s.m, ctx.Diff
		var buf [4]string
		touched := append(append(append(buf[:0], d.Added...), d.Changed...), d.Removed...)
		slices.Sort(touched)
		over := m.att.synth
		view := &synthView{snap: m.snap, over: over}
		findings, checked := safety.CheckEntities(touched, ctx.AffectedProcs,
			view.fn,
			func(pn string) *model.Processor {
				if i, ok := m.procIdx[pn]; ok {
					return &m.platform.Processors[i]
				}
				return nil
			},
			view.instances,
			func(pn string) []model.Instance { return over.instsOn[pn] })
		ctx.Report.SafetyChecks += checked
		ctx.Note("scoped: %d verdicts for %d touched functions, %d affected processors",
			checked, ctx.Diff.TouchedCount(), len(ctx.AffectedProcs))
		return rejectFindings(findingStrings(findings))
	}
	findings, checked := safety.CheckScoped(ctx.Tech)
	ctx.Report.SafetyChecks += checked
	return rejectFindings(findingStrings(findings))
}

// --- Stage 4b: security acceptance ----------------------------------------

type securityStage struct{ m *MCC }

func (s *securityStage) Name() Stage { return StageSecurity }

func (s *securityStage) Run(ctx *pipeline.Context) error {
	if ctx.Warm {
		findings, checked := s.m.checkSecurityRows(ctx)
		ctx.Report.SecurityChecks += checked
		ctx.Note("scoped: re-checked %d connections", checked)
		return rejectFindings(findingStrings(findings))
	}
	findings, checked := security.CheckDomainsScoped(ctx.Impl)
	ctx.Report.SecurityChecks += checked
	return rejectFindings(findingStrings(findings))
}

// checkSecurityRows runs the cross-domain check diff-proportionally. A
// row gets a fresh verdict only when the diff touched its client or
// server function or the row is not committed (re-derived wiring); every
// other row was committed clean and splices. Such rows belong only to the
// touched clients, the re-derived ones, and the requirers of services
// whose elected provider (every row's server) the diff touched. Walking
// those clients by name, rows in order, follows the flat list's order, so
// the findings and the count equal a scan of the whole list.
func (m *MCC) checkSecurityRows(ctx *pipeline.Context) ([]security.Finding, int) {
	d, over := ctx.Diff, m.att.synth
	look := &synthView{snap: m.snap, over: over}
	var buf [8]string // the common footprint stays off the heap
	names := buf[:0]
	for name, f := range over.fns {
		if names = append(names, name); f == nil {
			continue
		}
		for _, svc := range f.Provides {
			if look.elected(svc) == name {
				names = append(names, look.requirers(svc)...)
			}
		}
	}
	for name := range over.conns {
		names = append(names, name)
	}
	slices.Sort(names)
	// Every candidate row's endpoints exist (re-derived from the candidate
	// placements, or kept with an unchanged replica count), so resolving
	// by function name equals the full check's instance-index resolution.
	resolve := func(id string) *model.Function { return look.fn(security.FunctionName(id)) }
	var out []security.Finding
	checked := 0
	for _, name := range slices.Compact(names) {
		for _, c := range look.conns(name) {
			if !d.Touched(name) && !d.Touched(security.FunctionName(c.Server)) && m.snap.connCommitted(c) {
				continue // committed clean, inputs unchanged: splice
			}
			checked++
			if f, bad := security.ConnectionVerdict(resolve(c.Client), resolve(c.Server), c); bad {
				out = append(out, f)
			}
		}
	}
	return out, checked
}

func findingStrings[T fmt.Stringer](findings []T) []string {
	out := make([]string, 0, len(findings))
	for _, f := range findings {
		out = append(out, f.String())
	}
	return out
}

// rejectFindings turns a non-empty findings list into a stage rejection.
func rejectFindings(findings []string) error {
	if len(findings) == 0 {
		return nil
	}
	return &pipeline.Reject{Findings: findings}
}

// --- Stage 4c: timing acceptance ------------------------------------------

type timingStage struct{ m *MCC }

func (s *timingStage) Name() Stage { return StageTiming }

func (s *timingStage) Run(ctx *pipeline.Context) error {
	jobs, scanned := s.m.timingJobs(ctx, ctx.Impl)
	out := s.m.analyzeTiming(ctx, jobs)
	ctx.Report.TimingDelta = out.delta
	ctx.Report.TimingScans += scanned
	ctx.Report.TimingDirty += out.dirty
	ctx.Report.TimingResources += out.total
	ctx.Note("%d/%d resources dirty, %d scanned", out.dirty, out.total, scanned)
	if out.transient {
		ctx.Report.TransientFault = true
	}
	if len(out.findings) > 0 {
		return &pipeline.Reject{Findings: out.findings}
	}
	return nil
}

// timingJob is one resource's share of the timing acceptance test. slot
// is the resource's committed-table slot: its rank in MCC.procs for a
// processor, len(procs)+i for platform network i. It is an int32 so that
// it packs next to spnp and a committed-table entry stays 96 bytes.
type timingJob struct {
	resource string
	slot     int32
	spnp     bool
	tasks    []cpa.Task
	digest   uint64
}

// committedRes is what a committed-table slot points to: a loaded
// resource's timing artifacts — the CPA job and its WCRT table —
// immutable once committed (an empty slot is nil, read as the zero value;
// see resTable). res.Results == nil marks a table not yet known: an
// optimistically committed resource whose deferred analysis has not been
// verified; a job matching such an entry is dirty and re-analyzes through
// the memo.
type committedRes struct {
	job timingJob
	res TimingResult
}

// loaded reports whether the slot holds a resource's job.
func (cr *committedRes) loaded() bool { return cr.job.resource != "" }

// timingOutcome aggregates the timing stage's results: the WCRT tables
// of exactly the resources this attempt re-analyzed (freshly allocated,
// report-owned — the delta contract), the acceptance findings (deadline
// misses and analysis errors), and the dirty/total telemetry counts (how
// many resources were re-analyzed, of how many the attempt covers).
type timingOutcome struct {
	delta    []TimingResult
	findings []string
	dirty    int
	total    int
	// transient marks that at least one finding stems from a transient
	// fault (injected error, recovered worker panic, corrupt memo entry)
	// rather than a real timing verdict; the degradation ladder
	// re-decides such rejections from scratch.
	transient bool
}

// timingScratch holds the MCC-owned buffers the timing stage reuses
// across proposals so the per-proposal hot path stops allocating: the job
// list, the slots it clears, and the merge buffers of the worker pool.
// Task slices inside committed jobs are never recycled — once a job is
// built its task slice is immutable, so the committed table and reports
// can alias it.
type timingScratch struct {
	jobs []timingJob
	// clears lists the loaded slots of resources an incremental pass
	// found without load any more; empty on a from-scratch pass, whose
	// job list is the whole new table.
	clears  []int
	results []TimingResult
	errs    []error
	dirty   []int
}

// buildProcJob derives the CPA job of processor k of m.procs from its
// task list in priority order (every synthesis path emits per-processor
// lists with unique ascending priorities). ok is false when the processor
// carries no load.
func (m *MCC) buildProcJob(k int, tasks []model.Task) (timingJob, bool) {
	if len(tasks) == 0 {
		return timingJob{}, false
	}
	ct := make([]cpa.Task, 0, len(tasks))
	for _, t := range tasks {
		ct = append(ct, cpa.Task{
			Name:       t.Name,
			Priority:   t.Priority,
			WCETUS:     t.WCETUS,
			Event:      cpa.EventModel{PeriodUS: t.PeriodUS, JitterUS: t.JitterUS},
			DeadlineUS: t.DeadlineUS,
		})
	}
	return timingJob{resource: m.procs[k], slot: int32(k), tasks: ct, digest: cpa.TaskSetDigest(ct)}, true
}

// buildNetJob derives the CPA message set of platform network i from its
// messages in priority order. ok is false when the network carries no
// load.
func (m *MCC) buildNetJob(i int, msgs []model.Message) (timingJob, bool) {
	n := &m.platform.Networks[i]
	if len(msgs) == 0 {
		return timingJob{}, false
	}
	ct := make([]cpa.Task, 0, len(msgs))
	for _, msg := range msgs {
		// Worst-case stuffed CAN frame time in µs.
		wcBits := int64(47 + 8*msg.Bytes + (34+8*msg.Bytes-1)/4)
		wcetUS := wcBits * 1_000_000 / n.BitsPerSec
		if wcetUS < 1 {
			wcetUS = 1
		}
		ct = append(ct, cpa.Task{
			Name:       msg.Name,
			Priority:   msg.Priority,
			WCETUS:     wcetUS,
			Event:      cpa.EventModel{PeriodUS: msg.PeriodUS},
			DeadlineUS: msg.DeadlineUS,
		})
	}
	return timingJob{resource: n.Name, slot: int32(len(m.procs) + i), spnp: true, tasks: ct, digest: cpa.TaskSetDigest(ct)}, true
}

// timingJobs derives the per-resource CPA task sets of the implementation
// model in deterministic resource order: processors (sorted by name), then
// networks (platform order). Resources without load are skipped; every
// job carries its committed-table slot.
//
// A from-scratch pass builds every loaded resource: processors from the
// task lists its synthesis kept in the pass index, networks from one
// grouping of the message list.
//
// Under partial synthesis the list is footprint-sized: only the resources
// the diff affected are built — processors from the task lists the
// synthesis overlay rebuilt, and every network after a message rebuild
// (a network whose list came out unchanged keeps its digest and stays
// clean) — and every untouched resource stays implicit in the committed
// table, whose slots the partial synthesis left byte-identical.
// An affected resource that lost its last load records its slot in
// scratch.clears.
func (m *MCC) timingJobs(ctx *pipeline.Context, impl *model.ImplementationModel) (jobs []timingJob, scanned int) {
	sc := &m.scratch
	jobs, sc.clears = sc.jobs[:0], sc.clears[:0]
	if !ctx.Warm {
		tasksOn := m.att.index.tasksOn
		for k, pn := range m.procs {
			if j, ok := m.buildProcJob(k, tasksOn[m.procIdx[pn]]); ok {
				jobs = append(jobs, j)
			}
		}
		for i, msgs := range m.messagesOn(impl.Messages) {
			if j, ok := m.buildNetJob(i, msgs); ok {
				jobs = append(jobs, j)
			}
		}
		sc.jobs = jobs
		return jobs, len(m.procs) + len(m.platform.Networks)
	}

	t := m.snap.res
	add := func(j timingJob, ok bool, slot int) {
		scanned++
		switch {
		case ok:
			jobs = append(jobs, j)
		case t.get(slot).loaded():
			sc.clears = append(sc.clears, slot)
		}
	}
	// The affected processors ascend by name, so their slots ascend too.
	for _, pn := range ctx.AffectedProcs {
		k := sort.SearchStrings(m.procs, pn)
		j, ok := m.buildProcJob(k, m.att.synth.tasksOn[pn])
		add(j, ok, k)
	}
	if ctx.MessagesRebuilt {
		for i, msgs := range m.messagesOn(impl.Messages) {
			j, ok := m.buildNetJob(i, msgs)
			add(j, ok, len(m.procs)+i)
		}
	}
	sc.jobs = jobs
	return jobs, scanned
}

// messagesOn groups msgs by platform network position, each group in
// ImplementationModel.MessagesOn's order (priority, then name): one pass
// over the list instead of one per network.
func (m *MCC) messagesOn(msgs []model.Message) [][]model.Message {
	nets := m.platform.Networks
	pos := make(map[string]int, len(nets))
	for i := range nets {
		pos[nets[i].Name] = i
	}
	out := make([][]model.Message, len(nets))
	for _, msg := range msgs {
		if i, ok := pos[msg.Network]; ok {
			out[i] = append(out[i], msg)
		}
	}
	for _, l := range out {
		slices.SortFunc(l, func(a, b model.Message) int {
			return cmp.Or(cmp.Compare(a.Priority, b.Priority), strings.Compare(a.Name, b.Name))
		})
	}
	return out
}

// deferredChecks carries one optimistically committed proposal's deferred
// acceptance checks (mcc.StreamScheduler): the dirty timing jobs —
// exactly the resources still needing a busy-window verdict, in
// deterministic resource order. Clean resources' tables live in the
// committed state and are not replicated here.
type deferredChecks struct {
	jobs []timingJob

	// tainted marks that a prefetch task for this proposal hit a fault
	// (injected error or recovered panic). The verification pass treats a
	// tainted record as failed, forcing the window's serial replay — the
	// memo table may hold partial or missing entries, so the optimistic
	// decision cannot be trusted.
	tainted atomic.Bool
}

// analyzeTiming runs CPA on every processor (SPP) and network (SPNP/CAN).
// With incremental integration, resources whose task-set digest matches
// their committed table slot are clean and reuse its WCRT table;
// dirty resources are fanned out over the worker pool and the results are
// merged back in deterministic resource order. A resource whose analysis
// fails (e.g. utilization >= 1, where the busy window does not terminate)
// is surfaced as a finding naming the resource — never dropped silently.
//
// Under ctx.DeferChecks the dirty analyses are not run at all: the jobs
// are recorded on the attempt's deferred-check record for the stream
// scheduler to batch onto the worker pool and re-validate, and no
// findings are raised.
func (m *MCC) analyzeTiming(ctx *pipeline.Context, jobs []timingJob) timingOutcome {
	m.att.jobs = jobs

	sc, t := &m.scratch, m.snap.res
	out := timingOutcome{total: len(jobs)}
	if ctx != nil && ctx.Warm {
		// The footprint-sized job list leaves every untouched committed
		// resource implicit; the attempt still covers all of them.
		out.total = t.loaded - len(sc.clears)
		for _, j := range jobs {
			if !t.get(int(j.slot)).loaded() {
				out.total++
			}
		}
	}
	// A job is clean when its committed slot has the same task-set digest
	// and a known WCRT table (nil marks a deferred analysis not yet
	// verified, which must run again).
	clean := func(i int) (TimingResult, bool) {
		if !m.incremental {
			return TimingResult{}, false
		}
		cr := t.get(int(jobs[i].slot))
		return cr.res, cr.job.digest == jobs[i].digest && cr.res.Results != nil
	}

	if ctx != nil && ctx.DeferChecks {
		// Record only the dirty jobs: clean resources keep their committed
		// tables (reachable through the report's committed handle), and
		// the delta stays empty until the verification pass fills it with
		// the deferred verdicts.
		dt := &deferredChecks{}
		m.att.deferred = dt
		for i := range jobs {
			if _, ok := clean(i); ok {
				continue
			}
			dt.jobs = append(dt.jobs, jobs[i])
			out.dirty++
		}
		return out
	}

	results := grow(&sc.results, len(jobs))
	errs := grow(&sc.errs, len(jobs))
	dirty := sc.dirty[:0]
	for i := range jobs {
		if tr, ok := clean(i); ok {
			results[i] = tr
			continue
		}
		dirty = append(dirty, i)
	}
	sc.dirty = dirty

	// Fan dirty resources out over the worker pool. Spawn at most
	// len(dirty)-1 extra goroutines (the proposing goroutine works too)
	// and hand out indices via an atomic counter — no feeder, no channel
	// teardown. Proposals dirtying only one or two resources, the common
	// fleet case, stay entirely on the proposing goroutine: goroutine
	// startup would cost more than the analyses.
	workers := m.workers
	if workers > len(dirty) {
		workers = len(dirty)
	}
	// Every analysis is panic-isolated, the proposal deadline is checked
	// before each job (an expired proposal stops analyzing and rejects
	// with the context error as a finding), and stalls inside the
	// injector are bounded by the proposal's done channel.
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	runOne := func(i int) {
		if ctx != nil && ctx.Expired() {
			errs[i] = ctx.Ctx.Err()
			return
		}
		results[i], errs[i] = m.runTimingJobSafe(done, jobs[i])
	}
	if workers <= 1 || len(dirty) <= minParallelDirty {
		for _, i := range dirty {
			runOne(i)
		}
	} else {
		runParallel(len(dirty), workers, func(k int) {
			runOne(dirty[k])
		})
	}

	out.dirty = len(dirty)
	m.att.results = results
	for i := range jobs {
		if errs[i] != nil {
			if isTransientErr(errs[i]) {
				out.transient = true
			}
			out.findings = append(out.findings,
				fmt.Sprintf("timing: analysis of %s failed: %v", jobs[i].resource, errs[i]))
			continue
		}
		for _, r := range results[i].Results {
			if !r.Schedulable {
				out.findings = append(out.findings,
					fmt.Sprintf("timing: %s on %s misses deadline (WCRT %dus > %dus)",
						r.Name, jobs[i].resource, r.WCRTUS, r.DeadlineUS))
			}
		}
	}
	// Report-owned delta: fresh deep copies of exactly the re-analyzed
	// resources' tables, in job order (dirty is ascending). Clean
	// resources' tables stay behind the committed handle. On a
	// from-scratch pass every job is dirty, so delta == full table.
	if len(dirty) > 0 {
		out.delta = make([]TimingResult, 0, len(dirty))
		for _, i := range dirty {
			if errs[i] == nil {
				out.delta = append(out.delta, pipeline.CloneTimingResult(results[i]))
			}
		}
	}
	return out
}

// minParallelDirty is the dirty-resource count below which the timing
// stage analyzes inline: for one or two dirty resources the goroutine
// startup cost dominates the busy-window iterations.
const minParallelDirty = 2

// runParallel executes run(0..n-1) on at most `workers` goroutines (the
// calling goroutine included), handing out indices via an atomic counter
// — no feeder goroutine, no channel teardown. Callers clamp workers and
// decide their own inline fast path.
func runParallel(n, workers int, run func(k int)) {
	var next atomic.Int64
	work := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= n {
				return
			}
			run(k)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// grow resizes a scratch buffer to n zeroed entries, reusing capacity.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	s := (*buf)[:n]
	clear(s)
	*buf = s
	return s
}

// Transient-fault sentinels of the timing path. A rejection caused by
// one of these (or by faultinject.ErrInjected) is classified transient:
// the degradation ladder re-decides the proposal from scratch instead of
// letting a fault masquerade as a real acceptance failure.
var (
	// errCacheCorrupt marks a memoized analysis whose result table does
	// not match its task set — the memo entry is corrupt. Detection
	// resets the analyzer (dropping every suspect entry).
	errCacheCorrupt = errors.New("mcc: timing memo entry corrupt")
	// errWorkerPanic marks a pooled analysis goroutine that panicked and
	// was recovered.
	errWorkerPanic = errors.New("mcc: timing worker panicked")
)

// isTransientErr classifies an analysis error as a recoverable fault
// rather than a real timing verdict.
func isTransientErr(err error) bool {
	return errors.Is(err, faultinject.ErrInjected) ||
		errors.Is(err, errCacheCorrupt) ||
		errors.Is(err, errWorkerPanic)
}

// maxAnalysisAttempts bounds the retry loop around one resource's
// analysis: the first attempt plus up to two retries of injected
// transient errors, with linear backoff between attempts.
const maxAnalysisAttempts = 3

// analyzeJob runs one resource's busy-window analysis, firing the
// "timing.worker" injection hook first. The memoized analyzer is used
// only on the normal incremental path; pinned and quarantined passes
// bypass both the hook and the memo, so a degraded decision can depend
// neither on injected faults nor on suspect cache state.
func (m *MCC) analyzeJob(done <-chan struct{}, j timingJob) ([]cpa.Result, error) {
	pinned := m.pinned || m.quarantined
	if !pinned {
		if _, fired, err := m.inject.Fire(done, "timing.worker", j.resource); fired && err != nil {
			return nil, err
		}
	}
	useMemo := m.incremental && !pinned
	switch {
	case useMemo && j.spnp:
		return m.analyzer.AnalyzeSPNPDigest(j.tasks, j.digest)
	case useMemo:
		return m.analyzer.AnalyzeSPPDigest(j.tasks, j.digest)
	case j.spnp:
		return cpa.AnalyzeSPNP(j.tasks)
	default:
		return cpa.AnalyzeSPP(j.tasks)
	}
}

// runTimingJob analyzes one resource, through the memoizing analyzer when
// incremental timing is on, or from scratch for the serial baseline.
// Transient injected errors are retried with linear backoff (bounded by
// maxAnalysisAttempts, counted in the retriedAnalyses telemetry), and
// the result table is sanity-checked against the task set — a mismatch
// means the memo entry is corrupt: the analyzer is reset and the error
// reported transient so the degradation ladder re-decides from scratch.
func (m *MCC) runTimingJob(done <-chan struct{}, j timingJob) (TimingResult, error) {
	var res []cpa.Result
	var err error
	for attempt := 0; ; attempt++ {
		res, err = m.analyzeJob(done, j)
		if err == nil || !errors.Is(err, faultinject.ErrInjected) || attempt+1 >= maxAnalysisAttempts {
			break
		}
		m.retriedAnalyses.Add(1)
		time.Sleep(time.Duration(attempt+1) * 50 * time.Microsecond)
	}
	if err != nil {
		return TimingResult{Resource: j.resource}, err
	}
	if len(res) != len(j.tasks) {
		// The busy-window analysis emits exactly one result per task; a
		// shorter table can only come from a damaged memo entry.
		m.analyzer.Reset()
		return TimingResult{Resource: j.resource},
			fmt.Errorf("%w: %s returned %d results for %d tasks", errCacheCorrupt, j.resource, len(res), len(j.tasks))
	}
	return TimingResult{Resource: j.resource, Results: res}, nil
}

// runTimingJobSafe is runTimingJob with panic isolation: a panicking
// pooled goroutine (injected or real) is recovered, counted, and
// surfaced as a transient errWorkerPanic instead of taking the
// controller down.
func (m *MCC) runTimingJobSafe(done <-chan struct{}, j timingJob) (res TimingResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.panicsRecovered.Add(1)
			res = TimingResult{Resource: j.resource}
			err = fmt.Errorf("%w: %v", errWorkerPanic, r)
		}
	}()
	return m.runTimingJob(done, j)
}

// --- Stage 5: monitor plan -------------------------------------------------

type monitorStage struct{ m *MCC }

func (s *monitorStage) Name() Stage { return StageMonitors }

func (s *monitorStage) Run(ctx *pipeline.Context) error {
	m := s.m
	if ctx.Warm {
		ctx.Report.MonitorDelta = m.monitorDelta(ctx)
	} else {
		ctx.Report.MonitorDelta = m.planMonitors(ctx.Impl)
	}
	return nil
}

// planMonitors derives the execution-domain monitor configuration from
// scratch. It is the reference the incremental splice is held to
// (TestMonitorSplice* assert parity).
func (m *MCC) planMonitors(impl *model.ImplementationModel) []MonitorSpec {
	out := slices.Grow([]MonitorSpec(nil), len(impl.Tasks)+len(impl.Messages))
	for _, t := range impl.Tasks {
		out = append(out, MonitorSpec{
			Kind: MonitorBudget, Target: t.Name,
			PeriodUS: t.PeriodUS, JitterUS: t.JitterUS, WCETUS: t.WCETUS,
		})
	}
	for _, msg := range impl.Messages {
		out = append(out, MonitorSpec{
			Kind: MonitorRate, Target: msg.Name,
			PeriodUS: msg.PeriodUS, Enforce: true,
		})
	}
	sortMonitorSpecs(out)
	return out
}

// sortMonitorSpecs orders a monitor plan canonically (kind, then target).
func sortMonitorSpecs(specs []MonitorSpec) {
	slices.SortFunc(specs, func(a, b MonitorSpec) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), strings.Compare(a.Target, b.Target))
	})
}

// appendMonitorSpecs appends the monitor specs of one timing job: budget
// monitors for processor tasks, enforced rate monitors for network
// messages. The CPA task set carries exactly the contract parameters the
// monitors need, so the specs are identical to what planMonitors derives
// from the implementation model.
func appendMonitorSpecs(out []MonitorSpec, j timingJob) []MonitorSpec {
	for _, t := range j.tasks {
		if j.spnp {
			out = append(out, MonitorSpec{
				Kind: MonitorRate, Target: t.Name,
				PeriodUS: t.Event.PeriodUS, Enforce: true,
			})
		} else {
			out = append(out, MonitorSpec{
				Kind: MonitorBudget, Target: t.Name,
				PeriodUS: t.Event.PeriodUS, JitterUS: t.Event.JitterUS, WCETUS: t.WCETUS,
			})
		}
	}
	return out
}

// monitorDelta derives the monitor specs of exactly the resources this
// attempt rebuilt: every job of the footprint-sized job list (the
// affected processors, and every loaded network after a message
// rebuild). The result is freshly allocated and report-owned. The
// committed plan is never materialized here: consumers reach it through
// the report's FullMonitors handle, which derives it on demand from the
// committed table (see resTable.materializeMonitors), so the monitor
// stage's cost follows the change footprint, not the platform size.
func (m *MCC) monitorDelta(ctx *pipeline.Context) []MonitorSpec {
	var out []MonitorSpec
	for _, j := range m.att.jobs {
		out = appendMonitorSpecs(out, j)
	}
	sortMonitorSpecs(out)
	ctx.Note("monitor delta: %d resources rebuilt (%d specs)", len(m.att.jobs), len(out))
	return out
}

// --- Stage 6: commit -------------------------------------------------------

type commitStage struct{ m *MCC }

func (s *commitStage) Name() Stage { return StageCommit }

// Run commits the accepted configuration — the first write of the
// attempt. Under partial synthesis the next snapshot is the committed one
// with the diff-touched parts written under the current epoch (copied
// first when a window's start snapshot owns them); a from-scratch attempt
// builds a fresh snapshot. The values a snapshot holds (task slices,
// result slices, function copies) are immutable once built, so reports
// and rollback points may alias them.
func (s *commitStage) Run(ctx *pipeline.Context) error {
	if ctx.Warm {
		s.commitIncremental(ctx)
	} else {
		s.commitFull(ctx)
	}
	s.m.bindReport(ctx.Report)
	return nil
}

// bindReport attaches the just-committed table to the accepted report's
// materialize-on-demand whole-table handle (Report.FullTiming /
// FullMonitors). The table pointer is captured by value: later commits
// install new tables without disturbing this one, and the chunked
// copy-on-write patching keeps the shared storage alive at O(diff) cost
// per commit. The window heal map is captured alongside for reports
// committed inside an open stream window, whose deferred analyses are
// verified — and their tables learned — only after the commit.
func (m *MCC) bindReport(rep *Report) {
	t := m.snap.res
	var heals map[resDigestKey]TimingResult
	if m.journal != nil {
		heals = m.journal.heals
	}
	rep.BindCommitted(
		func() []TimingResult { return t.materializeTiming(heals) },
		func() []MonitorSpec { return t.materializeMonitors() },
	)
}

// committedResult is the WCRT table job i of this attempt commits: its
// analysis (fresh or clean) on a checked pass. Under deferred checks the
// dirty analyses have not run yet: a job whose digest equals its
// committed slot's keeps that slot's table (itself possibly still
// pending), any other commits none — the stream scheduler's verification
// patches it in on success, the window replays on failure. It reads the
// committed table, so commits call it before installing the next one.
func (m *MCC) committedResult(i int) TimingResult {
	if m.att.results != nil {
		return m.att.results[i]
	}
	if cr := m.snap.res.get(int(m.att.jobs[i].slot)); cr.job.digest == m.att.jobs[i].digest {
		return cr.res
	}
	return TimingResult{}
}

// committedFills is the committed-table entry of every job of this
// attempt, in job order, freshly allocated for the table to keep.
func (m *MCC) committedFills() []committedRes {
	fills := make([]committedRes, len(m.att.jobs))
	for i, jb := range m.att.jobs {
		fills[i] = committedRes{job: jb, res: m.committedResult(i)}
	}
	return fills
}

// commitFull builds a fresh snapshot from this attempt's artifacts. A
// window's start snapshot is left as it was.
func (s *commitStage) commitFull(ctx *pipeline.Context) {
	m := s.m
	// A wholesale rebuild replaces all incremental state with values
	// derived from this attempt's artifacts, so any quarantine imposed by
	// the degradation ladder is lifted: the suspect state is gone.
	m.quarantined = false

	// The from-scratch job list holds every loaded resource: each job
	// fills its slot, every other slot stays empty.
	res := resTableFrom(len(m.procs)+len(m.platform.Networks), m.committedFills())
	m.snap = m.buildSnapshot(m.candidate(ctx), ctx.Impl, res, &m.att.index)
}

// commitIncremental writes the footprint-sized artifacts of a
// partial-synthesis attempt into the next snapshot: the timing table is
// patched from this attempt's job list and cleared slots, and the
// diff-touched functions, the rewired clients' rows, the provider and
// requirer lists the change altered and the affected processors are
// written under the current epoch. Everything else keeps its committed
// entry by the splice invariant. An attempt holding a whole candidate
// installs it as the architecture memo (re-ranking the entries if their
// order disagrees with it); otherwise Deployed rebuilds it on demand.
func (s *commitStage) commitIncremental(ctx *pipeline.Context) {
	m := s.m

	// Committed table: every job fills its slot and every resource that
	// lost its last load clears its slot, copy-on-write — spine plus
	// affected chunks, O(diff) — leaving the previous table (a window's
	// start snapshot, a bound report's view) intact and shared.
	res := m.snap.res.patch(m.newEpoch(), m.committedFills(), m.scratch.clears)

	// The whole candidate, if the attempt holds one; a flow-cutting
	// removal materializes it for its flow list.
	whole := m.att.whole
	if ctx.Candidate != nil || ctx.Diff.FlowsChanged {
		whole = m.candidate(ctx)
	}
	n, e, over := m.ownSnap(), m.epoch, m.att.synth
	n.impl, n.res, n.fa = ctx.Impl, res, whole
	// The flow list and index change only with the flow set; they are
	// replaced, never written in place.
	if ctx.Diff.FlowsChanged {
		n.flows = whole.Flows
		n.flowTouch = flowTouchIndex(n.flows)
	}

	// Diff-touched functions are copied in (or dropped) with their
	// committed rows, and the instance count adjusts by the same delta;
	// then every rewired client, touched or not, takes its re-derived rows.
	for name, f := range over.fns {
		old := n.fns.get(name)
		n.instTotal += len(over.insts[name]) - len(old.insts)
		if f == nil {
			n.fns.del(e, name)
			continue
		}
		if old.fn == nil {
			old.rank = n.nextSeq
			n.nextSeq++
		}
		cp := *f
		n.fns.put(e, name, fnEntry{&cp, old.rank, over.insts[name], old.conns})
	}
	if n.fa != nil {
		rankAs(n, e, n.fa)
	}
	for name, rows := range over.conns {
		ent := n.fns.get(name)
		ent.conns = rows
		n.fns.put(e, name, ent)
	}
	putNames(&n.prov, e, over.prov)
	putNames(&n.req, e, over.req)
	// Affected processors take their rebuilt task and resident lists, and
	// every processor the warm start discounted or placed on takes its
	// overlay load into the capacity index.
	for _, pn := range ctx.AffectedProcs {
		n.procs.set(e, m.procIdx[pn], procState{over.tasksOn[pn], over.instsOn[pn]})
	}
	for _, o := range m.att.over {
		m.layout.set(&n.capacity, e, o)
	}
}

// putNames writes the altered name lists of services under epoch e,
// dropping the emptied ones.
func putNames(p *pmap[[]string], e uint64, lists map[string][]string) {
	for svc, l := range lists {
		if len(l) == 0 {
			p.del(e, svc)
		} else {
			p.put(e, svc, l)
		}
	}
}
