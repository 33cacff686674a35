package mcc

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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
// holds a pointer back to the controller for its caches (deployed digests,
// WCRT tables, memoizing analyzer); the pure viewpoint checks (safety,
// security) are stateless. Stages work incrementally when the context says
// so and fall back to the from-scratch path otherwise — the from-scratch
// path is also the cold retry that re-decides rejected warm-start attempts.

// --- Stage 1: contract validation -----------------------------------------

type validateStage struct{ m *MCC }

func (s *validateStage) Name() Stage { return StageValidate }

func (s *validateStage) Run(ctx *pipeline.Context) error {
	if !ctx.Incremental || ctx.Diff.Full() {
		if err := ctx.Candidate.Validate(); err != nil {
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
	cand, d := ctx.Candidate, ctx.Diff
	if d.Empty() {
		ctx.Note("no-op: candidate identical to deployed")
		return nil
	}
	if done, err := s.fastVerdict(ctx); done {
		return err
	}
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
// requires resolved against the committed provider counts, a removal of
// a provide-less function can invalidate nothing (its flows were cut
// with it). Anything it cannot prove clean — including every suspected
// violation — falls back to the scoped walk, which produces the exact
// finding the from-scratch path would.
func (s *validateStage) fastVerdict(ctx *pipeline.Context) (bool, error) {
	m, cand, d := s.m, ctx.Candidate, ctx.Diff
	if m.deployedSynth == nil || m.svcProviders == nil || d.TouchedCount() != 1 {
		return false, nil
	}
	if d.FlowsChanged && len(d.Removed) != 1 {
		return false, nil // arbitrary flow edits: walk the flow set
	}
	if len(d.Removed) == 1 {
		old := m.deployedSynth.fnByName[d.Removed[0]]
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
	neu := m.candFn(cand, name)
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
	old := m.deployedSynth.fnByName[name]
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
		if m.svcProviders[svc] == 0 && !slices.Contains(neu.Provides, svc) {
			return false, nil
		}
	}
	ctx.Note("fast: added function's contract and required services verified")
	return true, nil
}

// --- Stage 2: mapping ------------------------------------------------------

type mappingStage struct{ m *MCC }

func (s *mappingStage) Name() Stage { return StageMapping }

func (s *mappingStage) Run(ctx *pipeline.Context) error {
	s.m.pendingLoads = nil
	s.m.pendingPlaced = nil
	if ctx.Incremental && !ctx.Diff.Full() && ctx.DeployedImpl != nil {
		if tech, kept, placed, ok := s.m.mapWarmStart(ctx); ok {
			ctx.Tech = tech
			ctx.WarmMapped = true
			ctx.Note("warm-start: kept %d instances, placed %d", kept, placed)
			return nil
		}
		ctx.Note("warm-start infeasible, fell back to full best-fit")
	}
	tech, err := s.m.mapToPlatform(ctx.Candidate)
	if err != nil {
		return pipeline.Rejectf("%s", err)
	}
	ctx.Tech = tech
	return nil
}

// placer tracks per-processor residual capacity during best-fit mapping.
// Both the full mapping and the warm-start share it, so the placement
// constraints (safety certification, utilization cap, RAM budget, replica
// separation) live in exactly one place. Loads are a plain slice indexed
// by platform processor position (via MCC.procIdx), so the best-fit scan
// and the accounting run without a map operation per processor.
type placer struct {
	m     *MCC
	loads []procLoad
}

type procLoad struct {
	utilPPM int64
	ramKiB  int64
}

// newPlacer returns a placer over the reusable scratch buffer, zeroed
// (cold start: loads accumulate from nothing).
func (m *MCC) newPlacer() *placer {
	s := m.placerScratch()
	clear(s)
	return &placer{m: m, loads: s}
}

// newPlacerFromCommitted returns a placer over the scratch buffer
// pre-filled with the committed per-processor loads.
func (m *MCC) newPlacerFromCommitted() *placer {
	s := m.placerScratch()
	copy(s, m.deployedLoads)
	return &placer{m: m, loads: s}
}

func (m *MCC) placerScratch() []procLoad {
	if len(m.loadScratch) != len(m.platform.Processors) {
		m.loadScratch = make([]procLoad, len(m.platform.Processors))
	}
	return m.loadScratch
}

// account charges one replica of f to the named processor.
func (p *placer) account(f *model.Function, proc string) bool {
	i, ok := p.m.procIdx[proc]
	if !ok {
		return false
	}
	pr := &p.m.platform.Processors[i]
	p.loads[i].utilPPM += scaleUtilPPM(utilPPM(f), pr.SpeedFactor)
	p.loads[i].ramKiB += f.Contract.Resources.RAMKiB
	return true
}

// discount removes one replica of f from the named processor — the exact
// inverse of account (integer arithmetic, so subtracting the committed
// charge restores the residual a re-accounting would produce).
func (p *placer) discount(f *model.Function, proc string) bool {
	i, ok := p.m.procIdx[proc]
	if !ok {
		return false
	}
	pr := &p.m.platform.Processors[i]
	p.loads[i].utilPPM -= scaleUtilPPM(utilPPM(f), pr.SpeedFactor)
	p.loads[i].ramKiB -= f.Contract.Resources.RAMKiB
	return true
}

// place assigns every replica of f best-fit (lowest resulting utilization)
// over the remaining capacity, honouring safety certification, the 100%
// utilization cap, RAM budgets, and replica separation. It reports
// ok=false when a replica has no feasible processor, returning the
// replicas placed so far (their index names the failing one).
func (p *placer) place(f *model.Function) ([]model.Instance, bool) {
	// Per-function constants, hoisted out of the per-processor scan.
	replicas := f.EffectiveReplicas()
	util := utilPPM(f)
	ram := f.Contract.Resources.RAMKiB
	level := f.Contract.Safety
	var usedProcs map[string]bool
	if replicas > 1 {
		usedProcs = make(map[string]bool, replicas)
	}
	out := make([]model.Instance, 0, replicas)
	for r := 0; r < replicas; r++ {
		best := -1
		var bestUtil int64 = -1
		for i := range p.m.platform.Processors {
			proc := &p.m.platform.Processors[i]
			if proc.MaxSafety < level {
				continue
			}
			if usedProcs[proc.Name] {
				continue // replica separation
			}
			l := &p.loads[i]
			scaledUtil := scaleUtilPPM(util, proc.SpeedFactor)
			if l.utilPPM+scaledUtil > 1_000_000 {
				continue
			}
			if l.ramKiB+ram > proc.RAMKiB {
				continue
			}
			// Best fit: lowest resulting utilization.
			if bestUtil < 0 || l.utilPPM+scaledUtil < bestUtil {
				best = i
				bestUtil = l.utilPPM + scaledUtil
			}
		}
		if best < 0 {
			return out, false
		}
		name := p.m.platform.Processors[best].Name
		p.account(f, name)
		if usedProcs != nil {
			usedProcs[name] = true
		}
		out = append(out, model.Instance{Function: f.Name, Replica: r, Processor: name})
	}
	return out, true
}

// sortByConstraint orders functions for placement: hardest constraints
// first (safety desc, utilization desc, name).
func sortByConstraint(fns []*model.Function) {
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].Contract.Safety != fns[j].Contract.Safety {
			return fns[i].Contract.Safety > fns[j].Contract.Safety
		}
		ui, uj := utilPPM(fns[i]), utilPPM(fns[j])
		if ui != uj {
			return ui > uj
		}
		return fns[i].Name < fns[j].Name
	})
}

// mapWarmStart maps the candidate starting from the deployed placement:
// instances of untouched functions stay where they are, only the diff is
// placed (best-fit over the residual capacity). It reports ok=false when
// the diff cannot be placed on the residual capacity — the caller then
// falls back to the full best-fit over all functions, which reshuffles
// untouched instances too.
func (m *MCC) mapWarmStart(ctx *pipeline.Context) (tech *model.TechnicalArchitecture, kept, placed int, ok bool) {
	cand, d := ctx.Candidate, ctx.Diff
	depTech := ctx.DeployedImpl.Tech

	// With committed per-processor loads the kept instances need no
	// re-accounting at all: subtract the touched functions' committed
	// charges, place the diff over the residual, splice the instance
	// list. The residuals are integer-exact equal to a re-accounting, so
	// the feasibility verdict and best-fit choices are identical to the
	// legacy loop below.
	if m.deployedLoads != nil && m.deployedSynth != nil {
		return m.mapWarmFromCommitted(ctx)
	}
	if depTech.Instances == nil {
		// A keyed commit leaves the flat instance list unmaterialized and
		// always installs committed loads alongside, so this loop should
		// be unreachable with a lazy model; decide cold if it ever is.
		return nil, 0, 0, false
	}

	fnByName := make(map[string]*model.Function, len(cand.Functions))
	for i := range cand.Functions {
		fnByName[cand.Functions[i].Name] = &cand.Functions[i]
	}

	// Keep untouched instances in place and account their load.
	p := m.newPlacer()
	instances := make([]model.Instance, 0, len(depTech.Instances))
	for _, in := range depTech.Instances {
		if d.Touched(in.Function) {
			continue // re-placed below (changed) or dropped (removed)
		}
		f := fnByName[in.Function]
		if f == nil || !p.account(f, in.Processor) {
			return nil, 0, 0, false // stale placement; decide cold
		}
		instances = append(instances, in)
	}
	kept = len(instances)

	// Place the diff best-fit over the residual capacity, hardest
	// constraints first (same order as the full mapping).
	var todo []*model.Function
	for _, names := range [][]string{d.Added, d.Changed} {
		for _, name := range names {
			if f := fnByName[name]; f != nil {
				todo = append(todo, f)
			}
		}
	}
	sortByConstraint(todo)
	for _, f := range todo {
		ins, ok := p.place(f)
		if !ok {
			return nil, 0, 0, false // no room on residual capacity
		}
		instances = append(instances, ins...)
		placed += len(ins)
	}
	sort.Slice(instances, func(i, j int) bool { return instances[i].Less(instances[j]) })
	m.pendingLoads = p.loads
	// The warm-start placement is correct by construction (every kept
	// instance was validated at commit time, every new one against the
	// live constraints); the full structural re-validation is what the
	// incremental path exists to avoid.
	return &model.TechnicalArchitecture{Platform: m.platform, Func: cand, Instances: instances}, kept, placed, true
}

// mapWarmFromCommitted is the O(diff) warm start: the committed loads
// slice is copied (one memcpy), the touched functions' committed charges
// are subtracted, and the diff is placed best-fit over the residual. The
// candidate's flat instance list is never assembled — the fresh
// placements are handed to the synthesis overlay through pendingPlaced,
// everything downstream resolves instances through the committed tables
// plus that overlay, and DeployedImpl materializes the flat list on
// demand for whole-model readers. That removes the only remaining
// O(platform) step (the splice and its allocation) from the warm path.
func (m *MCC) mapWarmFromCommitted(ctx *pipeline.Context) (tech *model.TechnicalArchitecture, kept, placed int, ok bool) {
	cand, d := ctx.Candidate, ctx.Diff

	p := m.newPlacerFromCommitted()
	names := make([]string, 0, d.TouchedCount())
	names = append(names, d.Added...)
	names = append(names, d.Changed...)
	names = append(names, d.Removed...)
	cut := 0
	for _, name := range names {
		old := m.deployedSynth.fnByName[name]
		cut += len(m.deployedSynth.instancesOf[name])
		for _, in := range m.deployedSynth.instancesOf[name] {
			if old == nil || !p.discount(old, in.Processor) {
				return nil, 0, 0, false // stale committed state; decide cold
			}
		}
	}

	var todo []*model.Function
	for _, nameSet := range [][]string{d.Added, d.Changed} {
		for _, name := range nameSet {
			if f := m.candFn(cand, name); f != nil {
				todo = append(todo, f)
			}
		}
	}
	sortByConstraint(todo)
	placedBy := make(map[string][]model.Instance, len(todo))
	for _, f := range todo {
		ins, ok := p.place(f)
		if !ok {
			return nil, 0, 0, false // no room on residual capacity
		}
		if len(ins) > 0 {
			placedBy[f.Name] = ins
		}
		placed += len(ins)
	}

	kept = m.deployedInstTotal - cut
	m.pendingPlaced = placedBy
	m.pendingLoads = p.loads
	return &model.TechnicalArchitecture{Platform: m.platform, Func: cand}, kept, placed, true
}

// mapToPlatform assigns every function replica to a processor:
// greedy best-fit ordered by (safety desc, utilization desc), honouring
// safety certification, RAM budgets, and replica separation.
func (m *MCC) mapToPlatform(fa *model.FunctionalArchitecture) (*model.TechnicalArchitecture, error) {
	// Deterministic placement order: hardest constraints first.
	order := make([]*model.Function, len(fa.Functions))
	for i := range fa.Functions {
		order[i] = &fa.Functions[i]
	}
	sortByConstraint(order)

	p := m.newPlacer()
	var instances []model.Instance
	for _, f := range order {
		ins, ok := p.place(f)
		if !ok {
			return nil, fmt.Errorf("mcc: no feasible processor for %s#%d (safety %v, util %.1f%%, ram %d KiB)",
				f.Name, len(ins), f.Contract.Safety, float64(utilPPM(f))/10000, f.Contract.Resources.RAMKiB)
		}
		instances = append(instances, ins...)
	}
	sort.Slice(instances, func(i, j int) bool { return instances[i].Less(instances[j]) })
	tech := &model.TechnicalArchitecture{Platform: m.platform, Func: fa, Instances: instances}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	return tech, nil
}

// --- Stage 3: implementation synthesis ------------------------------------

type synthStage struct{ m *MCC }

func (s *synthStage) Name() Stage { return StageSynth }

func (s *synthStage) Run(ctx *pipeline.Context) error {
	var impl *model.ImplementationModel
	var err error
	s.m.pendingSynth = nil
	if ctx.Incremental && ctx.WarmMapped && ctx.DeployedImpl != nil && s.m.deployedSynth != nil {
		impl, err = s.m.synthesizeIncremental(ctx)
	} else {
		impl, err = s.m.synthesize(ctx.Tech)
	}
	if err != nil {
		return pipeline.Rejectf("%s", err)
	}
	ctx.Impl = impl
	ctx.Report.Impl = impl
	return nil
}

// synthLookups builds the function and instance lookup tables the
// synthesis helpers share.
func synthLookups(tech *model.TechnicalArchitecture) (map[string]*model.Function, map[string][]model.Instance) {
	fnByName := make(map[string]*model.Function, len(tech.Func.Functions))
	for i := range tech.Func.Functions {
		f := &tech.Func.Functions[i]
		fnByName[f.Name] = f
	}
	instancesOf := make(map[string][]model.Instance, len(tech.Func.Functions))
	for _, in := range tech.Instances {
		instancesOf[in.Function] = append(instancesOf[in.Function], in)
	}
	for _, ins := range instancesOf {
		sort.Slice(ins, func(i, j int) bool { return ins[i].Replica < ins[j].Replica })
	}
	return fnByName, instancesOf
}

// synthCache holds the committed synthesis lookup tables: function
// contracts by name, replica instances by function, and the
// per-processor task lists of the deployed implementation model. It is
// maintained on commit next to deployedJobs — rebuilt in full only by
// from-scratch commits, keyed invalidation of diff-touched entries
// otherwise — so incremental synthesis can splice untouched processors'
// task lists without re-deriving the tables per proposal. The cache owns
// its entries: function values are standalone copies, instance and task
// slices are immutable once stored.
type synthCache struct {
	fnByName    map[string]*model.Function
	instancesOf map[string][]model.Instance
	tasksOn     map[string][]model.Task
	// instOn groups the committed instances by hosting processor, so the
	// incremental task rebuild of an affected processor starts from the
	// committed residents instead of scanning every instance.
	instOn map[string][]model.Instance
}

// newSynthCache derives the full lookup tables of a committed
// implementation model (the from-scratch commit path).
func newSynthCache(impl *model.ImplementationModel) *synthCache {
	fnByName, instancesOf := synthLookups(impl.Tech)
	sc := &synthCache{
		fnByName:    make(map[string]*model.Function, len(fnByName)),
		instancesOf: instancesOf,
		tasksOn:     make(map[string][]model.Task),
		instOn:      make(map[string][]model.Instance),
	}
	for name, f := range fnByName {
		cp := *f
		sc.fnByName[name] = &cp
	}
	// impl.Tech.Instances is sorted by Instance.Less, so the grouped lists
	// keep the (Function, Replica) order InstancesOn produces.
	for _, in := range impl.Tech.Instances {
		sc.instOn[in.Processor] = append(sc.instOn[in.Processor], in)
	}
	// impl.Tasks is assembled processor by processor in priority order, so
	// the grouped lists keep the order synthesizeTasksOn produces.
	for _, t := range impl.Tasks {
		sc.tasksOn[t.Processor] = append(sc.tasksOn[t.Processor], t)
	}
	return sc
}

// synthOverlay is the diff-sized patch one incremental synthesis lays
// over the committed synthCache: an entry per diff-touched function (nil
// marks a removal), the touched functions' new replica placements, and
// the rebuilt task lists of affected processors. The commit stage applies
// it to the cache with keyed (journalable) writes.
type synthOverlay struct {
	fns     map[string]*model.Function
	insts   map[string][]model.Instance
	tasksOn map[string][]model.Task
	// instsOn holds the affected processors' candidate resident lists
	// (committed residents minus touched functions plus new placements),
	// applied to synthCache.instOn by the commit stage.
	instsOn map[string][]model.Instance
}

// synthView resolves the function/instance lookups of one synthesis run:
// either the full tables freshly derived from the candidate (from-scratch
// path, nil overlay) or the committed tables overlaid with the
// diff-touched entries — O(diff) map writes instead of rebuilding both
// tables from the technical architecture.
type synthView struct {
	cache *synthCache
	over  *synthOverlay
}

func (v *synthView) fn(name string) *model.Function {
	if v.over != nil {
		if f, ok := v.over.fns[name]; ok {
			return f // nil for removed functions
		}
	}
	if v.cache != nil {
		return v.cache.fnByName[name]
	}
	return nil
}

func (v *synthView) instances(name string) []model.Instance {
	if v.over != nil {
		if _, touched := v.over.fns[name]; touched {
			return v.over.insts[name]
		}
	}
	if v.cache != nil {
		return v.cache.instancesOf[name]
	}
	return nil
}

// synthOverlay builds the candidate's lookup view against the committed
// tables: the diff names its touched functions, whose candidate values
// and placements are collected directly (binary search over the sorted
// instance list), everything untouched resolves through the cache (whose
// entries are value-identical under the warm-started mapping). No lookup
// table is rebuilt and no candidate-sized scan runs — cost is
// O(diff · log n).
func (m *MCC) synthOverlay(ctx *pipeline.Context) (*synthView, *synthOverlay) {
	d := ctx.Diff
	over := &synthOverlay{
		fns:     make(map[string]*model.Function, d.TouchedCount()),
		insts:   make(map[string][]model.Instance, d.TouchedCount()),
		tasksOn: make(map[string][]model.Task),
		instsOn: make(map[string][]model.Instance),
	}
	for _, name := range d.Removed {
		over.fns[name] = nil
	}
	cand := ctx.Candidate
	for _, nameSet := range [][]string{d.Added, d.Changed} {
		for _, name := range nameSet {
			if f := m.candFn(cand, name); f != nil {
				over.fns[f.Name] = f
			}
		}
	}
	// The O(diff) warm start hands the fresh placements over directly,
	// keyed by function and replica-ascending — the exact per-function
	// lists synthLookups would produce — so no flat candidate instance
	// list is needed at all. The binary-search fallback covers warm paths
	// that materialized ctx.Tech.Instances instead (the legacy warm start
	// after a from-scratch commit).
	if m.pendingPlaced != nil {
		for name, f := range over.fns {
			if f == nil {
				continue // removed: no candidate placements
			}
			if ins := m.pendingPlaced[name]; len(ins) > 0 {
				over.insts[name] = ins
			}
		}
		return &synthView{cache: m.deployedSynth, over: over}, over
	}
	// ctx.Tech.Instances is sorted by Instance.Less, so each touched
	// function's placements form one contiguous replica-ascending block —
	// exactly the list synthLookups produces.
	ins := ctx.Tech.Instances
	for name, f := range over.fns {
		if f == nil {
			continue // removed: no candidate placements
		}
		lo := sort.Search(len(ins), func(i int) bool { return ins[i].Function >= name })
		hi := lo
		for hi < len(ins) && ins[hi].Function == name {
			hi++
		}
		if hi > lo {
			over.insts[name] = ins[lo:hi:hi]
		}
	}
	return &synthView{cache: m.deployedSynth, over: over}, over
}

// synthesizeTasksOn derives the deadline-monotonic task set of one
// processor (WCET scaled by the processor speed) from its resident
// instance list. The list order is irrelevant: the deadline-monotonic
// sort's comparator is total (ties break on Instance.Less).
func (m *MCC) synthesizeTasksOn(look *synthView, pn string, insts []model.Instance) []model.Task {
	var p *model.Processor
	if i, ok := m.procIdx[pn]; ok {
		p = &m.platform.Processors[i]
	}
	type cand struct {
		inst model.Instance
		fn   *model.Function
	}
	var cands []cand
	for _, in := range insts {
		f := look.fn(in.Function)
		if f == nil || !f.Contract.RealTime.HasTiming() {
			continue
		}
		cands = append(cands, cand{in, f})
	}
	// Deadline-monotonic order.
	sort.Slice(cands, func(i, j int) bool {
		di := cands[i].fn.Contract.RealTime.EffectiveDeadlineUS()
		dj := cands[j].fn.Contract.RealTime.EffectiveDeadlineUS()
		if di != dj {
			return di < dj
		}
		return cands[i].inst.Less(cands[j].inst)
	})
	tasks := make([]model.Task, 0, len(cands))
	for i, c := range cands {
		rt := c.fn.Contract.RealTime
		tasks = append(tasks, model.Task{
			Name:       c.inst.ID(),
			Processor:  pn,
			Priority:   i + 1,
			PeriodUS:   rt.PeriodUS,
			JitterUS:   rt.JitterUS,
			WCETUS:     int64(float64(rt.WCETUS) / p.SpeedFactor),
			DeadlineUS: rt.EffectiveDeadlineUS(),
			Safety:     c.fn.Contract.Safety,
		})
	}
	return tasks
}

// synthesizeMessages derives the network messages: for every periodic flow
// whose replica pairs land on different processors, one message per
// distinct network crossed (deterministic order). A flow whose replica
// pairs cross several networks loads each of them — charging only one bus
// would leave the others' real load out of the timing acceptance test.
func (m *MCC) synthesizeMessages(tech *model.TechnicalArchitecture, look *synthView) ([]model.Message, error) {
	type msgCand struct {
		flow model.Flow
		nets []string // distinct crossed networks, sorted
	}
	var msgs []msgCand
	for _, fl := range tech.Func.Flows {
		if fl.PeriodUS <= 0 {
			continue // sporadic flows handled by rate monitors only
		}
		fromInsts := look.instances(fl.From)
		toInsts := look.instances(fl.To)
		netSet := make(map[string]bool)
		for _, fi := range fromInsts {
			for _, ti := range toInsts {
				if fi.Processor == ti.Processor {
					continue
				}
				n := m.platform.Connecting(fi.Processor, ti.Processor)
				if n == nil {
					return nil, fmt.Errorf("mcc: no network connects %s and %s for flow %s->%s",
						fi.Processor, ti.Processor, fl.From, fl.To)
				}
				netSet[n.Name] = true
			}
		}
		if len(netSet) == 0 {
			continue
		}
		nets := make([]string, 0, len(netSet))
		for nn := range netSet {
			nets = append(nets, nn)
		}
		sort.Strings(nets)
		msgs = append(msgs, msgCand{fl, nets})
	}
	// Deadline(=period)-monotonic message priorities per network.
	sort.Slice(msgs, func(i, j int) bool {
		if msgs[i].flow.PeriodUS != msgs[j].flow.PeriodUS {
			return msgs[i].flow.PeriodUS < msgs[j].flow.PeriodUS
		}
		if msgs[i].flow.Service != msgs[j].flow.Service {
			return msgs[i].flow.Service < msgs[j].flow.Service
		}
		if msgs[i].flow.From != msgs[j].flow.From {
			return msgs[i].flow.From < msgs[j].flow.From
		}
		return msgs[i].flow.To < msgs[j].flow.To
	})
	var out []model.Message
	prioByNet := make(map[string]int)
	for _, mc := range msgs {
		for _, nn := range mc.nets {
			prioByNet[nn]++
			name := fmt.Sprintf("%s:%s->%s", mc.flow.Service, mc.flow.From, mc.flow.To)
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

// synthesizeConnections wires every requirer to the (first) provider.
func synthesizeConnections(tech *model.TechnicalArchitecture, look *synthView) ([]model.Connection, error) {
	providerOf := make(map[string]string) // service -> first provider name
	for i := range tech.Func.Functions {
		f := &tech.Func.Functions[i]
		for _, svc := range f.Provides {
			if cur, ok := providerOf[svc]; !ok || f.Name < cur {
				providerOf[svc] = f.Name
			}
		}
	}
	var out []model.Connection
	for _, in := range tech.Instances {
		client := look.fn(in.Function)
		if client == nil {
			continue
		}
		for _, svc := range client.Requires {
			provName, ok := providerOf[svc]
			if !ok {
				return nil, fmt.Errorf("mcc: unprovided service %q", svc)
			}
			prov := look.instances(provName)
			if len(prov) == 0 {
				return nil, fmt.Errorf("mcc: provider %q not deployed", provName)
			}
			server := look.fn(provName)
			out = append(out, model.Connection{
				Client:      in.ID(),
				Server:      prov[0].ID(),
				Service:     svc,
				CrossDomain: client.Contract.Domain != server.Contract.Domain,
			})
		}
	}
	return out, nil
}

// synthesize derives the full implementation model: per-processor tasks
// with deadline-monotonic priorities (WCET scaled by processor speed),
// inter-processor messages from flows, and sessions from service
// requirements.
func (m *MCC) synthesize(tech *model.TechnicalArchitecture) (*model.ImplementationModel, error) {
	impl := &model.ImplementationModel{Tech: tech}
	fnByName, instancesOf := synthLookups(tech)
	look := &synthView{cache: &synthCache{fnByName: fnByName, instancesOf: instancesOf}}

	instOn := tech.InstancesByProcessor()
	for _, pn := range m.procs {
		impl.Tasks = append(impl.Tasks, m.synthesizeTasksOn(look, pn, instOn[pn])...)
	}
	msgs, err := m.synthesizeMessages(tech, look)
	if err != nil {
		return nil, err
	}
	impl.Messages = msgs
	conns, err := synthesizeConnections(tech, look)
	if err != nil {
		return nil, err
	}
	impl.Connections = conns

	if err := impl.Validate(); err != nil {
		return nil, err
	}
	return impl, nil
}

// synthesizeIncremental rebuilds only the parts of the implementation
// model the diff can have changed, against the cached deployed model:
// tasks of processors hosting a touched instance (old or new placement),
// messages only when the flow topology or a flow endpoint changed, and
// connections only when a touched function participates in the service
// graph. Everything else is copied from the deployed implementation.
// Callers guarantee the placement of untouched instances is unchanged
// (warm-started mapping), which is what makes the copies valid.
//
// Lookups resolve through the committed synthCache plus a diff-sized
// overlay — the tables are not re-derived, and untouched processors'
// task lists splice straight from the cache.
func (m *MCC) synthesizeIncremental(ctx *pipeline.Context) (*model.ImplementationModel, error) {
	tech, d := ctx.Tech, ctx.Diff
	dep := ctx.DeployedImpl
	impl := &model.ImplementationModel{Tech: tech}
	look, over := m.synthOverlay(ctx)

	// Processors affected by the diff: wherever a touched function's
	// instances were (committed lookup), or now are (overlay).
	affected := make(map[string]bool)
	for name := range over.fns {
		for _, in := range m.deployedSynth.instancesOf[name] {
			affected[in.Processor] = true
		}
		for _, in := range over.insts[name] {
			affected[in.Processor] = true
		}
	}

	// Rebuild the affected processors' task lists; the candidate's flat
	// task list stays unmaterialized (impl.Tasks is nil). The rebuilt
	// lists live in over.tasksOn, every untouched processor keeps its
	// committed list in the synth cache, and every consumer of the
	// incremental path reads one of the two (timing-job construction,
	// monitor delta, custom viewpoints via ctx.Tasks()); DeployedImpl
	// materializes the committed flat list on demand for whole-model
	// readers. Assembling — and allocating — the platform-sized splice
	// here was the single largest O(n) term of the accepted-change path.
	// The sorted iteration keeps the first-error selection of the
	// per-task validation deterministic.
	affectedList := make([]string, 0, len(affected))
	for pn := range affected {
		affectedList = append(affectedList, pn)
	}
	sort.Strings(affectedList)
	for _, pn := range affectedList {
		insts := m.residentInstances(pn, over)
		over.instsOn[pn] = insts
		rebuilt := m.synthesizeTasksOn(look, pn, insts)
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
	reusedProcs := len(m.procs) - len(affectedList)
	ctx.TasksFn = func() []model.Task { return m.candTasks(over) }

	// Messages change only when the flow set changed or a flow endpoint
	// was touched (untouched endpoints keep their placement under the
	// warm-started mapping). With the flow set unchanged the candidate's
	// flows are the committed ones, so the committed flow-touch index
	// answers "is any touched function a flow endpoint" in O(diff).
	rebuildMsgs := d.FlowsChanged
	if !rebuildMsgs {
		if ft := m.deployedFlowTouch; ft != nil {
			// A touched flow endpoint forces a rebuild only if its
			// placement actually moved: messages derive from flows and
			// endpoint placements alone, and flows are unchanged here, so
			// a change that re-places every replica onto its committed
			// processor leaves every message identical.
			for name := range over.fns {
				if ft[name] && placementChanged(m.deployedSynth.instancesOf[name], over.insts[name]) {
					rebuildMsgs = true
					break
				}
			}
		} else {
			for _, fl := range ctx.Candidate.Flows {
				if d.Touched(fl.From) || d.Touched(fl.To) {
					rebuildMsgs = true
					break
				}
			}
		}
	}
	if rebuildMsgs {
		msgs, err := m.synthesizeMessages(tech, look)
		if err != nil {
			return nil, err
		}
		impl.Messages = msgs
		// A rebuild re-derives every message, but most networks' lists
		// come out identical — only networks carrying a touched flow's
		// messages (now or before) actually change. Mark those, so the
		// timing stage splices the cached jobs of the rest.
		ctx.AffectedNets = affectedNets(dep.Messages, msgs)
	} else {
		// The committed slice is immutable once built; alias it.
		impl.Messages = dep.Messages
	}

	// Connections change only when a touched function alters what it
	// provides or requires, its trust domain, or its replica count.
	// Everything else about a change — WCET, RAM, placement — is invisible
	// to the session graph: connection endpoints are function#replica IDs,
	// provider election reads only the Provides sets, and CrossDomain only
	// the two domains, so under an unchanged service surface the rebuilt
	// rows would come out exactly equal to the committed ones.
	rebuildConns := false
	for name := range over.fns {
		if connTouched(m.deployedSynth.fnByName[name], over.fns[name]) {
			rebuildConns = true
			break
		}
	}
	if rebuildConns {
		// The session rebuild walks every candidate instance (provider
		// election is global); materialize the flat list for it on this
		// rare path — the common accepted change never pays for it.
		if tech.Instances == nil {
			tech.Instances = m.candInstances(over)
		}
		conns, err := synthesizeConnections(tech, look)
		if err != nil {
			return nil, err
		}
		impl.Connections = conns
	} else {
		impl.Connections = dep.Connections
	}

	// Record what the partial synthesis actually rebuilt so later stages
	// (timing-job construction, monitor planning) can splice their own
	// cached artifacts for the untouched remainder, and hand the lookup
	// overlay to the commit stage for keyed cache invalidation.
	ctx.PartialSynth = true
	ctx.AffectedProcs = affected
	ctx.MessagesRebuilt = rebuildMsgs
	ctx.ConnectionsRebuilt = rebuildConns
	m.pendingSynth = over

	ctx.Note("reused %d/%d processors, messages %s, connections %s",
		reusedProcs, len(m.platform.Processors), reusedWord(!rebuildMsgs), reusedWord(!rebuildConns))
	return impl, nil
}

// residentInstances derives the candidate's instance list on one
// affected processor: the committed residents minus the touched
// functions' instances, plus the touched instances now placed there.
// Cost is the processor's population, not the platform's.
func (m *MCC) residentInstances(pn string, over *synthOverlay) []model.Instance {
	old := m.deployedSynth.instOn[pn]
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
	return out
}

// candTasks materializes the candidate's flat task list from the
// committed per-processor lists plus the overlay's rebuilt ones, in the
// m.procs assembly order of every synthesis path. Only consumers that
// genuinely need the whole flat list pay for it (ctx.Tasks()).
func (m *MCC) candTasks(over *synthOverlay) []model.Task {
	total := 0
	for _, pn := range m.procs {
		if tasks, ok := over.tasksOn[pn]; ok {
			total += len(tasks)
		} else {
			total += len(m.deployedSynth.tasksOn[pn])
		}
	}
	out := make([]model.Task, 0, total)
	for _, pn := range m.procs {
		if tasks, ok := over.tasksOn[pn]; ok {
			out = append(out, tasks...)
			continue
		}
		out = append(out, m.deployedSynth.tasksOn[pn]...)
	}
	return out
}

// candInstances materializes the candidate's flat sorted instance list
// from the committed per-function table plus the overlay's placements —
// needed only by the connection-rebuild path, whose provider election
// walks every instance. Untouched names come from the committed table,
// touched ones from the overlay; the two sets are disjoint, and each
// per-function list is replica-ascending, so concatenating over the
// sorted names reproduces Instance.Less order.
func (m *MCC) candInstances(over *synthOverlay) []model.Instance {
	sc := m.deployedSynth
	names := make([]string, 0, len(sc.instancesOf)+len(over.insts))
	total := 0
	for name, ins := range sc.instancesOf {
		if _, touched := over.fns[name]; touched {
			continue
		}
		names = append(names, name)
		total += len(ins)
	}
	for name, ins := range over.insts {
		names = append(names, name)
		total += len(ins)
	}
	sort.Strings(names)
	view := &synthView{cache: sc, over: over}
	out := make([]model.Instance, 0, total)
	for _, name := range names {
		out = append(out, view.instances(name)...)
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

// affectedNets compares the rebuilt message list against the deployed one
// network by network and returns the networks whose lists differ
// (including networks present on only one side). Both lists are emitted
// by synthesizeMessages in the same global order, so per-network
// sublists compare positionally.
func affectedNets(old, rebuilt []model.Message) map[string]bool {
	oldBy := make(map[string][]model.Message)
	for _, msg := range old {
		oldBy[msg.Network] = append(oldBy[msg.Network], msg)
	}
	newBy := make(map[string][]model.Message)
	for _, msg := range rebuilt {
		newBy[msg.Network] = append(newBy[msg.Network], msg)
	}
	out := make(map[string]bool)
	for n, l := range newBy {
		if !slices.Equal(oldBy[n], l) {
			out[n] = true
		}
	}
	for n := range oldBy {
		if _, ok := newBy[n]; !ok {
			out[n] = true
		}
	}
	return out
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
// by construction, and cheap enough to run inline even when the stream
// scheduler asks for deferred checks — only the from-scratch fallback
// (cold passes, cold caches) is still deferred to the prefetch pool.

type safetyStage struct{ m *MCC }

func (s *safetyStage) Name() Stage { return StageSafety }

func (s *safetyStage) Run(ctx *pipeline.Context) error {
	if ctx.PartialSynth {
		// Entity-driven, not predicate-filtered scans: CheckScoped walks
		// every candidate instance and function even for a one-function
		// change, while the footprint here is a handful of names. The
		// touched functions resolve through the committed tables plus this
		// proposal's overlay (the same view the synthesis used), the
		// affected processors' candidate residents were just computed by
		// the partial synthesis (over.instsOn) — so nothing below reads
		// the unmaterialized flat lists, and the cost is O(diff).
		m, d := s.m, ctx.Diff
		touched := make([]string, 0, d.TouchedCount())
		touched = append(touched, d.Added...)
		touched = append(touched, d.Changed...)
		touched = append(touched, d.Removed...)
		sort.Strings(touched)
		affected := make([]string, 0, len(ctx.AffectedProcs))
		for pn := range ctx.AffectedProcs {
			affected = append(affected, pn)
		}
		sort.Strings(affected)
		over := m.pendingSynth
		view := &synthView{cache: m.deployedSynth, over: over}
		findings, checked := safety.CheckEntities(touched, affected,
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
	if ctx.DeferChecks {
		// Pure verdict over the immutable mapping artifact: record the
		// input; the stream scheduler runs the check on the pool and
		// replays the window if it fails.
		s.m.deferred().tech = ctx.Tech
		return nil
	}
	findings, checked := safety.CheckScoped(ctx.Tech, nil, nil)
	ctx.Report.SafetyChecks += checked
	return rejectFindings(findingStrings(findings))
}

// --- Stage 4b: security acceptance ----------------------------------------

type securityStage struct{ m *MCC }

func (s *securityStage) Name() Stage { return StageSecurity }

func (s *securityStage) Run(ctx *pipeline.Context) error {
	m := s.m
	if ctx.PartialSynth && m.deployedSecVerdicts != nil {
		var findings []security.Finding
		var checked int
		if !ctx.ConnectionsRebuilt && m.deployedConnIdx != nil {
			findings, checked = m.checkSecurityIndexed(ctx)
		} else {
			findings, checked = m.checkSecurityScoped(ctx)
		}
		ctx.Report.SecurityChecks += checked
		ctx.Note("scoped: re-checked %d/%d connections", checked, len(ctx.Impl.Connections))
		return rejectFindings(findingStrings(findings))
	}
	if ctx.DeferChecks {
		m.deferred().impl = ctx.Impl
		return nil
	}
	findings, checked := security.CheckDomainsScoped(ctx.Impl, nil, nil)
	ctx.Report.SecurityChecks += checked
	return rejectFindings(findingStrings(findings))
}

// checkSecurityScoped runs the cross-domain check diff-proportionally: a
// connection gets a fresh verdict only when the diff touched its client
// or server function, or when it has no committed verdict (new or
// rewired wiring after a connection rebuild); every other connection was
// committed clean with unchanged contracts and splices. Function
// resolution goes through the committed synthesis lookups plus this
// proposal's diff overlay — no per-proposal index rebuild.
func (m *MCC) checkSecurityScoped(ctx *pipeline.Context) ([]security.Finding, int) {
	d := ctx.Diff
	resolve := m.secResolver()
	dirty := func(c model.Connection) bool {
		if !m.deployedSecVerdicts[c] {
			return true // no committed verdict for this wiring
		}
		return d.Touched(security.FunctionName(c.Client)) || d.Touched(security.FunctionName(c.Server))
	}
	return security.CheckDomainsScoped(ctx.Impl, resolve, dirty)
}

// secResolver builds the instance-ID -> function resolution of the
// scoped security checks: committed synthesis lookups plus this
// proposal's diff overlay — no per-proposal index rebuild. It mirrors
// the full check's resolution exactly: the instance must exist before
// its function is looked up, so a connection referencing a dropped
// replica of a still-deployed function is skipped by both paths alike.
func (m *MCC) secResolver() security.FunctionResolver {
	view := &synthView{cache: m.deployedSynth, over: m.pendingSynth}
	return func(id string) *model.Function {
		name := security.FunctionName(id)
		for _, in := range view.instances(name) {
			if in.ID() == id {
				return view.fn(name)
			}
		}
		return nil
	}
}

// checkSecurityIndexed is checkSecurityScoped without the scan: with the
// session list unrebuilt it aliases the committed one, every row has a
// committed-clean verdict, so the dirty set is exactly "rows incident to
// a touched function" — which the committed connection-position index
// answers directly. Walking the touched names' position lists (merged
// ascending, deduplicated) visits the same rows in the same list order
// as the scan's dirty filter, at O(diff + dirty) instead of O(conns)
// string splits and map hashes per proposal.
func (m *MCC) checkSecurityIndexed(ctx *pipeline.Context) ([]security.Finding, int) {
	d := ctx.Diff
	var pos []int
	for _, names := range [][]string{d.Added, d.Changed, d.Removed} {
		for _, name := range names {
			pos = append(pos, m.deployedConnIdx[name]...)
		}
	}
	sort.Ints(pos)
	conns := ctx.Impl.Connections
	resolve := m.secResolver()
	var out []security.Finding
	checked := 0
	prev := -1
	for _, i := range pos {
		if i == prev {
			continue // client and server both touched: one verdict
		}
		prev = i
		if i < 0 || i >= len(conns) {
			// Index out of step with the committed list — should be
			// impossible, but a wrong verdict source is never acceptable:
			// fall back to the scan.
			return m.checkSecurityScoped(ctx)
		}
		checked++
		c := conns[i]
		if f, bad := security.ConnectionVerdict(resolve(c.Client), resolve(c.Server), c); bad {
			out = append(out, f)
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
	out := s.m.analyzeTiming(ctx, ctx.Impl)
	ctx.Report.TimingDelta = out.delta
	ctx.TimingDigests = out.digests
	ctx.Report.TimingScans += out.scanned
	ctx.Report.TimingDirty += out.dirty
	ctx.Report.TimingResources += out.total
	ctx.Note("%d/%d resources dirty, %d scanned", out.dirty, out.total, out.scanned)
	if out.transient {
		ctx.Report.TransientFault = true
	}
	if len(out.findings) > 0 {
		return &pipeline.Reject{Findings: out.findings}
	}
	return nil
}

// timingJob is one resource's share of the timing acceptance test.
type timingJob struct {
	resource string
	spnp     bool
	tasks    []cpa.Task
	digest   uint64
}

// committedRes is one committed resource's timing artifacts — the CPA
// job and its WCRT table — stored in deterministic resource order in
// the chunked committed table (see MCC.deployedRes). res.Results == nil
// marks a table not yet known: an optimistically committed resource
// whose deferred analysis has not been verified; a splice of such an
// entry re-analyzes through the memo instead of reusing the table.
type committedRes struct {
	job timingJob
	res TimingResult
}

// timingOutcome aggregates the timing stage's results: the WCRT tables
// of exactly the resources this attempt re-analyzed (freshly allocated,
// report-owned — the delta contract), the digests to commit, the
// acceptance findings (deadline misses and analysis errors), and the
// scanned/dirty/total telemetry counts (how many resources had their
// task sets rebuilt by scanning the implementation model, and how many
// were re-analyzed).
type timingOutcome struct {
	delta    []TimingResult
	digests  map[string]uint64
	findings []string
	scanned  int
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
// list, the digest map, and the merge buffers of the worker pool. Task
// slices inside committed jobs are never recycled — once a job is built
// its task slice is immutable, so cached jobs and reports can alias it.
type timingScratch struct {
	jobs    []timingJob
	digests map[string]uint64
	results []TimingResult
	errs    []error
	dirty   []int
	// scannedIdx records the indices (into jobs) of the resources whose
	// task sets this proposal rebuilt by scanning; the keyed commit
	// touches exactly these entries.
	scannedIdx []int
	// spliceSrc, when the committed-table merge built the job list, is
	// parallel to jobs: the deployedRes table index an entry was copied
	// from, or -1 for a freshly scanned resource. Positional result reuse
	// and the keyed commit's list rebuild read it; the map-walk path
	// leaves it empty (length mismatch disables it).
	spliceSrc []int
	// affected is the sorted affected-processor scratch of the merge.
	affected []string
	// sparse marks that timingJobsSparse built the job list: jobs holds
	// ONLY the scanned resources, each a positional replacement of the
	// committed entry sparsePos records, and every untouched committed
	// entry is implicit — the job-list cost follows the change footprint
	// instead of the platform size. analyzeTiming and the keyed commit
	// read the flag; every other path leaves it false.
	sparse bool
	// sparsePos is parallel to jobs under sparse: the deployedRes index
	// each scanned job replaces.
	sparsePos []int
}

// buildProcJob derives one processor's CPA task set by scanning the
// implementation model. ok is false when the processor carries no load.
func (m *MCC) buildProcJob(impl *model.ImplementationModel, pn string) (timingJob, bool) {
	tasks := impl.TasksOn(pn)
	return m.buildProcJobFrom(pn, tasks)
}

// buildProcJobFrom derives one processor's CPA job from an
// already-ordered task list. The partial synthesis hands the rebuilt
// lists of affected processors here directly — they carry unique
// ascending priorities, so they are element-wise what TasksOn would
// extract and re-sort from the flat model, without the O(tasks) scan.
func (m *MCC) buildProcJobFrom(pn string, tasks []model.Task) (timingJob, bool) {
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
	return timingJob{resource: pn, tasks: ct, digest: cpa.TaskSetDigest(ct)}, true
}

// buildNetJob derives one network's CPA message set by scanning the
// implementation model. ok is false when the network carries no load.
func (m *MCC) buildNetJob(impl *model.ImplementationModel, n *model.Network) (timingJob, bool) {
	msgs := impl.MessagesOn(n.Name)
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
	return timingJob{resource: n.Name, spnp: true, tasks: ct, digest: cpa.TaskSetDigest(ct)}, true
}

// timingJobs derives the per-resource CPA task sets of the implementation
// model in deterministic order: processors (sorted by name), then networks
// (platform order). Resources without load are skipped.
//
// When the context carries a partial-synthesis diff and the deployed job
// cache is warm, construction is diff-proportional: only resources the
// diff affected are scanned (TasksOn/MessagesOn) and re-digested, every
// other resource's job — task slice and digest — is spliced from the
// cache of the committed configuration without touching the
// implementation model at all. The splice is valid because the partial
// synthesis copied exactly those resources' tasks/messages verbatim from
// the deployed model. ctx may be nil (always a full scan).
func (m *MCC) timingJobs(ctx *pipeline.Context, impl *model.ImplementationModel) (jobs []timingJob, scanned int) {
	jobs = m.scratch.jobs[:0]
	m.scratch.scannedIdx = m.scratch.scannedIdx[:0]
	m.scratch.spliceSrc = m.scratch.spliceSrc[:0]
	m.scratch.sparse = false
	incremental := ctx != nil && ctx.PartialSynth && m.deployedJobs != nil

	if incremental && m.deployedRes != nil {
		if m.canCommitIncremental(ctx) {
			// Footprint-sized job list: scanned resources only, each a
			// positional replacement in the committed table. Falls back to
			// the full splice when the resource shape changed.
			if js, n, ok := m.timingJobsSparse(ctx, impl, jobs); ok {
				m.scratch.jobs = js
				return js, n
			}
			jobs = m.scratch.jobs[:0]
			m.scratch.scannedIdx = m.scratch.scannedIdx[:0]
		}
		jobs, scanned = m.timingJobsSpliced(ctx, impl, jobs)
		m.scratch.jobs = jobs
		return jobs, scanned
	}

	// A from-scratch pass scans every processor: group the flat task list
	// once instead of extracting each processor's tasks from it.
	var tasksOn map[string][]model.Task
	if !incremental {
		tasksOn = impl.TasksByProcessor()
	}
	for _, pn := range m.procs {
		if incremental && !ctx.AffectedProcs[pn] {
			// Untouched processor: its task set is byte-identical to the
			// deployed one; splice the cached job, no scan.
			if j, ok := m.deployedJobs[pn]; ok {
				jobs = append(jobs, j)
			}
			continue
		}
		scanned++
		var j timingJob
		var ok bool
		if !incremental {
			j, ok = m.buildProcJobFrom(pn, tasksOn[pn])
		} else {
			// The partial synthesis leaves impl.Tasks unmaterialized; the
			// affected processors' rebuilt lists live in the overlay.
			var tasks []model.Task
			have := false
			if over := m.pendingSynth; over != nil {
				tasks, have = over.tasksOn[pn]
			}
			if have {
				j, ok = m.buildProcJobFrom(pn, tasks)
			} else {
				j, ok = m.buildProcJob(impl, pn)
			}
		}
		if ok {
			m.scratch.scannedIdx = append(m.scratch.scannedIdx, len(jobs))
			jobs = append(jobs, j)
		}
	}

	for i := range m.platform.Networks {
		n := &m.platform.Networks[i]
		if incremental && netClean(ctx, n.Name) {
			// The message list was copied verbatim from the deployed
			// model, or rebuilt identical on this network.
			if j, ok := m.deployedJobs[n.Name]; ok {
				jobs = append(jobs, j)
			}
			continue
		}
		scanned++
		if j, ok := m.buildNetJob(impl, n); ok {
			m.scratch.scannedIdx = append(m.scratch.scannedIdx, len(jobs))
			jobs = append(jobs, j)
		}
	}
	m.scratch.jobs = jobs
	return jobs, scanned
}

// timingJobsSpliced builds the job list by merging the committed
// resource list against the sorted affected set. Both are ordered
// subsets of the resource iteration order (processors sorted by name,
// then networks in platform order), so the merge emits jobs in exactly
// the order the map walk would — but an untouched resource costs one
// string comparison and a positional copy instead of two map lookups,
// and its committed WCRT table is later reachable by index (spliceSrc)
// instead of two more. Affected resources are scanned exactly as the
// map walk scans them, including processors that newly gained load.
func (m *MCC) timingJobsSpliced(ctx *pipeline.Context, impl *model.ImplementationModel, jobs []timingJob) ([]timingJob, int) {
	sc := &m.scratch
	scanned := 0
	aff := sc.affected[:0]
	for pn, on := range ctx.AffectedProcs {
		if on {
			aff = append(aff, pn)
		}
	}
	sort.Strings(aff)
	sc.affected = aff

	t := m.deployedRes
	over := m.pendingSynth
	scanProc := func(pn string) {
		scanned++
		var j timingJob
		var ok bool
		if over != nil {
			// The partial synthesis rebuilt exactly the affected
			// processors' task lists; read them instead of scanning the
			// flat model.
			if tasks, have := over.tasksOn[pn]; have {
				j, ok = m.buildProcJobFrom(pn, tasks)
			} else {
				j, ok = m.buildProcJob(impl, pn)
			}
		} else {
			j, ok = m.buildProcJob(impl, pn)
		}
		if ok {
			sc.scannedIdx = append(sc.scannedIdx, len(jobs))
			jobs = append(jobs, j)
			sc.spliceSrc = append(sc.spliceSrc, -1)
		}
	}
	ai := 0
	for li := 0; li < t.procs; li++ {
		r := t.at(li).job.resource
		for ai < len(aff) && aff[ai] < r {
			scanProc(aff[ai])
			ai++
		}
		if ai < len(aff) && aff[ai] == r {
			scanProc(r)
			ai++
			continue
		}
		jobs = append(jobs, t.at(li).job)
		sc.spliceSrc = append(sc.spliceSrc, li)
	}
	for ; ai < len(aff); ai++ {
		scanProc(aff[ai])
	}

	li := t.procs
	for i := range m.platform.Networks {
		n := &m.platform.Networks[i]
		cur := -1
		if li < t.n && t.at(li).job.resource == n.Name {
			cur = li
			li++
		}
		if netClean(ctx, n.Name) {
			if cur >= 0 {
				jobs = append(jobs, t.at(cur).job)
				sc.spliceSrc = append(sc.spliceSrc, cur)
			}
			continue
		}
		scanned++
		if j, ok := m.buildNetJob(impl, n); ok {
			sc.scannedIdx = append(sc.scannedIdx, len(jobs))
			jobs = append(jobs, j)
			sc.spliceSrc = append(sc.spliceSrc, -1)
		}
	}
	return jobs, scanned
}

// timingJobsSparse builds the job list of an attempt whose affected
// resources all replace their committed table entries in place: only the
// scanned jobs are materialized (sparsePos records the committed index
// each one replaces), every untouched resource stays implicit in the
// committed table, and the job-construction cost follows the change
// footprint instead of the platform size. The committed order is
// preserved by construction — affected processors are visited sorted,
// networks in platform order, matching the table's layout — so findings,
// deltas and telemetry come out exactly as the full splice would emit
// them. Any shape change (a resource gaining its first load, losing its
// last, or absent from the table) returns ok=false and the caller runs
// the full splice.
func (m *MCC) timingJobsSparse(ctx *pipeline.Context, impl *model.ImplementationModel, jobs []timingJob) ([]timingJob, int, bool) {
	sc := &m.scratch
	t := m.deployedRes
	over := m.pendingSynth
	scanned := 0

	aff := sc.affected[:0]
	for pn, on := range ctx.AffectedProcs {
		if on {
			aff = append(aff, pn)
		}
	}
	sort.Strings(aff)
	sc.affected = aff

	pos := sc.sparsePos[:0]
	for _, pn := range aff {
		scanned++
		var j timingJob
		var ok bool
		if over != nil {
			if tasks, have := over.tasksOn[pn]; have {
				j, ok = m.buildProcJobFrom(pn, tasks)
			} else {
				j, ok = m.buildProcJob(impl, pn)
			}
		} else {
			j, ok = m.buildProcJob(impl, pn)
		}
		li := t.find(pn)
		if !ok {
			if li >= 0 {
				return nil, 0, false // lost its last load: shape change
			}
			continue // no load before or after: not in the table at all
		}
		if li < 0 || t.at(li).job.spnp {
			return nil, 0, false // gained its first load: shape change
		}
		sc.scannedIdx = append(sc.scannedIdx, len(jobs))
		jobs = append(jobs, j)
		pos = append(pos, li)
	}
	if ctx.MessagesRebuilt {
		for i := range m.platform.Networks {
			n := &m.platform.Networks[i]
			if netClean(ctx, n.Name) {
				continue
			}
			scanned++
			j, ok := m.buildNetJob(impl, n)
			li := t.find(n.Name)
			if !ok {
				if li >= 0 {
					return nil, 0, false
				}
				continue
			}
			if li < 0 || !t.at(li).job.spnp {
				return nil, 0, false
			}
			sc.scannedIdx = append(sc.scannedIdx, len(jobs))
			jobs = append(jobs, j)
			pos = append(pos, li)
		}
	}
	sc.sparsePos = pos
	sc.sparse = true
	return jobs, scanned, true
}

// netClean reports whether a network's message list is untouched by the
// attempt: no message rebuild at all, or a rebuild that left this
// network's list identical (ctx.AffectedNets).
func netClean(ctx *pipeline.Context, name string) bool {
	if !ctx.MessagesRebuilt {
		return true
	}
	return ctx.AffectedNets != nil && !ctx.AffectedNets[name]
}

// deferredChecks carries one optimistically committed proposal's deferred
// acceptance checks (mcc.StreamScheduler): the safety/security inputs and
// the dirty timing jobs — exactly the resources still needing a
// busy-window verdict, in deterministic resource order. Clean resources'
// tables live in the committed state and are not replicated here. The
// failed flags are written by the scheduler's prefetch pool and read
// after its barrier.
type deferredChecks struct {
	tech *model.TechnicalArchitecture
	impl *model.ImplementationModel

	jobs []timingJob

	safetyFailed   bool
	securityFailed bool
	// safetyChecked/securityChecked record how many per-entity verdicts
	// the deferred from-scratch checks computed (the telemetry the
	// verification pass adds to the report). Zero when the stage decided
	// inline via the diff-scoped check (tech/impl stay nil then).
	safetyChecked   int
	securityChecked int

	// tainted marks that a prefetch task for this proposal hit a fault
	// (injected error or recovered panic). The verification pass treats a
	// tainted record as failed, forcing the window's serial replay — the
	// memo table may hold partial or missing entries, so the optimistic
	// decision cannot be trusted.
	tainted atomic.Bool
}

// deferred returns the deferred-check record of the pipeline run in
// progress, creating it on first use. integrate resets it per pass.
func (m *MCC) deferred() *deferredChecks {
	if m.lastDeferred == nil {
		m.lastDeferred = &deferredChecks{}
	}
	return m.lastDeferred
}

// analyzeTiming runs CPA on every processor (SPP) and network (SPNP/CAN).
// With incremental integration, resources whose task-set digest matches the
// deployed configuration are clean and reuse the committed WCRT table;
// dirty resources are fanned out over the worker pool and the results are
// merged back in deterministic resource order. A resource whose analysis
// fails (e.g. utilization >= 1, where the busy window does not terminate)
// is surfaced as a finding naming the resource — never dropped silently.
//
// Under ctx.DeferChecks the dirty analyses are not run at all: the jobs
// are recorded on m.lastDeferred for the stream scheduler to batch onto
// the worker pool and re-validate, and no findings are raised.
func (m *MCC) analyzeTiming(ctx *pipeline.Context, impl *model.ImplementationModel) timingOutcome {
	jobs, scanned := m.timingJobs(ctx, impl)
	m.pendingJobs = jobs
	m.pendingResults = nil

	sc := &m.scratch
	out := timingOutcome{scanned: scanned, total: len(jobs)}
	if sc.sparse {
		// The job list holds only the scanned resources; the attempt
		// still covers every committed one (positional replacements keep
		// the table's shape).
		out.total = m.deployedRes.n
	}
	if ctx == nil || !m.canCommitIncremental(ctx) {
		// The from-scratch commit refills the digest cache wholesale and
		// needs the full map; a keyed commit reads the digests of scanned
		// resources straight from the jobs and never looks at it.
		if sc.digests == nil {
			sc.digests = make(map[string]uint64, len(jobs))
		} else {
			clear(sc.digests)
		}
		for _, j := range jobs {
			sc.digests[j.resource] = j.digest
		}
		out.digests = sc.digests
	}

	spliced := !sc.sparse && len(sc.spliceSrc) == len(jobs) && len(jobs) > 0
	clean := func(i int) (TimingResult, bool) {
		if !m.incTiming {
			return TimingResult{}, false
		}
		if spliced {
			if k := sc.spliceSrc[i]; k >= 0 {
				// A positionally spliced job is the committed job itself
				// (digest-equal by construction); its committed table is
				// one index away. A nil table marks a deferred analysis
				// whose verified result lives only in the map (the stream
				// scheduler backfills it there) — fall through to the map
				// probe for those rare entries.
				if tr := m.deployedRes.at(k).res; tr.Results != nil {
					return tr, true
				}
			}
		}
		j := jobs[i]
		if m.deployedDigest[j.resource] == j.digest {
			tr, ok := m.deployedTiming[j.resource]
			return tr, ok
		}
		return TimingResult{}, false
	}

	if ctx != nil && ctx.DeferChecks {
		// Record only the dirty jobs: clean resources keep their committed
		// tables (reachable through the report's committed handle), and
		// the delta stays empty until the verification pass fills it with
		// the deferred verdicts.
		dt := m.deferred()
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
	m.pendingResults = results
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
	useMemo := m.incTiming && !pinned
	switch {
	case useMemo && j.spnp:
		return m.analyzer.AnalyzeSPNP(j.tasks)
	case useMemo:
		return m.analyzer.AnalyzeSPP(j.tasks)
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
	if ctx.PartialSynth && m.deployedRes != nil {
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
	var out []MonitorSpec
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
	sort.Slice(specs, func(i, j int) bool {
		return monitorSpecLess(specs[i], specs[j])
	})
}

func monitorSpecLess(a, b MonitorSpec) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Target < b.Target
}

// jobMonitorSpecs derives the monitor specs of one timing job: budget
// monitors for processor tasks, enforced rate monitors for network
// messages. The CPA task set carries exactly the contract parameters the
// monitors need, so the specs are identical to what planMonitors derives
// from the implementation model.
func jobMonitorSpecs(j timingJob) []MonitorSpec {
	out := make([]MonitorSpec, 0, len(j.tasks))
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
	sortMonitorSpecs(out)
	return out
}

// monitorDelta derives the monitor specs of exactly the resources this
// attempt rebuilt: budget specs of the scanned processors' timing jobs,
// plus — when the message list was re-derived — the rate specs of every
// network job. The result is freshly allocated and report-owned. The
// committed plan is never materialized here: consumers reach it through
// the report's FullMonitors handle, which derives it on demand from the
// committed table (see resTable.materializeMonitors), so the monitor
// stage's cost follows the change footprint, not the platform size.
func (m *MCC) monitorDelta(ctx *pipeline.Context) []MonitorSpec {
	var out []MonitorSpec
	rebuilt := 0
	for _, i := range m.scratch.scannedIdx {
		if j := m.pendingJobs[i]; !j.spnp {
			out = append(out, jobMonitorSpecs(j)...)
			rebuilt++
		}
	}
	if ctx.MessagesRebuilt {
		for i := len(m.pendingJobs) - 1; i >= 0 && m.pendingJobs[i].spnp; i-- {
			out = append(out, jobMonitorSpecs(m.pendingJobs[i])...)
			rebuilt++
		}
		if m.scratch.sparse {
			// The sparse job list carries only the rebuilt networks; the
			// delta still covers every network when messages were
			// re-derived, so emit the clean ones' specs from their
			// committed jobs (the network suffix of the table).
			t := m.deployedRes
			for li := t.procs; li < t.n; li++ {
				if j := t.at(li).job; netClean(ctx, j.resource) {
					out = append(out, jobMonitorSpecs(j)...)
					rebuilt++
				}
			}
		}
	}
	sortMonitorSpecs(out)
	ctx.Note("monitor delta: %d resources rebuilt (%d specs)", rebuilt, len(out))
	return out
}

// --- Stage 6: commit -------------------------------------------------------

type commitStage struct{ m *MCC }

func (s *commitStage) Name() Stage { return StageCommit }

// canCommitIncremental reports whether the commit stage will apply this
// attempt as keyed updates against the warm deployed caches (partial
// synthesis ran and every cache exists) instead of a full refill. The
// timing stage uses the same predicate to skip building the full digest
// map a keyed commit never reads.
func (m *MCC) canCommitIncremental(ctx *pipeline.Context) bool {
	return ctx.PartialSynth && m.deployedJobs != nil && m.deployedSynth != nil && m.pendingSynth != nil
}

// Run commits the accepted configuration. Under partial synthesis the
// deployed caches are updated with keyed writes touching only the
// resources the diff affected (journaled when a stream window is open —
// see cacheJournal); a from-scratch attempt rebuilds the caches
// wholesale. The cached values (task slices, result slices, spec slices)
// are immutable once built, so reports and rollback points may alias
// them.
func (s *commitStage) Run(ctx *pipeline.Context) error {
	m := s.m
	if m.deployed != ctx.Candidate {
		// A clone-based candidate replaces the deployed slice wholesale;
		// the committed function index no longer describes it.
		m.fnIdx = nil
	}
	m.deployed = ctx.Candidate
	m.impl = ctx.Impl
	if m.canCommitIncremental(ctx) {
		s.commitIncremental(ctx)
	} else {
		s.commitFull(ctx)
	}
	m.bindReport(ctx.Report)
	return nil
}

// bindReport attaches the just-committed table to the accepted report's
// materialize-on-demand whole-table handle (Report.FullTiming /
// FullMonitors). The table pointer is captured by value: later commits
// install new tables without disturbing this snapshot, and the chunked
// copy-on-write patching keeps the shared storage alive at O(diff) cost
// per commit. The window heal map is captured alongside for reports
// committed inside an open stream window, whose deferred analyses are
// verified — and their tables learned — only after the commit.
func (m *MCC) bindReport(rep *Report) {
	t, heals := m.deployedRes, m.windowHeals
	if t == nil {
		return
	}
	rep.BindCommitted(
		func() []TimingResult { return t.materializeTiming(heals) },
		func() []MonitorSpec { return t.materializeMonitors() },
	)
}

// commitFull rebuilds every deployed cache from this attempt's artifacts.
// Fresh maps are swapped in wholesale: an open window journal keeps the
// window-start maps (with their keyed undo entries) intact and detaches,
// so rollback simply re-installs them.
func (s *commitStage) commitFull(ctx *pipeline.Context) {
	m := s.m
	if m.journal != nil {
		m.journal.detached = true
	}
	// A wholesale rebuild replaces every incremental cache with values
	// derived from this attempt's artifacts, so any quarantine imposed by
	// the degradation ladder is lifted: the suspect state is gone.
	m.quarantined = false
	// Every committed placement may have moved: the shard routing index
	// is rebuilt lazily from the fresh synthesis cache.
	m.invalidateRoutes()

	// Per-resource WCRT tables of the new committed configuration, read
	// before the old maps are replaced: a non-deferred attempt analyzed
	// (or spliced) every job, so pendingResults is complete; a deferred
	// attempt has no results yet — only digest-clean resources keep their
	// tables, probed from the old committed maps.
	timing := make(map[string]TimingResult, len(m.pendingJobs))
	for i, jb := range m.pendingJobs {
		switch {
		case m.pendingResults != nil:
			timing[jb.resource] = m.pendingResults[i]
		case m.deployedDigest[jb.resource] == jb.digest:
			if tr, ok := m.deployedTiming[jb.resource]; ok {
				timing[jb.resource] = tr
			}
		}
	}

	digests := make(map[string]uint64, len(ctx.TimingDigests))
	for k, v := range ctx.TimingDigests {
		digests[k] = v
	}
	m.deployedDigest = digests
	m.deployedTiming = timing

	// Persist the per-resource CPA task sets so the next proposal's
	// timing-job construction can splice clean resources without a scan.
	jobs := make(map[string]timingJob, len(m.pendingJobs))
	for _, j := range m.pendingJobs {
		jobs[j.resource] = j
	}
	m.deployedJobs = jobs

	// Chunked committed-resource table: the job list is already in
	// deterministic resource order (processor prefix, then networks), and
	// the timing map just built holds whatever tables are known (all of
	// them on a verified commit, clean ones only under deferred checks).
	list := make([]committedRes, len(m.pendingJobs))
	procCount := 0
	for i, jb := range m.pendingJobs {
		if !jb.spnp {
			procCount++
		}
		list[i] = committedRes{job: jb, res: timing[jb.resource]}
	}
	m.deployedRes = resTableFrom(list, procCount)

	// Rebuild the synthesis lookup tables and the per-connection security
	// verdict cache only when the incremental pre-timing stages (their
	// sole consumers) are enabled.
	if m.incPre && ctx.Impl != nil {
		m.deployedSynth = newSynthCache(ctx.Impl)
		sec := make(map[model.Connection]bool, len(ctx.Impl.Connections))
		for _, c := range ctx.Impl.Connections {
			sec[c] = true
		}
		m.deployedSecVerdicts = sec
		m.deployedConnIdx = connPosIndex(ctx.Impl.Connections)
		m.deployedInstTotal = len(ctx.Impl.Tech.Instances)
		m.deployedFlowTouch = flowTouchIndex(ctx.Candidate.Flows)
		m.deployedLoads = committedLoads(m, ctx.Impl.Tech.Instances)
		prov := make(map[string]int)
		for i := range ctx.Candidate.Functions {
			for _, svc := range ctx.Candidate.Functions[i].Provides {
				prov[svc]++
			}
		}
		m.svcProviders = prov
	}
}

// committedLoads derives the per-processor load accounting of a committed
// placement — a fresh slice, so an open window journal rolls back by
// restoring the window-start pointer.
func committedLoads(m *MCC, instances []model.Instance) []procLoad {
	loads := make([]procLoad, len(m.platform.Processors))
	for _, in := range instances {
		i, ok := m.procIdx[in.Processor]
		f := m.deployedSynth.fnByName[in.Function]
		if !ok || f == nil {
			continue
		}
		loads[i].utilPPM += scaleUtilPPM(utilPPM(f), m.platform.Processors[i].SpeedFactor)
		loads[i].ramKiB += f.Contract.Resources.RAMKiB
	}
	return loads
}

// connPosIndex maps each function name to the ascending positions of the
// committed connections it is incident to (client or server side) — the
// committed index behind the indexed scoped security check. Always built
// fresh, never mutated in place, so a window journal rolls it back by
// restoring the window-start pointer.
func connPosIndex(conns []model.Connection) map[string][]int {
	out := make(map[string][]int)
	for i, c := range conns {
		cl := security.FunctionName(c.Client)
		sv := security.FunctionName(c.Server)
		out[cl] = append(out[cl], i)
		if sv != cl {
			out[sv] = append(out[sv], i)
		}
	}
	return out
}

// flowTouchIndex maps every function name a flow references to true —
// the committed index behind DiffFromChange's removal arm.
func flowTouchIndex(flows []model.Flow) map[string]bool {
	out := make(map[string]bool, 2*len(flows))
	for _, fl := range flows {
		out[fl.From] = true
		out[fl.To] = true
	}
	return out
}

// commitIncremental updates the deployed caches with keyed writes: only
// the resources this attempt scanned (affected processors, plus every
// network when messages were re-derived) and the diff-touched lookup
// entries are written or deleted, everything else keeps its committed
// entry by the splice invariant. Every write goes through the window
// journal when one is open.
func (s *commitStage) commitIncremental(ctx *pipeline.Context) {
	m, j := s.m, s.m.journal

	// The committed flow index changes only with the flow set (removals
	// cutting flows). Commits swap in a fresh map — never an in-place
	// write — so a window journal rolls back by pointer.
	if ctx.Diff.FlowsChanged {
		m.deployedFlowTouch = flowTouchIndex(ctx.Candidate.Flows)
	}

	// The warm-started mapping's placer buffer already holds the final
	// per-processor totals of the accepted placement; take ownership of it
	// as the new committed loads. The previous slice is recycled as the
	// next proposal's placer buffer — unless a window journal holds it as
	// its rollback pointer, in which case it must stay intact.
	if m.pendingLoads != nil {
		old := m.deployedLoads
		m.deployedLoads, m.pendingLoads = m.pendingLoads, nil
		m.loadScratch = nil
		if j == nil || len(old) == 0 || len(j.loads) == 0 || &old[0] != &j.loads[0] {
			m.loadScratch = old
		}
	}

	// Index this attempt's freshly scanned jobs by resource.
	fresh := make(map[string]int, len(m.scratch.scannedIdx))
	for _, i := range m.scratch.scannedIdx {
		fresh[m.pendingJobs[i].resource] = i
	}
	commitResource := func(r string) {
		i, ok := fresh[r]
		if !ok {
			// Affected resource that no longer carries load.
			jdel(j.jJobs(), m.deployedJobs, r)
			jdel(j.jDigests(), m.deployedDigest, r)
			jdel(j.jTiming(), m.deployedTiming, r)
			return
		}
		job := m.pendingJobs[i]
		oldDigest, had := m.deployedDigest[r]
		jset(j.jJobs(), m.deployedJobs, r, job)
		jset(j.jDigests(), m.deployedDigest, r, job.digest)
		switch {
		case m.pendingResults != nil:
			jset(j.jTiming(), m.deployedTiming, r, m.pendingResults[i])
		case !had || oldDigest != job.digest:
			// Deferred checks: the dirty analysis has not run yet; drop
			// the stale table (the stream scheduler's verification
			// backfills it on success, the window replays on failure).
			jdel(j.jTiming(), m.deployedTiming, r)
		}
	}
	for pn := range ctx.AffectedProcs {
		commitResource(pn)
	}
	if ctx.MessagesRebuilt {
		for i := range m.platform.Networks {
			if name := m.platform.Networks[i].Name; !netClean(ctx, name) {
				commitResource(name)
			}
		}
	}

	// Committed-resource table: this attempt's job list is the new
	// committed resource order. When the splice left the shape unchanged
	// (same length, every spliced entry in place, every scanned position
	// replacing the same resource), the table is patched copy-on-write —
	// spine plus affected chunks, O(diff) — leaving the previous table (a
	// window rollback point, a bound report snapshot) intact and shared.
	// A shape change (resources gaining or losing load) or a map-walk job
	// list rebuilds the table wholesale, O(n) but rare in steady state.
	// Either way an accepted commit always leaves a non-nil table, so
	// report binding and DeployedMonitors stay universally valid. Scanned
	// entries take this attempt's fresh table (or none yet under deferred
	// checks — the map probe finds the committed table of a digest-clean
	// rescan and misses for a dirty one, whose table the stream
	// scheduler's verification patches in on success).
	t := m.deployedRes
	if m.scratch.sparse {
		// Sparse job list: every entry is a positional replacement of the
		// committed index sparsePos records; patch copy-on-write exactly
		// like the aligned splice, without ever materializing the full
		// list. (The wholesale-rebuild branch below must not run here —
		// it would take the footprint-sized job list for the platform.)
		updates := make([]resUpdate, 0, len(m.scratch.scannedIdx))
		for k, i := range m.scratch.scannedIdx {
			jb := m.pendingJobs[i]
			cr := committedRes{job: jb}
			switch {
			case m.pendingResults != nil:
				cr.res = m.pendingResults[i]
			default:
				if tr, ok := m.deployedTiming[jb.resource]; ok && m.deployedDigest[jb.resource] == jb.digest {
					cr.res = tr
				}
			}
			updates = append(updates, resUpdate{m.scratch.sparsePos[k], cr})
		}
		m.deployedRes = t.patch(updates)
	}
	aligned := !m.scratch.sparse && t != nil && t.n == len(m.pendingJobs) && len(m.scratch.spliceSrc) == len(m.pendingJobs)
	if aligned {
		for i, src := range m.scratch.spliceSrc {
			if src == i {
				continue
			}
			if src != -1 || t.at(i).job.resource != m.pendingJobs[i].resource || t.at(i).job.spnp != m.pendingJobs[i].spnp {
				aligned = false
				break
			}
		}
	}
	if aligned {
		updates := make([]resUpdate, 0, len(m.scratch.scannedIdx))
		for _, i := range m.scratch.scannedIdx {
			jb := m.pendingJobs[i]
			cr := committedRes{job: jb}
			switch {
			case m.pendingResults != nil:
				cr.res = m.pendingResults[i]
			default:
				if tr, ok := m.deployedTiming[jb.resource]; ok && m.deployedDigest[jb.resource] == jb.digest {
					cr.res = tr
				}
			}
			updates = append(updates, resUpdate{i, cr})
		}
		m.deployedRes = t.patch(updates)
	} else if !m.scratch.sparse {
		list := make([]committedRes, len(m.pendingJobs))
		procCount := 0
		for i, jb := range m.pendingJobs {
			if !jb.spnp {
				procCount++
			}
			cr := committedRes{job: jb}
			switch {
			case len(m.scratch.spliceSrc) == len(m.pendingJobs) && m.scratch.spliceSrc[i] >= 0:
				cr.res = t.at(m.scratch.spliceSrc[i]).res
				if cr.res.Results == nil {
					// Deferred-committed entry: heal from the map, which
					// the verification pass backfilled (zero if still
					// unverified).
					cr.res = m.deployedTiming[jb.resource]
				}
			case m.pendingResults != nil:
				cr.res = m.pendingResults[i]
			default:
				if tr, ok := m.deployedTiming[jb.resource]; ok && m.deployedDigest[jb.resource] == jb.digest {
					cr.res = tr
				}
			}
			list[i] = cr
		}
		m.deployedRes = resTableFrom(list, procCount)
	}

	// Security verdict cache: the connection set changes only when the
	// synthesis rebuilt the sessions; every connection of the accepted
	// implementation model was verified clean (fresh-checked this
	// proposal or spliced from an earlier commit), so the cache becomes
	// exactly the new connection set — stale wiring dropped, new wiring
	// added, untouched entries left alone.
	if ctx.ConnectionsRebuilt && m.deployedSecVerdicts != nil {
		next := make(map[model.Connection]bool, len(ctx.Impl.Connections))
		for _, c := range ctx.Impl.Connections {
			next[c] = true
		}
		for c := range m.deployedSecVerdicts {
			if !next[c] {
				jdel(j.jSec(), m.deployedSecVerdicts, c)
			}
		}
		for c := range next {
			if !m.deployedSecVerdicts[c] {
				jset(j.jSec(), m.deployedSecVerdicts, c, true)
			}
		}
		// The position index describes the committed list; a rebuilt list
		// gets a fresh index (rollback restores the window-start pointer).
		if m.deployedConnIdx != nil {
			m.deployedConnIdx = connPosIndex(ctx.Impl.Connections)
		}
	}

	// Apply the synthesis lookup overlay: diff-touched functions are
	// copied in (or dropped), affected processors' task lists replaced.
	// The provider counts adjust by the same delta — decrement the
	// committed occurrences (read before the overlay overwrites them),
	// increment the candidate's.
	sc, over := m.deployedSynth, m.pendingSynth
	// Committed instance count: touched functions' committed replicas
	// out, fresh placements in — read before the overlay overwrites the
	// committed entries. Rollback restores the window-start value saved
	// by beginWindow.
	for name := range over.fns {
		m.deployedInstTotal += len(over.insts[name]) - len(sc.instancesOf[name])
		// Refresh the shard routing of the diff-touched functions: the
		// keyed commit is what moves placements, so dropping exactly these
		// entries keeps the routing index in step at O(diff) (the next
		// lookup re-resolves from the placements committed below).
		delete(m.fnParts, name)
	}
	for name, f := range over.fns {
		if old := sc.fnByName[name]; old != nil && m.svcProviders != nil {
			for _, svc := range old.Provides {
				if n := m.svcProviders[svc] - 1; n > 0 {
					jset(j.jSvcProv(), m.svcProviders, svc, n)
				} else {
					jdel(j.jSvcProv(), m.svcProviders, svc)
				}
			}
		}
		if f != nil && m.svcProviders != nil {
			for _, svc := range f.Provides {
				jset(j.jSvcProv(), m.svcProviders, svc, m.svcProviders[svc]+1)
			}
		}
		if f == nil {
			jdel(j.jSynFns(), sc.fnByName, name)
			jdel(j.jSynIns(), sc.instancesOf, name)
			continue
		}
		cp := *f
		jset(j.jSynFns(), sc.fnByName, name, &cp)
		jset(j.jSynIns(), sc.instancesOf, name, over.insts[name])
	}
	for pn, tasks := range over.tasksOn {
		if len(tasks) == 0 {
			jdel(j.jSynTasks(), sc.tasksOn, pn)
		} else {
			jset(j.jSynTasks(), sc.tasksOn, pn, tasks)
		}
	}
	for pn, insts := range over.instsOn {
		if len(insts) == 0 {
			jdel(j.jSynInstOn(), sc.instOn, pn)
		} else {
			jset(j.jSynInstOn(), sc.instOn, pn, insts)
		}
	}
}
