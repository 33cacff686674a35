package mcc

import (
	"slices"

	"repro/internal/model"
	"repro/internal/security"
)

// This file implements the committed snapshot: the one value that holds
// everything the controller has committed — the functional architecture,
// the implementation model, the timing table, and the lookup state of
// the incremental engine — and the undo record that rolls a stream
// window's commits back.
//
// Commits write the snapshot in place: a warm commit writes the entries
// its change touched into the snapshot's maps and slices, and a
// from-scratch commit installs a fresh snapshot. A stream window keeps
// its start header by value and arms the controller's windowUndo, which
// keeps the value every committed function, service list and processor
// entry held before the window's first write to it; rollback writes those
// values back and re-derives the capacity index from them. Only the
// timing table is patched copy-on-write (restable.go), because reports
// bind it.

// fnEntry is one committed function: the function (a standalone copy on an
// incremental commit, the committed architecture's own entry on a
// from-scratch one; never written in place either way), its rank (its
// place in the committed architecture's function order), its replica
// instances, replica-ascending, and its client session rows, replica-major
// and in Requires order (its run of the flat connection list, which orders
// clients by name).
type fnEntry struct {
	fn    *model.Function
	rank  uint64
	insts []model.Instance
	conns []model.Connection
}

// procState is one processor's committed state: its deadline-monotonic
// task list and its resident instances in (function, replica) order.
type procState struct {
	tasks []model.Task
	insts []model.Instance
}

// snapshot is the committed state of the controller. impl and res are
// installed by every commit; the remaining fields but fa are the lookup
// state of the incremental engine, present exactly when warm is set
// (commitFull builds all of it, a purge drops all of it). A warm commit
// writes the maps and slices in place, entry by entry; what an entry
// points to (task and instance slices, name lists, function copies) is
// never written in place, so reports and a window's undo record may
// alias it. DeployedImpl's memoized flat lists of impl and the memoized
// fa are written once, on first use.
type snapshot struct {
	// fa memoizes the committed functional architecture. A from-scratch
	// commit installs its candidate, and so does a warm commit whose pass
	// materialized it; after any other commit it is nil and Deployed
	// rebuilds it from fns (in rank order) and flows. A cold snapshot
	// always holds it.
	fa   *model.FunctionalArchitecture
	impl *model.ImplementationModel
	// res is the committed timing table (see resTable). It is patched
	// copy-on-write, never in place, because accepted reports bind it.
	res  *resTable
	warm bool

	// procs is the per-processor state, indexed by platform processor
	// position (MCC.procIdx). capacity is the capacity index over the
	// committed loads (see capLayout): one min segment tree per placement
	// class, whose leaves are the per-processor load accounting. A commit
	// writes the leaves the warm start changed and their root paths.
	procs    []procState
	capacity []capNode
	// fns maps each committed function name to its entry; nextSeq is the
	// rank the next added function takes (an update keeps its rank).
	fns     map[string]fnEntry
	nextSeq uint64
	// flows is the committed flow list.
	flows []model.Flow
	// prov lists, per service name, its committed providers and req its
	// committed requirers, both by ascending name: the validation fast
	// path's "is this service provided", the session graph's provider
	// election (the first provider is elected) and its rewiring set.
	prov, req map[string][]string
	// flowTouch holds every function name a committed flow references:
	// whether a removal cuts flows (newPass) and the message-rebuild
	// test.
	flowTouch map[string]bool
	// instTotal is the committed instance count (warm-start telemetry).
	instTotal int
}

// buildSnapshot derives a whole snapshot from a committed configuration
// and its pass index ix: the from-scratch commit path, and the reference
// the snapshot-parity test hook compares against (with an index of its
// own derivation). Without the incremental engine only impl and res are
// kept.
func (m *MCC) buildSnapshot(fa *model.FunctionalArchitecture, impl *model.ImplementationModel, res *resTable, ix *passIndex) *snapshot {
	s := &snapshot{fa: fa, impl: impl, res: res}
	if !m.incremental {
		return s
	}
	s.warm = true
	rows := clientRows(impl.Connections, len(fa.Functions))
	s.fns, s.nextSeq = make(map[string]fnEntry, len(fa.Functions)), uint64(len(fa.Functions))
	for i := range fa.Functions {
		f := &fa.Functions[i]
		s.fns[f.Name] = fnEntry{f, uint64(i), ix.insts[f.Name], rows[f.Name]}
	}
	// The index's resident lists are in Instance.Less order and its task
	// lists in priority order: the orders the incremental synthesis keeps.
	s.procs = make([]procState, len(m.platform.Processors))
	for i, insts := range ix.instsOn {
		s.procs[i].insts = insts
	}
	for i, tasks := range ix.tasksOn {
		s.procs[i].tasks = tasks
	}
	s.capacity = m.capacityIndex(make([]capNode, len(m.layout.zero)), s.procs, s.fns)
	s.prov = nameLists(fa, func(f *model.Function) []string { return f.Provides })
	s.req = nameLists(fa, func(f *model.Function) []string { return f.Requires })
	s.flows, s.flowTouch = fa.Flows, flowTouchIndex(fa.Flows)
	s.instTotal = len(impl.Tech.Instances)
	return s
}

// clientRows groups a flat connection list by client function. Synthesis
// emits the rows client by client, so each client's rows are one run of
// the list, kept as a window of it; a client whose rows come in several
// runs gets them joined.
func clientRows(conns []model.Connection, hint int) map[string][]model.Connection {
	rows := make(map[string][]model.Connection, hint)
	for len(conns) > 0 {
		name := security.FunctionName(conns[0].Client)
		n := 1
		for n < len(conns) && security.FunctionName(conns[n].Client) == name {
			n++
		}
		run := conns[:n:n]
		if prev, ok := rows[name]; ok {
			run = append(slices.Clip(prev), run...)
		}
		rows[name] = run
		conns = conns[n:]
	}
	return rows
}

// nameLists maps each service that services(f) names for some function
// f of fa to the ascending names of those functions.
func nameLists(fa *model.FunctionalArchitecture, services func(*model.Function) []string) map[string][]string {
	by := make(map[string][]string, len(fa.Functions))
	for i := range fa.Functions {
		for _, svc := range services(&fa.Functions[i]) {
			by[svc] = append(by[svc], fa.Functions[i].Name)
		}
	}
	for svc, names := range by {
		slices.Sort(names)
		by[svc] = slices.Compact(names)
	}
	return by
}

// fn returns the committed function of the given name, or nil.
func (s *snapshot) fn(name string) *model.Function { return s.fns[name].fn }

// proc returns the committed state of the named processor.
func (m *MCC) proc(pn string) *procState { return &m.snap.procs[m.procIdx[pn]] }

// windowUndo is a stream window's first-write undo record. While armed,
// it keeps, for every committed function (by name), provider and
// requirer list (by service) and processor entry (by position) the
// window's commits write, the value the entry held when the window
// opened; a name absent then is recorded as absent. Its maps live as
// long as the controller and are cleared when a window arms them, so a
// window allocates nothing for its record once they have grown.
type windowUndo struct {
	armed     bool
	fns       map[string]prior[fnEntry]
	prov, req map[string]prior[[]string]
	procs     map[int]procState
}

// prior is an entry's value before a window's first write to it; ok is
// false for a name the map did not hold.
type prior[V any] struct {
	v  V
	ok bool
}

// arm starts an empty record.
func (u *windowUndo) arm() {
	if u.fns == nil {
		u.fns, u.prov, u.req = make(map[string]prior[fnEntry]), make(map[string]prior[[]string]), make(map[string]prior[[]string])
		u.procs = make(map[int]procState)
	}
	clear(u.fns)
	clear(u.prov)
	clear(u.req)
	clear(u.procs)
	u.armed = true
}

// log returns the record while it is armed, else the zero record, whose
// nil maps record nothing.
func (u *windowUndo) log() windowUndo {
	if u.armed {
		return *u
	}
	return windowUndo{}
}

// put sets dst[k] to v, or deletes k when drop, first keeping k's value
// in rec unless rec is nil or already keeps one.
func put[V any](rec map[string]prior[V], dst map[string]V, k string, v V, drop bool) {
	if rec != nil {
		if _, seen := rec[k]; !seen {
			old, ok := dst[k]
			rec[k] = prior[V]{old, ok}
		}
	}
	if drop {
		delete(dst, k)
	} else {
		dst[k] = v
	}
}

// restore writes every value rec keeps back into dst.
func restore[V any](rec map[string]prior[V], dst map[string]V) {
	for k, p := range rec {
		if p.ok {
			dst[k] = p.v
		} else {
			delete(dst, k)
		}
	}
}

// connCommitted reports whether c is a committed row of its client —
// the committed security verdict of a wiring, since a configuration only
// commits after every connection passed the cross-domain check. O(degree).
func (s *snapshot) connCommitted(c model.Connection) bool {
	return slices.Contains(s.fns[security.FunctionName(c.Client)].conns, c)
}

// withName returns the ascending name list with name present (in) or
// absent (!in): the list itself when it already is, else a fresh copy —
// committed lists are never written in place.
func withName(list []string, name string, in bool) []string {
	i, found := slices.BinarySearch(list, name)
	if found == in {
		return list
	}
	if in {
		return slices.Insert(slices.Clip(list), i, name)
	}
	return slices.Delete(slices.Clone(list), i, i+1)
}

// flowTouchIndex maps every function name a flow references to true.
// Always built fresh, never mutated in place.
func flowTouchIndex(flows []model.Flow) map[string]bool {
	out := make(map[string]bool, 2*len(flows))
	for _, fl := range flows {
		out[fl.From] = true
		out[fl.To] = true
	}
	return out
}
