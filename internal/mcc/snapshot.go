package mcc

import (
	"hash/maphash"
	"slices"

	"repro/internal/model"
	"repro/internal/security"
)

// This file implements the committed snapshot: the one value that holds
// everything the controller has committed — the functional architecture,
// the implementation model, the timing table, and the lookup state of
// the incremental engine — and the two persistent containers it is built
// from (a chunked array and a hash-bucketed map).
//
// Both containers use the "transient" idiom of persistent data
// structures. Every chunk, bucket and spine records the epoch that owns
// it; a write under epoch e changes a part in place when e owns it and
// copies the part (once, taking ownership) when an older epoch does. A
// stream window bumps the controller's epoch when it opens, so its start
// snapshot is never written: the window's commits copy exactly the parts
// they touch, and rollback restores the start pointer. Serial commits
// outside a window own what they wrote last and keep writing in place.

// newEpoch hands out a fresh epoch token: window epochs and the one-shot
// tokens of timing-table patches share the counter, so no two owners
// collide. Commits are serial, so the counter needs no synchronization.
func (m *MCC) newEpoch() uint64 {
	m.epochs++
	return m.epochs
}

const (
	// chunkShift sets the chunk size of the persistent arrays (16
	// entries): a one-entry write copies one chunk — 16 entries, 136 B for
	// the timing table's pointer slots, about 0.4–0.8 KiB for the
	// per-processor states and capacity nodes — plus the spine, which
	// stays at 128 pointers for 2048 entries.
	chunkShift = 4
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// chunk is one fixed-size run of a persistent array, owned by epoch.
type chunk[T any] struct {
	epoch uint64
	v     [chunkSize]T
}

// chunks is a persistent array: fixed-size chunks behind a pointer spine,
// with epoch-owned copy-on-write writes (see set). The zero value is a
// valid empty array.
type chunks[T any] struct {
	spine []*chunk[T]
	n     int
	epoch uint64 // owner of spine
}

// chunksFrom builds an array owned by epoch from a flat list (copied).
func chunksFrom[T any](epoch uint64, list []T) chunks[T] {
	a := chunks[T]{spine: make([]*chunk[T], (len(list)+chunkMask)>>chunkShift), n: len(list), epoch: epoch}
	for ci := range a.spine {
		c := &chunk[T]{epoch: epoch}
		copy(c.v[:], list[ci<<chunkShift:])
		a.spine[ci] = c
	}
	return a
}

// at returns entry i. The storage may be shared with other snapshots:
// callers write only through set.
func (a *chunks[T]) at(i int) *T { return &a.spine[i>>chunkShift].v[i&chunkMask] }

// set writes entry i under epoch e, first copying the spine and the
// entry's chunk if an older epoch owns them.
func (a *chunks[T]) set(e uint64, i int, v T) {
	if a.epoch != e {
		a.spine, a.epoch = slices.Clone(a.spine), e
	}
	ci := i >> chunkShift
	if c := a.spine[ci]; c.epoch != e {
		cp := *c
		cp.epoch = e
		a.spine[ci] = &cp
	}
	a.spine[ci].v[i&chunkMask] = v
}

// pmap is a persistent string-keyed hash map: a power-of-two spine of
// small entry buckets, with the same epoch-owned copy-on-write writes as
// chunks. The zero value is an empty map that must not be written.
type pmap[V any] struct {
	spine []*pbucket[V]
	n     int
	epoch uint64 // owner of spine
}

type pbucket[V any] struct {
	epoch uint64
	ents  []pentry[V]
}

type pentry[V any] struct {
	key string
	val V
}

var pmapSeed = maphash.MakeSeed()

// newPmap returns an empty map owned by epoch, sized for about hint
// entries (four per bucket).
func newPmap[V any](epoch uint64, hint int) pmap[V] {
	nb := 16
	for 4*nb < hint {
		nb <<= 1
	}
	return pmap[V]{spine: make([]*pbucket[V], nb), epoch: epoch}
}

// pmapOf builds a map owned by epoch from entries with distinct keys: the
// bulk form of put for a from-scratch build, which sizes every bucket
// exactly and carves all of them from one array (capacity-clipped, so a
// later put copies before it grows one).
func pmapOf[V any](epoch uint64, ents []pentry[V]) pmap[V] {
	p := newPmap[V](epoch, len(ents))
	slots := make([]int32, len(ents))
	count := make([]int, len(p.spine))
	for i := range ents {
		slots[i] = int32(p.slot(ents[i].key))
		count[slots[i]]++
	}
	buckets := make([]pbucket[V], len(p.spine))
	all, off := make([]pentry[V], len(ents)), 0
	for i, c := range count {
		if c > 0 {
			buckets[i] = pbucket[V]{epoch: epoch, ents: all[off : off : off+c]}
			p.spine[i] = &buckets[i]
			off += c
		}
	}
	for i, en := range ents {
		b := p.spine[slots[i]]
		b.ents = append(b.ents, en)
	}
	p.n = len(ents)
	return p
}

func (p *pmap[V]) slot(key string) int {
	return int(maphash.String(pmapSeed, key) & uint64(len(p.spine)-1))
}

// get returns the value stored under key (the zero value if absent).
func (p *pmap[V]) get(key string) V {
	var zero V
	if len(p.spine) == 0 {
		return zero
	}
	if b := p.spine[p.slot(key)]; b != nil {
		for i := range b.ents {
			if b.ents[i].key == key {
				return b.ents[i].val
			}
		}
	}
	return zero
}

// own returns bucket i writable under epoch e, copying the spine and the
// bucket first if an older epoch owns them.
func (p *pmap[V]) own(e uint64, i int) *pbucket[V] {
	if p.epoch != e {
		p.spine, p.epoch = slices.Clone(p.spine), e
	}
	b := p.spine[i]
	if b == nil || b.epoch != e {
		nb := &pbucket[V]{epoch: e}
		if b != nil {
			nb.ents = slices.Clone(b.ents)
		}
		p.spine[i], b = nb, nb
	}
	return b
}

// put stores key=v under epoch e, doubling the spine once buckets
// average more than eight entries.
func (p *pmap[V]) put(e uint64, key string, v V) {
	b := p.own(e, p.slot(key))
	for i := range b.ents {
		if b.ents[i].key == key {
			b.ents[i].val = v
			return
		}
	}
	b.ents = append(b.ents, pentry[V]{key, v})
	if p.n++; p.n > 8*len(p.spine) {
		old := *p
		*p = newPmap[V](e, 8*len(old.spine))
		old.each(func(key string, v V) { p.put(e, key, v) })
	}
}

// del removes key under epoch e.
func (p *pmap[V]) del(e uint64, key string) {
	i := p.slot(key)
	b := p.spine[i]
	if b == nil {
		return
	}
	k := slices.IndexFunc(b.ents, func(en pentry[V]) bool { return en.key == key })
	if k < 0 {
		return
	}
	b = p.own(e, i)
	b.ents = slices.Delete(b.ents, k, k+1)
	p.n--
}

// each calls fn for every entry, in no particular order.
func (p *pmap[V]) each(fn func(key string, v V)) {
	for _, b := range p.spine {
		if b != nil {
			for _, en := range b.ents {
				fn(en.key, en.val)
			}
		}
	}
}

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
// (commitFull builds all of it, a purge drops all of it). Slices and maps
// a snapshot holds are never written in place (the memoized fa and
// DeployedImpl's memoized flat lists of impl aside); chunks and buckets
// are written only by their owning epoch.
type snapshot struct {
	epoch uint64 // owner of this header
	// fa memoizes the committed functional architecture. A from-scratch
	// commit installs its candidate, and so does a warm commit whose pass
	// materialized it; after any other commit it is nil and Deployed
	// rebuilds it from fns (in rank order) and flows. A cold snapshot
	// always holds it.
	fa   *model.FunctionalArchitecture
	impl *model.ImplementationModel
	// res is the committed timing table (see resTable). It is always
	// patched copy-on-write, never by epoch, because accepted reports
	// bind it.
	res  *resTable
	warm bool

	// procs is the per-processor state, indexed by platform processor
	// position (MCC.procIdx). capacity is the capacity index over the
	// committed loads (see capLayout): one min segment tree per placement
	// class, whose leaves are the per-processor load accounting. A commit
	// writes the leaves the warm start changed and their root paths.
	procs    chunks[procState]
	capacity chunks[capNode]
	// fns maps each committed function name to its entry; nextSeq is the
	// rank the next added function takes (an update keeps its rank).
	fns     pmap[fnEntry]
	nextSeq uint64
	// flows is the committed flow list.
	flows []model.Flow
	// prov lists, per service name, its committed providers and req its
	// committed requirers, both by ascending name: the validation fast
	// path's "is this service provided", the session graph's provider
	// election (the first provider is elected) and its rewiring set.
	prov, req pmap[[]string]
	// flowTouch holds every function name a committed flow references:
	// whether a removal cuts flows (newPass) and the message-rebuild
	// test.
	flowTouch map[string]bool
	// instTotal is the committed instance count (warm-start telemetry).
	instTotal int
}

// buildSnapshot derives a whole snapshot, owned by the controller's
// current epoch, from a committed configuration and its pass index ix:
// the from-scratch commit path, and the reference the snapshot-parity
// test hook compares against (with an index of its own derivation).
// Without the incremental engine only impl and res are kept.
func (m *MCC) buildSnapshot(fa *model.FunctionalArchitecture, impl *model.ImplementationModel, res *resTable, ix *passIndex) *snapshot {
	e := m.epoch
	s := &snapshot{epoch: e, fa: fa, impl: impl, res: res}
	if !m.incremental {
		return s
	}
	s.warm = true
	rows := clientRows(impl.Connections, len(fa.Functions))
	ents := make([]pentry[fnEntry], len(fa.Functions))
	for i := range fa.Functions {
		f := &fa.Functions[i]
		ents[i] = pentry[fnEntry]{f.Name, fnEntry{f, uint64(i), ix.insts[f.Name], rows[f.Name]}}
	}
	s.fns, s.nextSeq = pmapOf(e, ents), uint64(len(ents))
	// The index's resident lists are in Instance.Less order and its task
	// lists in priority order: the orders the incremental synthesis keeps.
	procs := make([]procState, len(m.platform.Processors))
	nodes := m.layout.leaves(m.platform)
	for i, insts := range ix.instsOn {
		procs[i].insts = insts
		leaf := &nodes[m.layout.pos(i)]
		for _, in := range insts {
			if f := ix.fns[in.Function]; f != nil {
				leaf.util += scaleUtilPPM(utilPPM(f), m.platform.Processors[i].SpeedFactor)
				leaf.free -= f.Contract.Resources.RAMKiB
			}
		}
	}
	for i, tasks := range ix.tasksOn {
		procs[i].tasks = tasks
	}
	s.procs, s.capacity = chunksFrom(e, procs), m.layout.tree(e, nodes)
	s.prov = nameLists(e, fa, func(f *model.Function) []string { return f.Provides })
	s.req = nameLists(e, fa, func(f *model.Function) []string { return f.Requires })
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
func nameLists(e uint64, fa *model.FunctionalArchitecture, services func(*model.Function) []string) pmap[[]string] {
	by := make(map[string][]string, len(fa.Functions))
	for i := range fa.Functions {
		for _, svc := range services(&fa.Functions[i]) {
			by[svc] = append(by[svc], fa.Functions[i].Name)
		}
	}
	ents := make([]pentry[[]string], 0, len(by))
	for svc, names := range by {
		slices.Sort(names)
		ents = append(ents, pentry[[]string]{svc, slices.Compact(names)})
	}
	return pmapOf(e, ents)
}

// fn returns the committed function of the given name, or nil.
func (s *snapshot) fn(name string) *model.Function { return s.fns.get(name).fn }

// proc returns the committed state of the named processor.
func (m *MCC) proc(pn string) *procState { return m.snap.procs.at(m.procIdx[pn]) }

// ownSnap returns the snapshot header writable under the current epoch,
// copying it first if an older epoch — a window's start snapshot — owns
// it. The parts it points to copy themselves on write (chunks, pmap) or
// are replaced wholesale (fa, impl, res, flows, flowTouch).
func (m *MCC) ownSnap() *snapshot {
	if m.snap.epoch != m.epoch {
		cp := *m.snap
		cp.epoch = m.epoch
		m.snap = &cp
	}
	return m.snap
}

// connCommitted reports whether c is a committed row of its client —
// the committed security verdict of a wiring, since a configuration only
// commits after every connection passed the cross-domain check. O(degree).
func (s *snapshot) connCommitted(c model.Connection) bool {
	return slices.Contains(s.fns.get(security.FunctionName(c.Client)).conns, c)
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
