package mcc

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpa"
	"repro/internal/model"
)

// snapshotView projects a committed snapshot into comparable plain
// values: every field, with the persistent containers flattened into Go
// maps and slices (the capacity index node by node, inner nodes included) (their internal layout — bucket order, chunk sharing —
// depends on the commit history, their content must not) and the
// function ranks into the function order they define (their values
// depend on the history too). The architecture memo is left out: it is
// Deployed's, which the tests compare to a clone-path shadow. Empty lists
// are normalized to nil.
func snapshotView(s *snapshot) map[string]any {
	if s == nil {
		return nil
	}
	fns := make(map[string]model.Function)
	insts := make(map[string][]model.Instance)
	conns := make(map[string][]model.Connection)
	prov := make(map[string][]string)
	req := make(map[string][]string)
	var procs []procState
	var capacity []capNode
	var ranked []fnEntry
	if s.warm {
		s.fns.each(func(name string, e fnEntry) {
			ranked = append(ranked, e)
			fns[name] = *e.fn
			if len(e.insts) > 0 {
				insts[name] = e.insts
			}
			if len(e.conns) > 0 {
				conns[name] = e.conns
			}
		})
		s.prov.each(func(svc string, names []string) { prov[svc] = names })
		s.req.each(func(svc string, names []string) { req[svc] = names })
		for i := 0; i < s.procs.n; i++ {
			ps := *s.procs.at(i)
			if len(ps.tasks) == 0 {
				ps.tasks = nil
			}
			if len(ps.insts) == 0 {
				ps.insts = nil
			}
			procs = append(procs, ps)
		}
		for i := 0; i < s.capacity.n; i++ {
			capacity = append(capacity, *s.capacity.at(i))
		}
	}
	slices.SortFunc(ranked, func(a, b fnEntry) int { return cmp.Compare(a.rank, b.rank) })
	var order []string
	for _, e := range ranked {
		order = append(order, e.fn.Name)
	}
	return map[string]any{
		"warm":      s.warm,
		"fns":       fns,
		"order":     order,
		"flows":     s.flows,
		"fnCount":   s.fns.n,
		"insts":     insts,
		"conns":     conns,
		"prov":      prov,
		"provCount": s.prov.n,
		"req":       req,
		"reqCount":  s.req.n,
		"procs":     procs,
		"capacity":  capacity,
		"flowTouch": s.flowTouch,
		"instTotal": s.instTotal,
	}
}

// sameList compares two lists, treating nil and empty alike.
func sameList[T any](a, b []T) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// assertSnapshotFresh is the snapshot-parity test hook: it rebuilds the
// committed snapshot from Deployed() and DeployedImpl() with the builder
// commitFull uses and deep-compares every field — the client rows, the
// function order and the provider and requirer lists included. Deployed()
// is itself derived from the snapshot under test, so the tests that drive
// architecture edits hold it to an independent clone-path shadow
// (assertDeployed). The flat task, instance and
// connection lists DeployedImpl materializes come from the snapshot itself,
// so the committed implementation model is additionally held to a
// from-scratch synthesis of the committed placement, and the timing table
// — one slot per platform resource, with a true loaded count — to a full
// job rescan and the from-scratch WCRT oracle.
func assertSnapshotFresh(t *testing.T, label string, m *MCC) {
	t.Helper()
	if m.snap.impl == nil {
		t.Fatalf("%s: no committed snapshot", label)
	}
	res := m.snap.res
	if want := len(m.procs) + len(m.platform.Networks); res.n != want {
		t.Errorf("%s: timing table holds %d slots, want %d", label, res.n, want)
	}
	if loaded := len(committedJobs(m)); res.loaded != loaded {
		t.Errorf("%s: timing table counts %d loaded slots, holds %d", label, res.loaded, loaded)
	}
	impl := m.DeployedImpl()
	if m.warm() {
		got, want := snapshotView(m.snap), snapshotView(m.buildSnapshot(m.Deployed(), impl, m.snap.res, referenceIndex(m, m.Deployed(), impl.Tech.Instances, impl.Tasks)))
		for key := range want {
			if !reflect.DeepEqual(got[key], want[key]) {
				t.Errorf("%s: snapshot field %q diverges from a rebuild:\ncommitted %+v\nrebuilt   %+v", label, key, got[key], want[key])
			}
		}
	}
	ref, err := m.synthesize(&model.TechnicalArchitecture{Platform: m.platform, Func: m.Deployed(), Instances: impl.Tech.Instances},
		referenceIndex(m, m.Deployed(), impl.Tech.Instances, nil))
	if err != nil {
		t.Fatalf("%s: re-synthesis of the committed placement: %v", label, err)
	}
	if !sameList(impl.Tasks, ref.Tasks) || !sameList(impl.Messages, ref.Messages) || !sameList(impl.Connections, ref.Connections) {
		t.Errorf("%s: committed implementation model diverges from a re-synthesis:\ncommitted %+v\nre-synth  %+v", label, impl, ref)
	}
	if scan, committed := scanDigests(m), committedDigests(m); !reflect.DeepEqual(scan, committed) {
		t.Errorf("%s: committed job digests diverge from a full rescan:\nscan      %v\ncommitted %v", label, scan, committed)
	}
	for _, j := range committedJobs(m) {
		if want := cpa.TaskSetDigest(j.tasks); j.digest != want {
			t.Errorf("%s: %s's committed job carries digest %x, its tasks digest to %x", label, j.resource, j.digest, want)
		}
	}
	wantTiming, wantMonitors, err := FromScratchTables(m.platform, impl)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if got := m.snap.res.materializeTiming(); !reflect.DeepEqual(got, wantTiming) {
		t.Errorf("%s: committed WCRT tables diverge from the oracle:\ngot  %+v\nwant %+v", label, got, wantTiming)
	}
	if got := m.DeployedMonitors(); !reflect.DeepEqual(got, wantMonitors) {
		t.Errorf("%s: committed monitor plan diverges from the oracle:\ngot  %+v\nwant %+v", label, got, wantMonitors)
	}
}

// referenceIndex derives the pass index of a configuration — functions
// fa placed as insts, with tasks as its flat task list (nil: left for a
// synthesis to fill) — with the model's own grouping helpers. It shares
// no code with newPassIndex, so the rebuilds that assertSnapshotFresh
// compares against cannot inherit a bug of the engine's index.
func referenceIndex(m *MCC, fa *model.FunctionalArchitecture, insts []model.Instance, tasks []model.Task) *passIndex {
	tech := &model.TechnicalArchitecture{Platform: m.platform, Func: fa, Instances: insts}
	impl := &model.ImplementationModel{Tech: tech, Tasks: tasks}
	ix := &passIndex{
		fns:     make(map[string]*model.Function),
		insts:   make(map[string][]model.Instance),
		instsOn: make([][]model.Instance, len(m.platform.Processors)),
		idsOn:   make([][]string, len(m.platform.Processors)),
	}
	for i := range fa.Functions {
		ix.fns[fa.Functions[i].Name] = &fa.Functions[i]
	}
	for _, in := range insts {
		ix.insts[in.Function] = append(ix.insts[in.Function], in)
		ix.ids = append(ix.ids, in.ID())
	}
	for _, l := range ix.insts {
		slices.SortFunc(l, func(a, b model.Instance) int { return cmp.Compare(a.Replica, b.Replica) })
	}
	instsOn, tasksOn := tech.InstancesByProcessor(), impl.TasksByProcessor()
	if tasks != nil {
		ix.tasksOn = make([][]model.Task, len(m.platform.Processors))
	}
	for i, p := range m.platform.Processors {
		ix.instsOn[i] = instsOn[p.Name]
		for _, in := range ix.instsOn[i] {
			ix.idsOn[i] = append(ix.idsOn[i], in.ID())
		}
		if tasks != nil {
			ix.tasksOn[i] = tasksOn[p.Name]
		}
	}
	return ix
}

// The epoch-owned copy-on-write of the persistent containers: writes
// under the owning epoch land in place, writes under a newer epoch copy
// the touched chunk or bucket and leave the older value intact.
func TestPersistentContainersCopyOnWrite(t *testing.T) {
	const e0, e1 = 1, 2
	list := make([]int, 3*chunkSize+1)
	for i := range list {
		list[i] = i
	}
	a := chunksFrom(e0, list)
	a.set(e0, 1, -1) // owned: in place
	if *a.at(1) != -1 || a.n != len(list) {
		t.Fatalf("in-place set: at(1)=%d n=%d", *a.at(1), a.n)
	}
	start := a
	a.set(e1, chunkSize+2, -2)
	a.set(e1, chunkSize+3, -3)
	if *start.at(chunkSize + 2) != chunkSize+2 || *start.at(chunkSize + 3) != chunkSize+3 {
		t.Fatal("a newer epoch's write reached the older array")
	}
	if *a.at(chunkSize + 2) != -2 || *a.at(chunkSize + 3) != -3 || *a.at(1) != -1 {
		t.Fatal("copy-on-write lost a write")
	}
	if a.spine[0] != start.spine[0] || a.spine[1] == start.spine[1] {
		t.Fatal("untouched chunk not shared, or touched chunk not copied")
	}

	p := newPmap[int](e0, 0)
	for i := 0; i < 300; i++ { // grows the spine several times
		p.put(e0, fmt.Sprint("k", i), i)
	}
	old := p
	p.put(e1, "k7", 70)
	p.del(e1, "k8")
	p.put(e1, "new", 1)
	if old.get("k7") != 7 || old.get("k8") != 8 || old.get("new") != 0 || old.n != 300 {
		t.Fatal("a newer epoch's write reached the older map")
	}
	if p.get("k7") != 70 || p.get("k8") != 0 || p.get("new") != 1 || p.n != 300 {
		t.Fatalf("map after writes: k7=%d k8=%d new=%d n=%d", p.get("k7"), p.get("k8"), p.get("new"), p.n)
	}
	seen := 0
	p.each(func(string, int) { seen++ })
	if seen != p.n {
		t.Fatalf("each visited %d entries, n=%d", seen, p.n)
	}
}
