package mcc

import (
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpa"
	"repro/internal/model"
)

// snapshotView projects a committed snapshot into comparable plain
// values: every field, with the maps copied (so an emptied map and a
// fresh one compare equal), the capacity index node by node, inner nodes
// included, and the function ranks turned into the function order they
// define (their values depend on the commit history, the order must
// not). The architecture memo is left out: it is Deployed's, which the
// tests compare to a clone-path shadow. Empty lists are normalized to
// nil.
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
		for name, e := range s.fns {
			ranked = append(ranked, e)
			fns[name] = *e.fn
			if len(e.insts) > 0 {
				insts[name] = e.insts
			}
			if len(e.conns) > 0 {
				conns[name] = e.conns
			}
		}
		maps.Copy(prov, s.prov)
		maps.Copy(req, s.req)
		for _, ps := range s.procs {
			if len(ps.tasks) == 0 {
				ps.tasks = nil
			}
			if len(ps.insts) == 0 {
				ps.insts = nil
			}
			procs = append(procs, ps)
		}
		capacity = slices.Clone(s.capacity)
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
		"insts":     insts,
		"conns":     conns,
		"prov":      prov,
		"req":       req,
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

// The timing table is the snapshot's one copy-on-write part, because
// reports bind the table they were committed with: a patch holds its
// fills and clears, leaves the receiver unchanged, shares every chunk it
// does not touch, and copies each chunk it touches once, however many of
// its slots it writes.
func TestResTablePatchCopyOnWrite(t *testing.T) {
	const n = 3*chunkSize + 1
	fills := make([]committedRes, n)
	for i := range fills {
		fills[i].job = timingJob{resource: fmt.Sprint("r", i), slot: int32(i)}
	}
	old := resTableFrom(n, fills[:n-1]) // the last slot, alone in its chunk, empty
	before := make([]*committedRes, n)
	for i := range before {
		before[i] = old.at(i)
	}
	spine := slices.Clone(old.spine)

	// Two slots of chunk 1, the empty last slot (chunk 3) and a clear in
	// chunk 0; chunk 2 is untouched.
	patch := []committedRes{
		{job: timingJob{resource: "x", slot: chunkSize + 2}},
		{job: timingJob{resource: "y", slot: chunkSize + 3}},
		{job: timingJob{resource: "z", slot: n - 1}},
	}
	clears := []int{1}
	nt := old.patch(patch, clears)

	for i := range before {
		if old.at(i) != before[i] {
			t.Fatalf("patch wrote slot %d of its receiver", i)
		}
	}
	if !slices.Equal(old.spine, spine) || old.loaded != n-1 {
		t.Fatalf("patch changed its receiver's spine or loaded count (%d)", old.loaded)
	}
	for k := range patch {
		if i := int(patch[k].job.slot); nt.at(i) != &patch[k] {
			t.Errorf("slot %d holds %v, want the fill", i, nt.get(i).job.resource)
		}
	}
	if nt.at(1) != nil || nt.loaded != n-1 || nt.n != n {
		t.Errorf("patched table: slot 1 %v, loaded %d, n %d; want empty, %d, %d", nt.at(1), nt.loaded, nt.n, n-1, n)
	}
	for ci, shared := range []bool{false, false, true, false} {
		if got := nt.spine[ci] == old.spine[ci]; got != shared {
			t.Errorf("chunk %d shared %v, want %v", ci, got, shared)
		}
	}
	if got := nt.get(2); got != before[2] {
		t.Error("an untouched slot of a copied chunk lost its entry")
	}

	// The table header, the spine and the three touched chunks, once each.
	if allocs := testing.AllocsPerRun(10, func() { old.patch(patch, clears) }); allocs != 5 {
		t.Errorf("patch allocated %.0f times, want 5 (table, spine, three chunks)", allocs)
	}
	if same := old.patch(nil, nil); same != old {
		t.Error("an empty patch did not return its receiver")
	}
}
