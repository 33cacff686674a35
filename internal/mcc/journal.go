package mcc

import (
	"repro/internal/model"
)

// This file implements the copy-on-write rollback point of the stream
// scheduler's optimistic windows. Cloning every deployed cache before each
// window would cost O(platform) even when the window only touches two
// processors; the journal inverts that cost. Most committed state is
// never written in place — the committed timing table (a chunked
// persistent table, see restable.go), loads, flow and connection indexes
// are replaced by fresh values on commit — so the window start records
// their pointers and rollback restores them. Six keyed maps remain that
// commits do write in place: the security verdict cache, the provider
// counts, and the four synthesis lookup tables. For these the commit
// stage writes through jset/jdel, which save the prior value of every key
// they overwrite (first write per key only), and rollback restores
// exactly the journaled entries. Snapshot and rollback cost are therefore
// proportional to the window's footprint, not the platform size.
//
// A from-scratch commit inside a window (a cold retry after a rejected
// warm-start attempt) cannot be journaled per key: commitFull builds
// fresh maps and swaps them in wholesale, leaving the window-start maps —
// including every keyed journal entry recorded against them — intact, and
// detaches the journal so later keyed writes (which hit the fresh maps)
// are not recorded. Rollback then restores the window-start pointers and
// reverts the pre-detach entries onto them.

// prior is one journaled map entry: the value the key held before the
// window's first write to it (existed=false marks a key that was absent).
type prior[V any] struct {
	val     V
	existed bool
}

// jset writes m[k]=v, saving the prior entry into journal j first. A nil
// journal map makes it a plain write.
func jset[K comparable, V any](j map[K]prior[V], m map[K]V, k K, v V) {
	if j != nil {
		if _, seen := j[k]; !seen {
			old, ok := m[k]
			j[k] = prior[V]{old, ok}
		}
	}
	m[k] = v
}

// jdel deletes m[k], saving the prior entry into journal j first. A nil
// journal map makes it a plain delete.
func jdel[K comparable, V any](j map[K]prior[V], m map[K]V, k K) {
	if j != nil {
		if _, seen := j[k]; !seen {
			old, ok := m[k]
			j[k] = prior[V]{old, ok}
		}
	}
	delete(m, k)
}

// jrevert restores every journaled entry onto m.
func jrevert[K comparable, V any](j map[K]prior[V], m map[K]V) {
	for k, p := range j {
		if p.existed {
			m[k] = p.val
		} else {
			delete(m, k)
		}
	}
}

// cacheJournal is the rollback point of one optimistic window: the
// window-start pointers of the committed configuration and its cache
// maps, plus the keyed undo entries of every in-place cache write the
// window's commits performed.
type cacheJournal struct {
	deployed *model.FunctionalArchitecture
	impl     *model.ImplementationModel
	history  int

	// candUndos records the in-place candidate mutations of the window's
	// accepted fast-path proposals, in commit order. The deployed-pointer
	// restore alone no longer rolls the architecture back — the fast path
	// mutates the pointed-to object — so rollback replays these in
	// reverse. Appended even after a detach: the mutations are part of
	// the configuration, not of the cache maps a from-scratch commit
	// replaces.
	candUndos []candUndo
	// flowTouch is the window-start committed flow index; commits swap in
	// fresh maps instead of mutating it, so restoring the pointer is the
	// whole rollback.
	flowTouch map[string]bool
	// loads is the window-start committed per-processor load slice;
	// commits swap in fresh slices, so rollback restores the pointer.
	loads []procLoad
	// resTable is the window-start committed timing table; commits patch
	// copy-on-write or build fresh tables, so rollback restores the
	// pointer.
	resTable *resTable
	// connIdx is the window-start committed connection-position index;
	// commits that rebuild the connections swap in a fresh map, so
	// rollback restores the pointer.
	connIdx map[string][]int
	// instTotal is the window-start committed instance count.
	instTotal int

	// Window-start map pointers. Keyed commits mutate these in place
	// (journaled below); a from-scratch commit swaps in fresh maps and
	// leaves these untouched.
	secMap map[model.Connection]bool
	synth  *synthCache
	svcMap map[string]int

	// Keyed undo entries, recorded against the window-start maps.
	sec       map[model.Connection]prior[bool]
	synFns    map[string]prior[*model.Function]
	synIns    map[string]prior[[]model.Instance]
	synTasks  map[string]prior[[]model.Task]
	synInstOn map[string]prior[[]model.Instance]
	svcProv   map[string]prior[int]

	// detached marks that a from-scratch commit replaced the cache maps:
	// the window-start maps are final, keyed journaling stops.
	detached bool
}

// The accessors below hand the commit stage the journal map to record
// into; they are nil-receiver-safe and return nil once the journal is
// detached (or when no window is open), which jset/jdel treat as "plain
// write".

func (j *cacheJournal) jSec() map[model.Connection]prior[bool] {
	if j == nil || j.detached {
		return nil
	}
	return j.sec
}

func (j *cacheJournal) jSynFns() map[string]prior[*model.Function] {
	if j == nil || j.detached {
		return nil
	}
	return j.synFns
}

func (j *cacheJournal) jSynIns() map[string]prior[[]model.Instance] {
	if j == nil || j.detached {
		return nil
	}
	return j.synIns
}

func (j *cacheJournal) jSynTasks() map[string]prior[[]model.Task] {
	if j == nil || j.detached {
		return nil
	}
	return j.synTasks
}

func (j *cacheJournal) jSynInstOn() map[string]prior[[]model.Instance] {
	if j == nil || j.detached {
		return nil
	}
	return j.synInstOn
}

func (j *cacheJournal) jSvcProv() map[string]prior[int] {
	if j == nil || j.detached {
		return nil
	}
	return j.svcProv
}

// beginWindow opens a copy-on-write rollback point: window-start pointers
// are recorded, and every subsequent commit journals the cache entries it
// overwrites. Cost is O(1) regardless of platform size (amortized — the
// history trim below moves at most historyLimit pointers once per limit
// appends). The trim runs here, before the history length is captured,
// because stream proposals append their reports while a window is open,
// where trimming is forbidden (it would shift the rollback index).
func (m *MCC) beginWindow() *cacheJournal {
	m.trimHistory()
	// If the window can roll back into a cache purge, materialize the
	// committed flat lists up front: the restored window-start model must
	// then stand on its own — its only materialization source, the synth
	// cache, is gone after the purge. The purge is reachable solely
	// through the "journal.undo" fault-injection hook in rollbackWindow,
	// so production windows (no rule wired at that hook) skip the
	// materialization entirely and stay O(1); under chaos testing the
	// cost is one pair of flat copies per committed model, not per
	// window (memoized).
	if m.inject.Wired("journal.undo") {
		m.DeployedImpl()
	}
	j := &cacheJournal{
		deployed:  m.deployed,
		impl:      m.impl,
		history:   len(m.History),
		flowTouch: m.deployedFlowTouch,
		loads:     m.deployedLoads,
		resTable:  m.deployedRes,
		connIdx:   m.deployedConnIdx,
		instTotal: m.deployedInstTotal,
		secMap:    m.deployedSecVerdicts,
		synth:     m.deployedSynth,
		svcMap:    m.svcProviders,
		sec:       make(map[model.Connection]prior[bool]),
		synFns:    make(map[string]prior[*model.Function]),
		synIns:    make(map[string]prior[[]model.Instance]),
		synTasks:  make(map[string]prior[[]model.Task]),
		synInstOn: make(map[string]prior[[]model.Instance]),
		svcProv:   make(map[string]prior[int]),
	}
	m.journal = j
	// Fresh heal map per window: reports bound by this window's commits
	// capture it, and the verification pass fills it with the deferred
	// verdicts their table snapshots are still missing. Closed windows
	// drop the controller's reference (commitWindow/rollbackWindow); the
	// bound reports keep theirs.
	m.windowHeals = make(map[resDigestKey]TimingResult)
	return j
}

// commitWindow finalizes the window: the optimistic commits stand, the
// undo entries are dropped. The heal map stays alive only through the
// reports bound inside the window.
func (m *MCC) commitWindow() {
	m.journal = nil
	m.windowHeals = nil
}

// rollbackWindow restores the controller to the window-start state: the
// configuration pointers and history length are reset, the window-start
// cache maps are re-installed, and the journaled entries are reverted
// onto them. Cost is proportional to the window's footprint.
func (m *MCC) rollbackWindow(j *cacheJournal) {
	m.journal = nil
	m.windowHeals = nil
	m.deployed = j.deployed
	m.impl = j.impl
	m.History = m.History[:j.history]
	// Revert the in-place candidate mutations of the window's accepted
	// fast-path proposals, newest first. This restores the deployed
	// *architecture* — configuration, not cache — so it happens
	// unconditionally, before the fault-injection hook below: a failed
	// keyed cache undo can be cured by purging the caches, a corrupted
	// architecture cannot.
	for i := len(j.candUndos) - 1; i >= 0; i-- {
		m.revertChange(j.candUndos[i])
	}
	m.deployedFlowTouch = j.flowTouch
	m.deployedLoads = j.loads
	m.deployedRes = j.resTable
	m.deployedConnIdx = j.connIdx
	m.deployedInstTotal = j.instTotal
	// The replay above keeps the function index in step, but a mid-window
	// from-scratch commit may have rebuilt it over the swapped-in slice
	// the restored pointer just discarded; rebuild lazily from the
	// restored slice.
	m.fnIdx = nil
	// Fault-injection hook modeling a failed keyed undo (e.g. a journal
	// entry lost to memory corruption). The configuration pointers above
	// are plain swaps and always succeed; what cannot be trusted after a
	// failed undo are the incremental cache maps, so they are purged and
	// the controller is quarantined — every subsequent proposal runs the
	// pinned from-scratch path until an accepted commit rebuilds the
	// caches wholesale.
	if _, fired, err := m.inject.Fire(nil, "journal.undo", ""); fired && err != nil {
		m.purgeIncrementalState()
		return
	}
	m.deployedSecVerdicts = j.secMap
	m.deployedSynth = j.synth
	m.svcProviders = j.svcMap
	if j.synth != nil {
		// Warm at window start (a cold start records no keyed writes: the
		// window's first commit is a detaching from-scratch one).
		jrevert(j.sec, m.deployedSecVerdicts)
		jrevert(j.svcProv, m.svcProviders)
		jrevert(j.synFns, j.synth.fnByName)
		jrevert(j.synIns, j.synth.instancesOf)
		jrevert(j.synTasks, j.synth.tasksOn)
		jrevert(j.synInstOn, j.synth.instOn)
	}
}

// purgeIncrementalState is the last rung of the degradation ladder: drop
// every incremental cache (including the analyzer memo) and quarantine
// the controller. Proposals decided while quarantined run the pinned
// from-scratch path — slower but dependent only on the committed
// architecture, never on cache state — and the first accepted commit
// rebuilds the caches wholesale (commitFull), lifting the quarantine.
func (m *MCC) purgeIncrementalState() {
	m.quarantined = true
	m.deployedRes = nil
	m.deployedSynth = nil
	m.pendingSynth = nil
	m.deployedSecVerdicts = nil
	m.deployedFlowTouch = nil
	m.deployedLoads = nil
	m.svcProviders = nil
	m.pendingLoads = nil
	m.pendingPlaced = nil
	m.deployedConnIdx = nil
	m.deployedInstTotal = 0
	m.fnIdx = nil
	m.analyzer.Reset()
}
