package mcc

import (
	"repro/internal/model"
)

// This file implements the rollback point of the stream scheduler's
// optimistic windows. All committed state besides the functional
// architecture lives in one snapshot value (snapshot.go) whose parts
// copy themselves on write under the controller's epoch, so opening a
// window is recording the start snapshot pointer and bumping the epoch —
// O(1) whatever the platform size — and rollback is restoring it. The
// architecture itself is mutated in place by the fast path; the window
// keeps those mutations' undo records and replays them in reverse.

// windowJournal is the rollback point of one optimistic window.
type windowJournal struct {
	start    *snapshot
	deployed *model.FunctionalArchitecture
	history  int

	// candUndos records the in-place candidate mutations of the window's
	// accepted fast-path proposals, in commit order. The deployed-pointer
	// restore alone does not roll the architecture back — the fast path
	// mutates the pointed-to object — so rollback replays these in
	// reverse.
	candUndos []candUndo
	// heals collects the verified deferred timing verdicts keyed by
	// {resource, task-set digest}. Reports committed optimistically inside
	// the window bind their table before the deferred analyses have run;
	// their materializers consult this map to fill the entries still
	// pending at commit time. Digest-keyed because two proposals of one
	// window can defer the same processor with different task sets. The
	// bound reports keep the map alive after the window closes.
	heals map[resDigestKey]TimingResult
}

// beginWindow opens a rollback point. Cost is O(1) regardless of platform
// size (amortized — the history trim below moves at most historyLimit
// pointers once per limit appends). The trim runs here, before the
// history length is captured, because stream proposals append their
// reports while a window is open, where trimming is forbidden (it would
// shift the rollback index).
func (m *MCC) beginWindow() *windowJournal {
	m.trimHistory()
	// If the window can roll back into a purge, materialize the committed
	// flat lists up front: the restored start model must then stand on its
	// own, since the snapshot's lookup state — its only materialization
	// source — is dropped by the purge. The purge is reachable solely
	// through the "journal.undo" fault-injection hook in rollbackWindow, so
	// production windows skip the materialization and stay O(1); under
	// chaos testing it costs one pair of flat copies per committed model
	// (memoized).
	if m.inject.Wired("journal.undo") {
		m.DeployedImpl()
	}
	// A fresh epoch: the start snapshot's parts all belong to older
	// epochs now, so the window's commits copy whatever they write.
	m.epoch = m.newEpoch()
	j := &windowJournal{
		start:    m.snap,
		deployed: m.deployed,
		history:  len(m.History),
		heals:    make(map[resDigestKey]TimingResult),
	}
	m.journal = j
	return j
}

// commitWindow finalizes the window: the optimistic commits stand.
func (m *MCC) commitWindow() { m.journal = nil }

// rollbackWindow restores the controller to the window-start state: the
// architecture mutations are reverted, the history truncated, and the
// start snapshot re-installed.
func (m *MCC) rollbackWindow(j *windowJournal) {
	m.journal = nil
	m.deployed = j.deployed
	m.History = m.History[:j.history]
	// Revert the in-place candidate mutations of the window's accepted
	// fast-path proposals, newest first. This restores the deployed
	// architecture, which a purge cannot cure, so it happens before the
	// fault-injection hook below.
	for i := len(j.candUndos) - 1; i >= 0; i-- {
		m.revertChange(j.candUndos[i])
	}
	m.snap = j.start
	// The replay above keeps the function index in step, but a mid-window
	// from-scratch commit may have rebuilt it over a swapped-in slice the
	// restored pointer just discarded; rebuild lazily.
	m.fnIdx = nil
	// Fault-injection hook modeling a corrupted start snapshot (e.g. a
	// chunk lost to memory corruption): the incremental state is purged
	// and the controller quarantined — every subsequent proposal runs the
	// pinned from-scratch path until an accepted commit rebuilds the
	// snapshot wholesale.
	if _, fired, err := m.inject.Fire(nil, "journal.undo", ""); fired && err != nil {
		m.purgeIncrementalState()
	}
}

// purgeIncrementalState is the last rung of the degradation ladder: drop
// the snapshot's lookup state and timing table (keeping only the
// committed implementation model) and the analyzer memo, and quarantine
// the controller. Proposals decided while quarantined run the pinned
// from-scratch path — slower but dependent only on the committed
// architecture — and the first accepted commit rebuilds the snapshot
// wholesale (commitFull), lifting the quarantine.
func (m *MCC) purgeIncrementalState() {
	m.quarantined = true
	m.snap = &snapshot{impl: m.snap.impl}
	m.fnIdx = nil
	m.analyzer.Reset()
}
