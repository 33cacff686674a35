package mcc

// This file implements the rollback point of the stream scheduler's
// optimistic windows. All committed state, the functional architecture
// included, lives in one snapshot value (snapshot.go) whose parts copy
// themselves on write under the controller's epoch, and no proposal
// writes anything before its commit stage. Opening a window is therefore
// recording the start snapshot pointer and bumping the epoch — O(1)
// whatever the platform size — and rollback is restoring that pointer;
// the window's discarded reports are the scheduler's to drop.

// windowJournal is the rollback point of one optimistic window.
type windowJournal struct {
	start *snapshot

	// heals collects the verified deferred timing verdicts keyed by
	// {resource, task-set digest}. Reports committed optimistically inside
	// the window bind their table before the deferred analyses have run;
	// their materializers consult this map to fill the entries still
	// pending at commit time. Digest-keyed because two proposals of one
	// window can defer the same processor with different task sets. The
	// bound reports keep the map alive after the window closes.
	heals map[resDigestKey]TimingResult
}

// beginWindow opens a rollback point in O(1), whatever the platform size.
func (m *MCC) beginWindow() *windowJournal {
	// A fresh epoch: the start snapshot's parts all belong to older
	// epochs now, so the window's commits copy whatever they write.
	m.epoch = m.newEpoch()
	j := &windowJournal{
		start: m.snap,
		heals: make(map[resDigestKey]TimingResult),
	}
	m.journal = j
	return j
}

// commitWindow finalizes the window: the optimistic commits stand.
func (m *MCC) commitWindow() { m.journal = nil }

// rollbackWindow restores the controller to the window-start state by
// re-installing the start snapshot pointer.
func (m *MCC) rollbackWindow(j *windowJournal) {
	m.journal = nil
	m.snap = j.start
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
// the snapshot's lookup state and timing table and the analyzer memo, and
// quarantine the controller. The committed implementation model and
// functional architecture are kept, materialized first from the lookup
// state being dropped, so the purged snapshot stands on its own.
// Proposals decided while quarantined run the pinned from-scratch path —
// slower but dependent only on the committed architecture — and the
// first accepted commit rebuilds the snapshot wholesale (commitFull),
// lifting the quarantine.
func (m *MCC) purgeIncrementalState() {
	m.quarantined = true
	m.snap = &snapshot{impl: m.DeployedImpl(), fa: m.Deployed()}
	m.analyzer.Reset()
}
