package mcc

import "slices"

// This file implements the chunked persistent committed-resource table:
// the controller's only committed timing state (each loaded resource's
// CPA job, task-set digest and WCRT table) and the storage behind the
// delta-report contract. The table has one fixed slot per platform
// resource: processor k of MCC.procs (sorted by name) at slot k, network
// i at slot len(procs)+i. An unloaded resource's slot is empty, so slot
// order is the deterministic resource order, and a resource gaining its
// first load or losing its last only fills or clears its slot.
//
// It is the one part of the committed snapshot that is copy-on-write:
// reports bind a table pointer at commit time (Report.FullTiming /
// FullMonitors), so a commit must leave the previous table intact. A flat
// slice would make every accepted commit allocate and copy the whole
// platform (O(platform) memclr+copy per change); the slots live in
// fixed-size chunks behind a pointer spine instead. A slot is a pointer
// to a committedRes (nil when the resource carries no load), immutable
// except that a pending entry is filled once, in place, by the stream
// window that committed it, before StreamScheduler.Run returns (see
// committedRes). So a commit that writes k slots clones the spine once
// and each of the ceil(k/chunk) affected chunks of 16 pointers once (136
// B each, where chunks of values would copy about 1.8 KiB), and shares
// every other chunk, and every committed value, with the previous table —
// O(diff) per accepted change. Materialization deep-copies on every call,
// so nothing a consumer obtains can alias chunk contents.

const (
	// chunkShift sets the chunk size of the table (16 slots): a one-slot
	// write copies one chunk plus the spine, which stays at 128 pointers
	// for 2048 resources.
	chunkShift = 4
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// resChunk is one fixed-size run of slots.
type resChunk [chunkSize]*committedRes

// resTable is the committed timing state, one slot per platform resource
// (see timingJob.slot); n is the slot count and loaded counts the non-nil
// slots. The zero/nil table is valid and empty.
type resTable struct {
	spine     []*resChunk
	n, loaded int
}

// resTableFrom builds a table of n slots holding each fill at its job's
// slot. The table keeps fills as the backing array of its slots: the
// caller hands the list over and must not write it again.
func resTableFrom(n int, fills []committedRes) *resTable {
	t := &resTable{spine: make([]*resChunk, (n+chunkMask)>>chunkShift), n: n, loaded: len(fills)}
	chunks := make([]resChunk, len(t.spine))
	for ci := range t.spine {
		t.spine[ci] = &chunks[ci]
	}
	for k := range fills {
		i := fills[k].job.slot
		t.spine[i>>chunkShift][i&chunkMask] = &fills[k]
	}
	return t
}

// at returns slot i, nil when empty.
func (t *resTable) at(i int) *committedRes { return t.spine[i>>chunkShift][i&chunkMask] }

// noRes is the value of every empty slot.
var noRes committedRes

// get returns slot i, read-only; a nil table's slots are all empty.
func (t *resTable) get(i int) *committedRes {
	if t != nil {
		if cr := t.at(i); cr != nil {
			return cr
		}
	}
	return &noRes
}

// patch returns a table with each fill written at its job's slot and each
// cleared slot emptied; clears lists only loaded slots. Like
// resTableFrom, the new table keeps fills as the backing array of the
// slots it writes. The spine and each affected chunk are copied once and
// every untouched chunk is shared with the receiver, which is unchanged
// (a bound report's view, or the table a window's rollback restores).
func (t *resTable) patch(fills []committedRes, clears []int) *resTable {
	if len(fills)+len(clears) == 0 {
		return t
	}
	nt := &resTable{spine: slices.Clone(t.spine), n: t.n, loaded: t.loaded}
	for k := range fills {
		i := int(fills[k].job.slot)
		if nt.at(i) == nil {
			nt.loaded++
		}
		nt.set(t, i, &fills[k])
	}
	for _, i := range clears {
		nt.loaded--
		nt.set(t, i, nil)
	}
	return nt
}

// set writes slot i of a patch of old, first copying the slot's chunk if
// it is still old's.
func (t *resTable) set(old *resTable, i int, cr *committedRes) {
	c := &t.spine[i>>chunkShift]
	if *c == old.spine[i>>chunkShift] {
		cp := **c
		*c = &cp
	}
	(*c)[i&chunkMask] = cr
}

// materializeTiming deep-copies the committed WCRT tables in resource
// order; every entry is freshly allocated. A pending entry (see
// committedRes) is emitted as it stands, with a nil Results slice —
// truthful, and visible to the parity oracle rather than papered over —
// but its window fills it before any report binding it is returned.
func (t *resTable) materializeTiming() []TimingResult {
	if t == nil || t.loaded == 0 {
		return nil
	}
	out := make([]TimingResult, 0, t.loaded)
	for i := 0; i < t.n; i++ {
		if cr := t.at(i); cr != nil {
			tr := cr.res
			tr.Resource = cr.job.resource
			out = append(out, cloneTimingResult(tr))
		}
	}
	return out
}

// materializeMonitors derives the committed monitor plan from the
// committed CPA jobs: budget specs from processor tasks, enforced rate
// specs from network messages, sorted canonically. The CPA task sets
// carry exactly the contract parameters the monitors need (see
// appendMonitorSpecs), so the plan is element-for-element what planMonitors
// derives from the committed implementation model. One fresh allocation;
// the caller owns the result.
func (t *resTable) materializeMonitors() []MonitorSpec {
	if t == nil || t.loaded == 0 {
		return nil
	}
	total := 0
	for i := 0; i < t.n; i++ {
		total += len(t.get(i).job.tasks)
	}
	out := make([]MonitorSpec, 0, total)
	for i := 0; i < t.n; i++ {
		out = appendMonitorSpecs(out, t.get(i).job)
	}
	sortMonitorSpecs(out)
	return out
}
