package mcc

import "repro/internal/mcc/pipeline"

// This file implements the chunked persistent committed-resource table:
// the controller's only committed timing state (each loaded resource's
// CPA job, task-set digest and WCRT table) and the storage behind the
// delta-report contract. A flat slice would make every accepted commit
// allocate and copy the whole platform (O(platform) memclr+copy per
// change). The table keeps the deterministic resource order (loaded
// processors sorted by name, then loaded networks in platform order) in
// a persistent chunked array (see chunks in snapshot.go): a commit that
// replaces k entries in place copies the spine and the ceil(k/chunk)
// affected chunks and shares every other chunk with the previous
// configuration — O(diff) per accepted change, with the old table (a
// window's start snapshot, or a bound report's view) fully intact.
//
// Reports bind a table pointer at commit time (Report.FullTiming /
// FullMonitors); materialization deep-copies on every call, so nothing a
// consumer obtains can alias chunk contents.

// resTable is the committed timing state in deterministic resource
// order. procs is the length of the processor prefix (entries [0,procs)
// are processors sorted by name, [procs,n) networks in platform order).
// The zero/nil table is valid and empty.
type resTable struct {
	chunks[committedRes]
	procs int
}

// resUpdate is one patch instruction: replace entry idx with cr.
type resUpdate struct {
	idx int
	cr  committedRes
}

// resDigestKey identifies one deferred analysis for the window heal map:
// two proposals of a window may defer the same resource with different
// task-set digests (disjoint function footprints sharing a processor),
// and each bound report snapshot must only be healed by its own digest's
// verdict.
type resDigestKey struct {
	res string
	dig uint64
}

// resTableFrom builds a table from a flat list. The list entries are
// copied into fresh chunks; the caller keeps ownership of list.
func resTableFrom(list []committedRes, procs int) *resTable {
	return &resTable{chunks: chunksFrom(0, list), procs: procs}
}

// patch returns a table with the given entries replaced. Each patch
// writes under a fresh epoch e, so the spine and each affected chunk are
// copied and every untouched chunk is shared with the receiver, which is
// unchanged (it may be a window's start snapshot or a bound report's
// view).
func (t *resTable) patch(e uint64, updates []resUpdate) *resTable {
	if len(updates) == 0 {
		return t
	}
	nt := *t
	for _, u := range updates {
		nt.set(e, u.idx, u.cr)
	}
	return &nt
}

// find returns the index of the named processor (spnp=false) or network
// (spnp=true), or -1. The processor prefix is sorted by name (binary
// search); the network suffix is short (platform networks, typically a
// handful) and scanned linearly.
func (t *resTable) find(resource string, spnp bool) int {
	if t == nil {
		return -1
	}
	if spnp {
		for i := t.procs; i < t.n; i++ {
			if t.at(i).job.resource == resource {
				return i
			}
		}
		return -1
	}
	lo, hi := 0, t.procs
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.at(mid).job.resource < resource {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < t.procs && t.at(lo).job.resource == resource {
		return lo
	}
	return -1
}

// align appends to pos, for each job of a from-scratch job list, the
// table index of the same resource, or -1. Both are in resource order, so
// one forward merge suffices: the processor prefixes by name, the network
// suffixes by a cursor that only moves forward (both follow platform
// order).
func (t *resTable) align(jobs []timingJob, pos []int) []int {
	if t == nil {
		t = &resTable{}
	}
	c := 0
	for _, j := range jobs {
		k := -1
		if !j.spnp {
			for c < t.procs && t.at(c).job.resource < j.resource {
				c++
			}
			if c < t.procs && t.at(c).job.resource == j.resource {
				k, c = c, c+1
			}
		} else {
			c = max(c, t.procs)
			for i := c; i < t.n; i++ {
				if t.at(i).job.resource == j.resource {
					k, c = i, i+1
					break
				}
			}
		}
		pos = append(pos, k)
	}
	return pos
}

// materializeTiming deep-copies the committed WCRT tables in resource
// order. An entry whose table is not yet known (an optimistically
// committed resource whose deferred analysis is still pending, or whose
// verdict lives only in the window heal map) is patched from heals by
// {resource, digest}; with no heal it is emitted with a nil Results
// slice — truthful, and visible to the parity oracle rather than papered
// over. Every entry, including healed ones, is freshly allocated.
func (t *resTable) materializeTiming(heals map[resDigestKey]TimingResult) []TimingResult {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]TimingResult, 0, t.n)
	for i := 0; i < t.n; i++ {
		cr := t.at(i)
		tr := cr.res
		if tr.Results == nil && heals != nil {
			if h, ok := heals[resDigestKey{cr.job.resource, cr.job.digest}]; ok {
				tr = h
			}
		}
		if tr.Resource == "" {
			tr.Resource = cr.job.resource
		}
		out = append(out, pipeline.CloneTimingResult(tr))
	}
	return out
}

// materializeMonitors derives the committed monitor plan from the
// committed CPA jobs: budget specs from processor tasks, enforced rate
// specs from network messages, sorted canonically. The CPA task sets
// carry exactly the contract parameters the monitors need (see
// jobMonitorSpecs), so the plan is element-for-element what planMonitors
// derives from the committed implementation model. One fresh allocation;
// the caller owns the result.
func (t *resTable) materializeMonitors() []MonitorSpec {
	if t == nil || t.n == 0 {
		return nil
	}
	total := 0
	for i := 0; i < t.n; i++ {
		total += len(t.at(i).job.tasks)
	}
	if total == 0 {
		return nil
	}
	out := make([]MonitorSpec, 0, total)
	for i := 0; i < t.n; i++ {
		j := t.at(i).job
		for _, ct := range j.tasks {
			if j.spnp {
				out = append(out, MonitorSpec{
					Kind: MonitorRate, Target: ct.Name,
					PeriodUS: ct.Event.PeriodUS, Enforce: true,
				})
			} else {
				out = append(out, MonitorSpec{
					Kind: MonitorBudget, Target: ct.Name,
					PeriodUS: ct.Event.PeriodUS, JitterUS: ct.Event.JitterUS, WCETUS: ct.WCETUS,
				})
			}
		}
	}
	sortMonitorSpecs(out)
	return out
}
