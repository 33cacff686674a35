package mcc

import (
	"context"
	"fmt"

	"repro/internal/mcc/pipeline"
	"repro/internal/model"
)

// This file implements the O(diff) proposal entry path: instead of
// cloning the deployed architecture per proposal (O(platform) copies in
// ProposeUpdate/ProposeRemoval/StreamScheduler) and re-deriving the diff
// by scanning every function (pipeline.ComputeDiff), a single-function
// change is applied to the deployed architecture in place, its diff is
// constructed directly from the change object plus the committed
// function index (pipeline.DiffFromChange), and a rejection reverts the
// one touched slot. Stream-window rollback replays the same undo records
// through the window journal, next to restoring the start snapshot.
//
// The clone-based path stays behind ProposeArchitecture and every
// cold/quarantined state: it is both the from-scratch fallback and the
// parity oracle the fast path is tested against.

// Change is one pending modification to the deployed functional
// architecture: either an update (add/replace a function) or a removal.
type Change struct {
	// Update, when non-nil, adds the function or replaces the deployed
	// version of the same name.
	Update *model.Function
	// Remove, when non-empty, removes the named function and its flows.
	Remove string
}

func (c Change) String() string {
	if c.Update != nil {
		return fmt.Sprintf("update %s", c.Update.Name)
	}
	return fmt.Sprintf("remove %s", c.Remove)
}

// applyChange returns a copy of fa with change c applied — the
// clone-based candidate of the cold path.
func applyChange(fa *model.FunctionalArchitecture, c Change) *model.FunctionalArchitecture {
	switch {
	case c.Update != nil:
		return fa.WithFunction(*c.Update)
	case c.Remove != "":
		return fa.WithoutFunction(c.Remove)
	}
	return fa
}

// candKind tags one in-place candidate mutation.
type candKind uint8

const (
	candNone    candKind = iota // no-op (e.g. removal of an unknown function)
	candReplace                 // updated an existing function in place
	candAppend                  // appended a new function
	candRemove                  // removed a function (order-preserving)
)

// candUndo records one proposal's in-place mutation of the deployed
// architecture so a rejection — or a stream-window rollback — can revert
// it exactly. Only the touched slot is saved: undo cost is O(1) for
// updates and O(n) only for the memmove of a removal, never a clone.
type candUndo struct {
	kind candKind
	idx  int            // slice index of the touched function
	old  model.Function // prior value (replace/remove)
	// oldFlows restores the flow slice of a removal that cut flows; the
	// filtered slice is freshly allocated, so the prior header is intact.
	oldFlows []model.Flow
	flowsCut bool
}

// fastPathReady reports whether single-change proposals may mutate the
// deployed architecture in place and derive their diff from the change
// object. It requires the snapshot's lookup state — quarantined or
// purged controllers fall back to the clone-based path, which depends
// only on the committed architecture.
func (m *MCC) fastPathReady() bool {
	return !m.quarantined && m.warm() && len(m.deployed.Functions) > 0
}

// fnIndexOf returns the position of the named function in the deployed
// architecture, or -1. The index map is built lazily over the deployed
// slice and kept exact by the in-place mutations below: appends extend
// it, removals and their reverts rewrite the positions their memmove
// shifted. Only the rare wholesale replacements of the slice — a
// clone-based commit, a window rollback, a cache purge — drop it, and
// the next lookup rebuilds.
func (m *MCC) fnIndexOf(name string) int {
	if m.fnIdx == nil {
		fns := m.deployed.Functions
		idx := make(map[string]int, len(fns))
		for i := range fns {
			idx[fns[i].Name] = i
		}
		m.fnIdx = idx
	}
	if i, ok := m.fnIdx[name]; ok {
		return i
	}
	return -1
}

// candFn resolves a function of the candidate architecture by name. On
// the fast path the candidate is the deployed slice mutated in place, so
// the committed index answers in O(1); clone-based candidates fall back
// to the linear scan (they already paid an O(n) clone, so the scan does
// not change their complexity class).
func (m *MCC) candFn(cand *model.FunctionalArchitecture, name string) *model.Function {
	if cand == m.deployed {
		if i := m.fnIndexOf(name); i >= 0 {
			return &cand.Functions[i]
		}
		return nil
	}
	return cand.FunctionByName(name)
}

// applyChangeFast mutates the deployed architecture in place to become
// the candidate of change c and returns the change-driven diff plus the
// undo record reverting the mutation. The committed function value comes
// from the snapshot's O(1) function map, the flow-touch test from its
// flow index — no architecture walk, no clone.
func (m *MCC) applyChangeFast(c Change) (pipeline.Diff, candUndo) {
	fa := m.deployed
	if c.Update != nil {
		name := c.Update.Name
		old := m.snap.fn(name)
		d := pipeline.DiffFromChange(name, c.Update, old, false)
		if old == nil {
			fa.Functions = append(fa.Functions, *c.Update)
			if m.fnIdx != nil {
				m.fnIdx[name] = len(fa.Functions) - 1
			}
			return d, candUndo{kind: candAppend, idx: len(fa.Functions) - 1}
		}
		idx := m.fnIndexOf(name)
		u := candUndo{kind: candReplace, idx: idx, old: fa.Functions[idx]}
		fa.Functions[idx] = *c.Update
		return d, u
	}
	name := c.Remove
	old := m.snap.fn(name)
	d := pipeline.DiffFromChange(name, nil, old, m.snap.flowTouch[name])
	if old == nil {
		return d, candUndo{kind: candNone}
	}
	idx := m.fnIndexOf(name)
	u := candUndo{kind: candRemove, idx: idx, old: fa.Functions[idx]}
	// Order-preserving delete, so validation's first-error selection (and
	// every other order-sensitive walk) matches the clone-based path. The
	// memmove shifts every later position down by one; the index follows
	// over the same span, allocation-free. Dropping it instead would make
	// the next lookup rebuild a platform-sized map — several times the
	// bytes of the rest of the proposal.
	copy(fa.Functions[idx:], fa.Functions[idx+1:])
	fa.Functions = fa.Functions[:len(fa.Functions)-1]
	if m.fnIdx != nil {
		delete(m.fnIdx, name)
		m.reindexFrom(idx)
	}
	if d.FlowsChanged {
		u.oldFlows, u.flowsCut = fa.Flows, true
		kept := make([]model.Flow, 0, len(fa.Flows))
		for _, fl := range fa.Flows {
			if fl.From != name && fl.To != name {
				kept = append(kept, fl)
			}
		}
		fa.Flows = kept
	}
	return d, u
}

// reindexFrom rewrites the index positions of every deployed function
// from position i on — the span an order-preserving insert or delete
// just shifted.
func (m *MCC) reindexFrom(i int) {
	fns := m.deployed.Functions
	for ; i < len(fns); i++ {
		m.fnIdx[fns[i].Name] = i
	}
}

// revertChange undoes one in-place candidate mutation, keeping the
// function index map in step: a reinsertion shifts the later positions
// back up, over the same span the removal shifted down.
func (m *MCC) revertChange(u candUndo) {
	fa := m.deployed
	switch u.kind {
	case candReplace:
		fa.Functions[u.idx] = u.old
	case candAppend:
		if m.fnIdx != nil {
			delete(m.fnIdx, fa.Functions[len(fa.Functions)-1].Name)
		}
		fa.Functions = fa.Functions[:len(fa.Functions)-1]
	case candRemove:
		fa.Functions = append(fa.Functions, model.Function{})
		copy(fa.Functions[u.idx+1:], fa.Functions[u.idx:])
		fa.Functions[u.idx] = u.old
		if u.flowsCut {
			fa.Flows = u.oldFlows
		}
		if m.fnIdx != nil {
			m.reindexFrom(u.idx)
		}
	}
}

// integrateChangeCtx decides one single-function change. With warm
// committed indexes the candidate is the deployed architecture mutated
// in place and the diff comes from the change object; a rejection
// reverts the mutation, an acceptance inside a stream window records the
// undo on the window journal so a rollback can revert it too. Cold
// controllers take the clone-based path unchanged.
func (m *MCC) integrateChangeCtx(gctx context.Context, c Change) *Report {
	if !m.fastPathReady() {
		return m.integrateDiff(gctx, applyChange(m.deployed, c), nil)
	}
	d, undo := m.applyChangeFast(c)
	rep := m.integrateDiff(gctx, m.deployed, &d)
	if rep.Accepted {
		// Record the undo only if the mutation hit the window-start
		// architecture object: a mid-window from-scratch commit swaps
		// m.deployed to a fresh object, and mutations on that object are
		// discarded wholesale when rollback restores the start pointer.
		if j := m.journal; j != nil && m.deployed == j.deployed {
			j.candUndos = append(j.candUndos, undo)
		}
	} else {
		m.revertChange(undo)
	}
	return rep
}
