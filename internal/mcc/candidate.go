package mcc

import (
	"context"
	"fmt"

	"repro/internal/model"
)

// This file implements the O(diff) proposal entry path, the only way into
// the warm pass. A single-function change is decided against the
// committed snapshot plus the change object: newPass reads the one
// function it touches, and whether it cuts flows, from the change and the
// snapshot's function map and flow index; every stage reads the change's
// own function for that name, and nothing is written before the commit
// stage. A rejection therefore leaves the controller untouched, and a
// stream-window rollback is one snapshot pointer restore. The few readers
// that need the whole candidate architecture (the scoped validation walk,
// the cold best-fit, a message rebuild's flow list, the cold retry and
// pinned re-decision, the commit of a flow-cutting removal) materialize
// the exact candidate, applyChange(Deployed(), c), through candidate.
//
// A whole candidate — ProposeArchitecture, ReintegrateWithObservations,
// and a change on a cold or quarantined controller — is decided by the
// from-scratch pass: the fallback of every warm pass and the parity
// oracle the warm pass is tested against.

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

// applyChange returns a copy of fa with change c applied: the whole
// candidate of change c.
func applyChange(fa *model.FunctionalArchitecture, c Change) *model.FunctionalArchitecture {
	switch {
	case c.Update != nil:
		return fa.WithFunction(*c.Update)
	case c.Remove != "":
		return fa.WithoutFunction(c.Remove)
	}
	return fa
}

// fastPathReady reports whether single-change proposals may be decided
// against the snapshot plus the change object. It requires the
// snapshot's lookup state — quarantined or purged controllers decide the
// change's whole candidate on the from-scratch pass, which depends only on
// the committed architecture.
func (m *MCC) fastPathReady() bool {
	return !m.quarantined && m.warm() && len(m.snap.fns) > 0
}

// name is the one function name c touches.
func (c Change) name() string {
	if c.Update != nil {
		return c.Update.Name
	}
	return c.Remove
}

// candidate returns the whole candidate architecture of the pass in
// progress: a from-scratch pass's own, or on the change-driven path the
// exact candidate applyChange(Deployed(), c), materialized on first use
// and memoized on the attempt. Only a pass that needs the whole
// architecture pays the O(n) copy.
func (m *MCC) candidate() *model.FunctionalArchitecture {
	if m.att.whole == nil {
		m.att.whole = applyChange(m.Deployed(), *m.att.change)
	}
	return m.att.whole
}

// integrateChangeCtx decides one single-function change. With a warm
// snapshot the change is decided against it directly (see the file
// comment); cold and quarantined controllers decide its whole candidate
// on the from-scratch pass.
func (m *MCC) integrateChangeCtx(gctx context.Context, c Change) *Report {
	if !m.fastPathReady() {
		return m.integrateDiff(gctx, applyChange(m.Deployed(), c), nil)
	}
	return m.integrateDiff(gctx, nil, &c)
}
