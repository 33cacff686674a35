package pipeline

import (
	"slices"
	"sort"

	"repro/internal/model"
)

// Diff is the function-level difference between the deployed and the
// candidate functional architecture, computed once per integration attempt
// and shared by every incremental stage: validation re-checks only touched
// functions and their flow neighborhoods, mapping re-places only touched
// functions, synthesis rebuilds only the artifacts of affected processors
// and services.
type Diff struct {
	// Added, Removed, Changed list function names, each sorted. A function
	// counts as changed when any part of it (version, contract, services,
	// replicas) differs from the deployed one.
	Added   []string
	Removed []string
	Changed []string
	// FlowsChanged reports that the candidate's flow set differs from the
	// deployed one.
	FlowsChanged bool
	// full marks a from-scratch diff (nothing deployed yet, or the caller
	// opted out of incremental integration).
	full bool
}

// ComputeDiff diffs the candidate against the deployed architecture. A nil
// or empty deployed architecture yields a full diff. The MCC never calls
// it: a whole candidate decides on the from-scratch pass, and a single
// change takes DiffFromChange. It stays as DiffFromChange's test
// reference (TestDiffFromChangeEquivalence, FuzzDiffFromChange).
func ComputeDiff(deployed, cand *model.FunctionalArchitecture) Diff {
	var d Diff
	if deployed == nil || len(deployed.Functions) == 0 {
		d.full = true
	}
	var old map[string]*model.Function
	if deployed != nil {
		old = make(map[string]*model.Function, len(deployed.Functions))
		for i := range deployed.Functions {
			old[deployed.Functions[i].Name] = &deployed.Functions[i]
		}
	}
	seen := make(map[string]bool, len(cand.Functions))
	for i := range cand.Functions {
		f := &cand.Functions[i]
		seen[f.Name] = true
		prev, ok := old[f.Name]
		switch {
		case !ok:
			d.Added = append(d.Added, f.Name)
		case !prev.Equal(*f):
			d.Changed = append(d.Changed, f.Name)
		}
	}
	if deployed != nil {
		for i := range deployed.Functions {
			name := deployed.Functions[i].Name
			if !seen[name] {
				d.Removed = append(d.Removed, name)
			}
		}
	}
	sort.Strings(d.Added)
	sort.Strings(d.Removed)
	sort.Strings(d.Changed)
	d.FlowsChanged = flowsDiffer(deployed, cand)
	return d
}

// FullDiff returns a diff that forces every stage to run from scratch.
func FullDiff() Diff { return Diff{full: true} }

// DiffFromChange builds the diff a single-function change induces without
// scanning either architecture: the change object already names the exact
// delta, and the committed value of that one function comes from the
// caller's O(1) deployed-function index. upd is the new function (nil for
// a removal of name), old is the committed function of the same name (nil
// when not deployed), and oldFlowTouched reports whether any deployed
// flow references the name — the only way a single-function change can
// alter the flow set is a removal dropping the flows that touch it.
//
// The result is equivalent to ComputeDiff(deployed,
// applyChange(deployed, c)) — TestDiffFromChangeEquivalence and
// FuzzDiffFromChange hold the two to that, over generated fleets — but
// costs O(1) plus one Function.Equal instead of two architecture walks.
func DiffFromChange(name string, upd, old *model.Function, oldFlowTouched bool) Diff {
	var d Diff
	switch {
	case upd == nil && old == nil:
		// Removing an unknown function: the candidate equals the deployed
		// configuration (a valid architecture cannot have flows touching a
		// function that does not exist).
	case upd == nil:
		d.Removed = []string{name}
		// WithoutFunction drops every flow touching the name, so the flow
		// set changes exactly when such a flow exists.
		d.FlowsChanged = oldFlowTouched
	case old == nil:
		d.Added = []string{name}
	case !old.Equal(*upd):
		d.Changed = []string{name}
	}
	// An update never touches the flow slice (WithFunction copies it
	// verbatim), so FlowsChanged stays false on the update arms.
	return d
}

func flowsDiffer(deployed, cand *model.FunctionalArchitecture) bool {
	var oldFlows []model.Flow
	if deployed != nil {
		oldFlows = deployed.Flows
	}
	if len(oldFlows) != len(cand.Flows) {
		return true
	}
	// Common case first: the candidate aliases or copies the deployed flow
	// slice verbatim (single-function updates never reorder flows), so an
	// element-wise scan settles it without building the counting map.
	if len(oldFlows) == 0 || &oldFlows[0] == &cand.Flows[0] || slices.Equal(oldFlows, cand.Flows) {
		return false
	}
	// Flow is a comparable struct; multiset comparison via counting.
	counts := make(map[model.Flow]int, len(oldFlows))
	for _, fl := range oldFlows {
		counts[fl]++
	}
	for _, fl := range cand.Flows {
		counts[fl]--
		if counts[fl] < 0 {
			return true
		}
	}
	return false
}

// Full reports whether the diff covers the whole architecture (first
// deployment or forced from-scratch run).
func (d Diff) Full() bool { return d.full }

// Empty reports whether the candidate is function- and flow-identical to
// the deployed configuration.
func (d Diff) Empty() bool {
	return !d.full && d.TouchedCount() == 0 && !d.FlowsChanged
}

// Touched reports whether the named function was added, removed, or
// changed by this diff: a binary search of each sorted name list, so no
// diff carries a lookup table of its own.
func (d Diff) Touched(name string) bool {
	for _, names := range [3][]string{d.Added, d.Changed, d.Removed} {
		if _, ok := slices.BinarySearch(names, name); ok {
			return true
		}
	}
	return false
}

// TouchedCount returns the number of added+removed+changed functions.
func (d Diff) TouchedCount() int { return len(d.Added) + len(d.Changed) + len(d.Removed) }

// Neighborhood returns the touched functions plus every function connected
// to a touched one by a flow of the candidate architecture, as a membership
// set. This is the scope incremental validation re-checks: a change can
// only invalidate its own contract, its flow endpoints, and the service
// relationships it participates in (plus requirers of removed services,
// which the validation stage handles separately).
func (d Diff) Neighborhood(cand *model.FunctionalArchitecture) map[string]bool {
	out := make(map[string]bool, d.TouchedCount()*2)
	for _, names := range [3][]string{d.Added, d.Changed, d.Removed} {
		for _, name := range names {
			out[name] = true
		}
	}
	for _, fl := range cand.Flows {
		if d.Touched(fl.From) || d.Touched(fl.To) {
			out[fl.From] = true
			out[fl.To] = true
		}
	}
	return out
}
