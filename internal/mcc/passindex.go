package mcc

import "repro/internal/model"

// passIndex is the lookup index of one from-scratch pass: the candidate's
// functions by name, each function's replicas, and each processor's
// resident instances and tasks. The cold mapping derives it once from the
// candidate and its placement (newPassIndex), the cold synthesis adds the
// task lists, and the timing-job and commit stages read it instead of
// regrouping the flat lists. The attempt owns it (attempt.index), so it
// never outlives its pass.
//
// The independent checkers never read it: FromScratchTables, the full
// model validators, safety.Check, security.CheckDomains and the
// snapshot-parity test's reference rebuild keep their own derivations, so
// a bug here cannot decide both legs of a parity check the same way.
type passIndex struct {
	// fns maps each candidate function name to the candidate's function.
	fns map[string]*model.Function
	// insts lists each function's replicas, replica-ascending.
	insts map[string][]model.Instance
	// instsOn and tasksOn are indexed by platform processor position
	// (MCC.procIdx): the residents in Instance.Less order, and the
	// deadline-monotonic task list (nil until synthesis ran).
	instsOn [][]model.Instance
	tasksOn [][]model.Task
}

// newPassIndex derives the index of candidate fa placed as insts, which
// must be sorted by Instance.Less on processors of procIdx (a validated
// placement). Every list is a capacity-clipped window of insts or of one
// shared array, so the index costs a handful of allocations, and its
// lists may be committed as they are.
func newPassIndex(fa *model.FunctionalArchitecture, insts []model.Instance, procIdx map[string]int) passIndex {
	ix := passIndex{
		fns:     make(map[string]*model.Function, len(fa.Functions)),
		insts:   make(map[string][]model.Instance, len(fa.Functions)),
		instsOn: make([][]model.Instance, len(procIdx)),
	}
	for i := range fa.Functions {
		ix.fns[fa.Functions[i].Name] = &fa.Functions[i]
	}
	// A function's replicas are one run of the sorted list.
	for rest := insts; len(rest) > 0; {
		n := 1
		for n < len(rest) && rest[n].Function == rest[0].Function {
			n++
		}
		ix.insts[rest[0].Function] = rest[:n:n]
		rest = rest[n:]
	}
	// Residents: count per processor, carve one array, fill in list order.
	pos := make([]int32, len(insts))
	count := make([]int, len(procIdx))
	for k, in := range insts {
		pos[k] = int32(procIdx[in.Processor])
		count[pos[k]]++
	}
	all, off := make([]model.Instance, len(insts)), 0
	for i, c := range count {
		ix.instsOn[i] = all[off : off : off+c]
		off += c
	}
	for k, in := range insts {
		ix.instsOn[pos[k]] = append(ix.instsOn[pos[k]], in)
	}
	return ix
}
