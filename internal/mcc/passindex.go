package mcc

import (
	"strconv"
	"strings"

	"repro/internal/model"
)

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
	// ids holds the instance IDs of the placement, in its order, and
	// idsOn each processor's residents' IDs, parallel to instsOn: the
	// pass's task names and session rows share one ID per instance.
	ids   []string
	idsOn [][]string
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
		ids:     make([]string, len(insts)),
		idsOn:   make([][]string, len(procIdx)),
		instsOn: make([][]model.Instance, len(procIdx)),
	}
	for i := range fa.Functions {
		ix.fns[fa.Functions[i].Name] = &fa.Functions[i]
	}
	instanceIDs(ix.ids, insts)
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
	all, ids, off := make([]model.Instance, len(insts)), make([]string, len(insts)), 0
	for i, c := range count {
		ix.instsOn[i], ix.idsOn[i] = all[off:off:off+c], ids[off:off:off+c]
		off += c
	}
	for k, in := range insts {
		ix.instsOn[pos[k]] = append(ix.instsOn[pos[k]], in)
		ix.idsOn[pos[k]] = append(ix.idsOn[pos[k]], ix.ids[k])
	}
	return ix
}

// instanceIDs sets ids[k] to insts[k].ID(), cutting every ID from one
// string instead of allocating each.
func instanceIDs(ids []string, insts []model.Instance) {
	var b strings.Builder
	var num [20]byte
	size := 0
	for _, in := range insts {
		size += len(in.Function) + 4
	}
	b.Grow(size)
	for _, in := range insts {
		b.WriteString(in.Function)
		b.WriteByte('#')
		b.Write(strconv.AppendInt(num[:0], int64(in.Replica), 10))
	}
	all := b.String()
	for k, in := range insts {
		n := len(in.Function) + 1 + len(strconv.AppendInt(num[:0], int64(in.Replica), 10))
		ids[k], all = all[:n], all[n:]
	}
}
