package mcc

import (
	"math"
	"slices"

	"repro/internal/model"
)

// This file implements best-fit placement over the capacity index.
//
// Best fit puts a replica on the feasible processor with the lowest
// resulting utilization, the lowest platform index on ties. A placement
// class groups the processors that share a speed factor and a safety
// ceiling: a function may run on all of them or on none, and its
// utilization scales to the same charge on each, so within a class the
// rule is "lowest (load, index)". A min segment tree per class answers
// that in O(log P) while capacity is not tight. Every class tree lives in
// one node array (snapshot.capacity), which a warm commit writes in place
// leaf by leaf (capLayout.set) and a from-scratch commit or a window
// rollback derives whole (MCC.capacityIndex).

// capNode is one node of a class tree. A leaf is one processor: its load
// in ppm of its own capacity, its free RAM and its platform index. An
// inner node holds the lowest (util, proc) pair below it and the most free
// RAM below it. Padding leaves, and inner nodes over padding alone, have
// proc -1.
type capNode struct {
	util, free int64
	proc       int32
}

// less orders nodes by (util, proc), padding last.
func (a capNode) less(b capNode) bool {
	if a.proc < 0 || b.proc < 0 {
		return b.proc < 0 && a.proc >= 0
	}
	return a.util < b.util || a.util == b.util && a.proc < b.proc
}

// join is the inner node over children a and b.
func join(a, b capNode) capNode {
	n := a
	if b.less(a) {
		n = b
	}
	n.free = max(a.free, b.free)
	return n
}

// capClass is one placement class. Its tree has size leaves, a power of
// two; the first of them are the class's processors in platform order.
// Heap node k (1 ≤ k < 2·size, children 2k and 2k+1) sits at position
// base+k-1 of the node array.
type capClass struct {
	speed      float64
	safety     model.SafetyLevel
	base, size int
}

// capLayout is the platform's placement classes, fixed at New.
type capLayout struct {
	classes []capClass
	// leaf maps each platform processor to its class and heap node.
	leaf []struct{ class, k int32 }
	// zero is the node array at zero load, never written: the cold
	// mapping places on a clone of it, and a derivation starts from it.
	zero []capNode
}

// newCapLayout groups p's processors into placement classes, in order of
// first appearance, and sizes each class tree.
func newCapLayout(p *model.Platform) *capLayout {
	type key struct {
		speed  float64
		safety model.SafetyLevel
	}
	l := &capLayout{leaf: make([]struct{ class, k int32 }, len(p.Processors))}
	byKey := make(map[key]int32)
	var members []int32
	for i := range p.Processors {
		pr := &p.Processors[i]
		c, ok := byKey[key{pr.SpeedFactor, pr.MaxSafety}]
		if !ok {
			c = int32(len(l.classes))
			byKey[key{pr.SpeedFactor, pr.MaxSafety}] = c
			l.classes = append(l.classes, capClass{speed: pr.SpeedFactor, safety: pr.MaxSafety})
			members = append(members, 0)
		}
		l.leaf[i].class, l.leaf[i].k = c, members[c]
		members[c]++
	}
	nodes := 0
	for ci := range l.classes {
		c := &l.classes[ci]
		c.size = 1
		for c.size < int(members[ci]) {
			c.size <<= 1
		}
		c.base = nodes
		nodes += 2*c.size - 1
	}
	for i := range l.leaf {
		l.leaf[i].k += int32(l.classes[l.leaf[i].class].size)
	}
	l.zero = make([]capNode, nodes)
	for i := range l.zero {
		l.zero[i] = capNode{free: math.MinInt64, proc: -1}
	}
	for i := range p.Processors {
		l.zero[l.pos(i)] = capNode{free: p.Processors[i].RAMKiB, proc: int32(i)}
	}
	l.tree(l.zero)
	return l
}

// pos is the node-array position of processor i's leaf.
func (l *capLayout) pos(i int) int {
	lf := l.leaf[i]
	return l.classes[lf.class].base + int(lf.k) - 1
}

// tree computes the inner nodes over the leaves of nodes, in place, and
// returns nodes.
func (l *capLayout) tree(nodes []capNode) []capNode {
	for _, c := range l.classes {
		for k := c.size - 1; k >= 1; k-- {
			nodes[c.base+k-1] = join(nodes[c.base+2*k-1], nodes[c.base+2*k])
		}
	}
	return nodes
}

// set writes leaf n into index t and recomputes its root path, stopping
// at the first inner node that comes out unchanged.
func (l *capLayout) set(t []capNode, n capNode) {
	lf := l.leaf[n.proc]
	c := &l.classes[lf.class]
	k := int(lf.k)
	t[c.base+k-1] = n
	for k >>= 1; k >= 1; k >>= 1 {
		j := join(t[c.base+2*k-1], t[c.base+2*k])
		if t[c.base+k-1] == j {
			return
		}
		t[c.base+k-1] = j
	}
}

// capacityIndex writes into nodes the capacity index over the loads of
// the residents in procs, each charged by its function's entry in fns,
// and returns it: the derivation of a from-scratch commit and of a window
// rollback.
func (m *MCC) capacityIndex(nodes []capNode, procs []procState, fns map[string]fnEntry) []capNode {
	copy(nodes, m.layout.zero)
	for i := range procs {
		leaf := &nodes[m.layout.pos(i)]
		for _, in := range procs[i].insts {
			if f := fns[in.Function].fn; f != nil {
				leaf.util += scaleUtilPPM(utilPPM(f), m.platform.Processors[i].SpeedFactor)
				leaf.free -= f.Contract.Resources.RAMKiB
			}
		}
	}
	return m.layout.tree(nodes)
}

// ProcessorLoad is one processor's committed load as the capacity index
// holds it: utilization in ppm of the processor's own capacity, and free
// RAM in KiB.
type ProcessorLoad struct{ UtilPPM, FreeRAMKiB int64 }

// CommittedLoads returns every processor's load from the committed
// capacity index, the one a warm placement reads, in platform order; nil
// while the snapshot carries no incremental state. It lets the index be
// held to the deployment it accounts: a change and its inverse must
// restore it.
func (m *MCC) CommittedLoads() []ProcessorLoad {
	if !m.warm() {
		return nil
	}
	out := make([]ProcessorLoad, len(m.platform.Processors))
	for i := range out {
		n := m.snap.capacity[m.layout.pos(i)]
		out[i] = ProcessorLoad{n.util, n.free}
	}
	return out
}

// placer is best-fit mapping over a capacity index. Every pass places
// through it (bestFit), so the placement constraints (safety
// certification, utilization cap, RAM budget, replica separation) live in
// exactly one place. Loads it changes go to the overlay, which the warm
// start hands to the commit; a from-scratch mapping flushes it into its
// own clone of the zero index.
type placer struct {
	m *MCC
	// tree is the index placed on: the committed one, never written, or
	// the cold mapping's own, which flush writes.
	tree []capNode
	// over holds the current leaf of every processor this mapping charged
	// or discounted; the index still holds their earlier loads.
	over []capNode
	// sep holds the processors of the current function's earlier replicas.
	sep []int32
	// best and bestUtil are the best fit found so far for one replica
	// (best -1: none) and its resulting utilization.
	best     int32
	bestUtil int64
	// visits counts the index nodes the descents examined.
	visits int
}

// charge adds one replica of f to processor i (sign 1) or removes it
// (sign -1) in the overlay. Integer-exact, so a removal restores the
// load a re-accounting without the replica would produce.
func (p *placer) charge(f *model.Function, i int, sign int64) {
	k := slices.IndexFunc(p.over, func(n capNode) bool { return n.proc == int32(i) })
	if k < 0 {
		k = len(p.over)
		p.over = append(p.over, p.tree[p.m.layout.pos(i)])
	}
	p.over[k].util += sign * scaleUtilPPM(utilPPM(f), p.m.platform.Processors[i].SpeedFactor)
	p.over[k].free -= sign * f.Contract.Resources.RAMKiB
}

// discount removes one replica of f from the named processor.
func (p *placer) discount(f *model.Function, proc string) bool {
	i, ok := p.m.procIdx[proc]
	if ok {
		p.charge(f, i, -1)
	}
	return ok
}

// flush writes the overlay into the placer's own index and empties it.
func (p *placer) flush() {
	for _, n := range p.over {
		p.m.layout.set(p.tree, n)
	}
	p.over = p.over[:0]
}

// place assigns every replica of f best-fit (lowest resulting utilization,
// lowest processor index on ties) over the remaining capacity, honouring
// safety certification, the 100% utilization cap, RAM budgets, and
// replica separation. Each replica descends every eligible class tree,
// skipping separated and overlay leaves, then checks the overlay
// directly. The instances are appended to out. It reports ok=false when
// a replica has no feasible processor, having appended the replicas placed
// so far (their count names the failing one).
func (p *placer) place(f *model.Function, out []model.Instance) ([]model.Instance, bool) {
	replicas := f.EffectiveReplicas()
	util := utilPPM(f)
	ram := f.Contract.Resources.RAMKiB
	level := f.Contract.Safety
	p.sep = p.sep[:0]
	for r := 0; r < replicas; r++ {
		p.best = -1
		for ci := range p.m.layout.classes {
			if c := &p.m.layout.classes[ci]; c.safety >= level {
				p.descend(c, 1, scaleUtilPPM(util, c.speed), ram)
			}
		}
		for _, n := range p.over {
			if pr := &p.m.platform.Processors[n.proc]; pr.MaxSafety >= level && !slices.Contains(p.sep, n.proc) {
				p.consider(n, scaleUtilPPM(util, pr.SpeedFactor), ram)
			}
		}
		if p.best < 0 {
			return out, false
		}
		p.charge(f, int(p.best), 1)
		p.sep = append(p.sep, p.best)
		out = append(out, model.Instance{Function: f.Name, Replica: r, Processor: p.m.platform.Processors[p.best].Name})
	}
	return out, true
}

// consider takes leaf n, charged s more utilization and ram more RAM, as
// the best fit if it fits and beats the best so far.
func (p *placer) consider(n capNode, s, ram int64) {
	if n.util+s > 1_000_000 || n.free < ram || !p.beats(n.util+s, n.proc) {
		return
	}
	p.best, p.bestUtil = n.proc, n.util+s
}

func (p *placer) beats(util int64, proc int32) bool {
	return p.best < 0 || util < p.bestUtil || util == p.bestUtil && proc < p.best
}

// descend searches the subtree of class c at heap node k, where a replica
// costs s utilization and ram RAM, by branch and bound: a subtree is cut
// when its lowest load cannot take the replica, its most free RAM cannot
// hold it, or its lowest (util, proc) pair cannot beat the best so far.
// The child holding the subtree's lowest pair goes first, so without
// exclusions and tight capacity the descent walks one root path.
func (p *placer) descend(c *capClass, k int, s, ram int64) {
	p.visits++
	n := p.tree[c.base+k-1]
	if n.proc < 0 || n.util+s > 1_000_000 || n.free < ram || !p.beats(n.util+s, n.proc) {
		return
	}
	if k >= c.size {
		if !slices.Contains(p.sep, n.proc) && !slices.ContainsFunc(p.over, func(o capNode) bool { return o.proc == n.proc }) {
			p.best, p.bestUtil = n.proc, n.util+s
		}
		return
	}
	first := 2 * k
	if p.tree[c.base+first].proc == n.proc {
		first++
	}
	p.descend(c, first, s, ram)
	p.descend(c, first^1, s, ram)
}
