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
// one persistent node array (snapshot.capacity), written through the
// epoch-owned chunks.set like the rest of the snapshot.

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
	// nodes is the length of the node array.
	nodes int
	// zero is the index at zero load, owned by epoch 0, which newEpoch
	// never hands out: every write copies, so it is never changed. The
	// cold mapping starts from it.
	zero chunks[capNode]
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
	for ci := range l.classes {
		c := &l.classes[ci]
		c.size = 1
		for c.size < int(members[ci]) {
			c.size <<= 1
		}
		c.base = l.nodes
		l.nodes += 2*c.size - 1
	}
	for i := range l.leaf {
		l.leaf[i].k += int32(l.classes[l.leaf[i].class].size)
	}
	l.zero = l.tree(0, l.leaves(p))
	return l
}

// pos is the node-array position of processor i's leaf.
func (l *capLayout) pos(i int) int {
	lf := l.leaf[i]
	return l.classes[lf.class].base + int(lf.k) - 1
}

// leaves returns a node array with every processor's leaf at zero load and
// every padding leaf empty; tree fills in the inner nodes.
func (l *capLayout) leaves(p *model.Platform) []capNode {
	nodes := make([]capNode, l.nodes)
	for i := range nodes {
		nodes[i] = capNode{free: math.MinInt64, proc: -1}
	}
	for i := range p.Processors {
		nodes[l.pos(i)] = capNode{free: p.Processors[i].RAMKiB, proc: int32(i)}
	}
	return nodes
}

// tree computes the inner nodes over the leaves of nodes and returns the
// array as an index owned by epoch e.
func (l *capLayout) tree(e uint64, nodes []capNode) chunks[capNode] {
	for _, c := range l.classes {
		for k := c.size - 1; k >= 1; k-- {
			nodes[c.base+k-1] = join(nodes[c.base+2*k-1], nodes[c.base+2*k])
		}
	}
	return chunksFrom(e, nodes)
}

// set writes leaf n into index t under epoch e and recomputes its root
// path, stopping at the first inner node that comes out unchanged.
func (l *capLayout) set(t *chunks[capNode], e uint64, n capNode) {
	lf := l.leaf[n.proc]
	c := &l.classes[lf.class]
	k := int(lf.k)
	t.set(e, c.base+k-1, n)
	for k >>= 1; k >= 1; k >>= 1 {
		j := join(*t.at(c.base + 2*k - 1), *t.at(c.base + 2*k))
		if *t.at(c.base + k - 1) == j {
			return
		}
		t.set(e, c.base+k-1, j)
	}
}

// placer is best-fit mapping over a capacity index. Every pass places
// through it (bestFit), so the placement constraints (safety
// certification, utilization cap, RAM budget, replica separation) live in
// exactly one place. Loads it changes go to the overlay, which the warm
// start hands to the commit; a from-scratch mapping flushes it into its
// own copy of the zero index.
type placer struct {
	m    *MCC
	tree chunks[capNode]
	// e owns tree when the placer has an index of its own (flush writes
	// it); 0 for the committed index, which it never writes.
	e uint64
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
		p.over = append(p.over, *p.tree.at(p.m.layout.pos(i)))
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
		p.m.layout.set(&p.tree, p.e, n)
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
	n := *p.tree.at(c.base + k - 1)
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
	if p.tree.at(c.base+first).proc == n.proc {
		first++
	}
	p.descend(c, first, s, ram)
	p.descend(c, first^1, s, ram)
}
