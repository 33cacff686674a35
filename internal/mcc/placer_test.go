package mcc

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
)

// refLoad is one processor's load in the reference scan's accounting.
type refLoad struct{ util, ram int64 }

// scanPlace is the reference best fit the capacity index must reproduce:
// a linear scan over every processor per replica, taking the lowest
// resulting utilization and the first processor on ties, honouring safety
// certification, the utilization cap, RAM budgets and replica separation.
// It charges loads as it places.
func scanPlace(pl *model.Platform, loads []refLoad, f *model.Function) ([]model.Instance, bool) {
	util, ram := utilPPM(f), f.Contract.Resources.RAMKiB
	used := make(map[string]bool)
	var out []model.Instance
	for r := 0; r < f.EffectiveReplicas(); r++ {
		best := -1
		var bestUtil int64 = -1
		for i := range pl.Processors {
			proc := &pl.Processors[i]
			if proc.MaxSafety < f.Contract.Safety || used[proc.Name] {
				continue
			}
			l := &loads[i]
			scaled := scaleUtilPPM(util, proc.SpeedFactor)
			if l.util+scaled > 1_000_000 || l.ram+ram > proc.RAMKiB {
				continue
			}
			if bestUtil < 0 || l.util+scaled < bestUtil {
				best, bestUtil = i, l.util+scaled
			}
		}
		if best < 0 {
			return out, false
		}
		pr := &pl.Processors[best]
		loads[best].util += scaleUtilPPM(util, pr.SpeedFactor)
		loads[best].ram += ram
		used[pr.Name] = true
		out = append(out, model.Instance{Function: f.Name, Replica: r, Processor: pr.Name})
	}
	return out, true
}

// effectiveLoads reads the per-processor loads a placer sees: its index's
// leaves, overridden by its overlay.
func effectiveLoads(p *placer) []refLoad {
	pl := p.m.platform
	loads := make([]refLoad, len(pl.Processors))
	for i := range loads {
		n := *p.tree.at(p.m.layout.pos(i))
		loads[i] = refLoad{n.util, pl.Processors[i].RAMKiB - n.free}
	}
	for _, n := range p.over {
		loads[n.proc] = refLoad{n.util, pl.Processors[n.proc].RAMKiB - n.free}
	}
	return loads
}

// indexOf builds a fresh capacity index over the given loads.
func indexOf(m *MCC, e uint64, loads []refLoad) chunks[capNode] {
	nodes := m.layout.leaves(m.platform)
	for i, l := range loads {
		leaf := &nodes[m.layout.pos(i)]
		leaf.util += l.util
		leaf.free -= l.ram
	}
	return m.layout.tree(e, nodes)
}

// nodesOf flattens an index.
func nodesOf(t *chunks[capNode]) []capNode {
	out := make([]capNode, t.n)
	for i := range out {
		out[i] = *t.at(i)
	}
	return out
}

// capCase is one random placement problem: a multi-class platform with
// committed loads, an overlay of changed loads, and the functions to place
// in order. Loads and charges come from small sets, so equal loads (ties),
// RAM-bound processors and utilization landing exactly on 1,000,000 ppm
// are common; the class palette holds two classes of equal speed and
// different safety ceilings.
func capCase(rng *rand.Rand) (pl *model.Platform, loads []refLoad, over map[int]refLoad, fns []*model.Function) {
	palette := []model.Processor{
		{SpeedFactor: 1, MaxSafety: model.ASILD},
		{SpeedFactor: 1, MaxSafety: model.ASILB},
		{SpeedFactor: 2.5, MaxSafety: model.ASILB},
		{SpeedFactor: 0.5, MaxSafety: model.QM},
	}
	classes := palette[:1+rng.Intn(len(palette))]
	rams := []int64{0, 256, 1024, 4096}
	utils := []int64{0, 250_000, 500_000, 750_000, 1_000_000}
	pl = &model.Platform{}
	nproc := 1 + rng.Intn(40)
	for i := 0; i < nproc; i++ {
		pr := classes[rng.Intn(len(classes))]
		pr.Name, pr.Policy, pr.RAMKiB = fmt.Sprintf("p%02d", i), model.SPP, rams[rng.Intn(len(rams))]
		pl.Processors = append(pl.Processors, pr)
	}
	randLoad := func(i int) refLoad {
		return refLoad{utils[rng.Intn(len(utils))], pl.Processors[i].RAMKiB * int64(rng.Intn(3)) / 2}
	}
	loads = make([]refLoad, nproc)
	over = make(map[int]refLoad)
	for i := range loads {
		loads[i] = randLoad(i)
		if rng.Intn(6) == 0 {
			over[i] = randLoad(i)
		}
	}
	levels := []model.SafetyLevel{model.QM, model.ASILB, model.ASILD}
	for k := 1 + rng.Intn(6); k > 0; k-- {
		f := &model.Function{
			Name:     fmt.Sprintf("f%d", k),
			Replicas: rng.Intn(4),
			Contract: model.Contract{
				Safety:    levels[rng.Intn(len(levels))],
				Resources: model.ResourceContract{RAMKiB: []int64{0, 128, 512, 2048}[rng.Intn(4)]},
			},
		}
		if wcet := []int64{0, 125, 250, 500, 1000}[rng.Intn(5)]; wcet > 0 {
			f.Contract.RealTime = model.RealTimeContract{PeriodUS: 1000, WCETUS: wcet}
		}
		fns = append(fns, f)
	}
	return pl, loads, over, fns
}

// checkCapCase places a capCase's functions through the index and through
// the reference scan and requires the same placements, the same verdicts
// and the same loads after every function. Between functions it sometimes
// flushes the overlay, as the cold mapping does, and then requires the
// index to equal a fresh build over the same loads.
func checkCapCase(t *testing.T, rng *rand.Rand) {
	t.Helper()
	pl, loads, over, fns := capCase(rng)
	m, err := New(pl)
	if err != nil {
		t.Fatal(err)
	}
	p := &placer{m: m, tree: indexOf(m, m.newEpoch(), loads)}
	for i := range pl.Processors {
		if l, ok := over[i]; ok {
			p.over = append(p.over, capNode{util: l.util, free: pl.Processors[i].RAMKiB - l.ram, proc: int32(i)})
		}
	}
	for _, f := range fns {
		ref := effectiveLoads(p)
		want, wantOK := scanPlace(pl, ref, f)
		got, gotOK := p.place(f, nil)
		if gotOK != wantOK || !sameList(got, want) {
			t.Fatalf("%+v on %+v: index placed %v (ok %v), scan %v (ok %v)", *f, pl.Processors, got, gotOK, want, wantOK)
		}
		if eff := effectiveLoads(p); !reflect.DeepEqual(eff, ref) {
			t.Fatalf("loads after placing %s: index %v, scan %v", f.Name, eff, ref)
		}
		if rng.Intn(2) == 0 {
			p.e = m.newEpoch()
			p.flush()
			fresh := indexOf(m, m.newEpoch(), ref)
			if got, want := nodesOf(&p.tree), nodesOf(&fresh); !reflect.DeepEqual(got, want) {
				t.Fatalf("index after flush diverges from a rebuild:\nflushed %v\nrebuilt %v", got, want)
			}
		}
	}
}

// The capacity index places exactly where the reference scan does, on
// random multi-class platforms with an overlay and replica separation.
func TestCapacityIndexMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		checkCapCase(t, rand.New(rand.NewSource(seed)))
	}
}

func FuzzCapacityIndexMatchesScan(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1 << 20, -3, 20261017} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCapCase(t, rand.New(rand.NewSource(seed)))
	})
}

// e13Platform is the two-class shape of the scale tier's generated fleets:
// half lockstep ASIL-D cores at reference speed, half fast ASIL-B cores.
func e13Platform(procs int) *model.Platform {
	p := &model.Platform{}
	for i := 0; i < procs; i++ {
		pr := model.Processor{Name: fmt.Sprintf("lock-%04d", i), Policy: model.SPP, SpeedFactor: 1, RAMKiB: 4096, MaxSafety: model.ASILD}
		if i >= procs/2 {
			pr = model.Processor{Name: fmt.Sprintf("perf-%04d", i), Policy: model.SPP, SpeedFactor: 2.5, RAMKiB: 16384, MaxSafety: model.ASILB}
		}
		p.Processors = append(p.Processors, pr)
	}
	return p
}

// A single-function warm placement on a best-fit deployed platform visits
// O(log P) index nodes, not every processor: the update discounts the
// function's committed replica and re-places it, as mapWarmStart does.
func TestWarmPlacementVisitsLogP(t *testing.T) {
	const c = 6
	for _, procs := range []int{32, 128, 512, 2048} {
		pl := e13Platform(procs)
		m, err := New(pl)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(procs)))
		fa := &model.FunctionalArchitecture{}
		for i := 0; i < 2*procs; i++ {
			f := model.Function{Name: fmt.Sprintf("fn-%05d", i), Contract: model.Contract{
				Safety:    []model.SafetyLevel{model.ASILD, model.ASILB, model.QM, model.QM}[i%4],
				RealTime:  model.RealTimeContract{PeriodUS: 50_000, WCETUS: 2_000 + rng.Int63n(12_000)},
				Resources: model.ResourceContract{RAMKiB: 128 + rng.Int63n(896)},
			}}
			if i%16 == 5 {
				f.Replicas = 2
			}
			fa.Functions = append(fa.Functions, f)
		}
		tech, err := m.mapToPlatform(fa, false)
		if err != nil {
			t.Fatal(err)
		}
		s := m.buildSnapshot(fa, &model.ImplementationModel{Tech: tech}, nil, &m.att.index)
		worst := 0
		for i := 0; i < len(fa.Functions); i += 7 {
			f := &fa.Functions[i]
			if f.Replicas > 1 {
				continue
			}
			p := &placer{m: m, tree: s.capacity}
			for _, in := range s.fns.get(f.Name).insts {
				p.discount(f, in.Processor)
			}
			upd := *f
			upd.Contract.RealTime.WCETUS += 100
			if _, ok := p.place(&upd, nil); !ok {
				t.Fatalf("%dp: update of %s found no processor", procs, f.Name)
			}
			worst = max(worst, p.visits)
		}
		if limit := c * (bits.Len(uint(procs)) - 1); worst > limit {
			t.Errorf("%dp: a warm placement visited %d index nodes, want at most %d (%d·log2 P)", procs, worst, limit, c)
		}
		t.Logf("%dp: at most %d index nodes visited per warm placement", procs, worst)
	}
}

// At the speed floor the scaled charge of any function whose utilization
// is representable converts without overflow, so the slowest processor
// never looks like the emptiest one, on the cold or the warm path.
func TestSpeedFloorProcessorNeverLooksEmptiest(t *testing.T) {
	if s := scaleUtilPPM(math.MaxInt64/1_000_000, model.MinSpeedFactor); s <= 0 {
		t.Fatalf("largest utilization scaled at the floor overflowed to %d", s)
	}
	m, err := New(&model.Platform{Processors: []model.Processor{
		{Name: "crawl", Policy: model.SPP, SpeedFactor: model.MinSpeedFactor, RAMKiB: 1024, MaxSafety: model.ASILD},
		{Name: "fast", Policy: model.SPP, SpeedFactor: 1, RAMKiB: 1024, MaxSafety: model.ASILD},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []model.Function{fn("cold", model.QM, 10000, 1000, 64), fn("warm", model.QM, 10000, 1000, 64)} {
		if rep := m.ProposeUpdate(f); !rep.Accepted {
			t.Fatalf("%s rejected at %s: %v", f.Name, rep.RejectedAt, rep.Findings)
		}
	}
	for _, in := range m.DeployedImpl().Tech.Instances {
		if in.Processor != "fast" {
			t.Errorf("%s placed on %s, want fast", in.ID(), in.Processor)
		}
	}
}

// A contract whose utilization charge would wrap int64 never reaches
// placement: validation rejects time fields above model.MaxTimeUS, and
// at the bound the largest charge, scaled at the slowest speed, fits.
func TestHugeWCETRejectedAtValidate(t *testing.T) {
	worst := fn("worst", model.QM, 1, model.MaxTimeUS, 64)
	worst.Contract.RealTime.DeadlineUS = model.MaxTimeUS
	if err := worst.Contract.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := scaleUtilPPM(utilPPM(&worst), model.MinSpeedFactor); s <= 0 {
		t.Fatalf("largest valid charge scaled at the floor overflowed to %d", s)
	}
	m, err := New(&model.Platform{Processors: []model.Processor{
		{Name: "p0", Policy: model.SPP, SpeedFactor: 1, RAMKiB: 1024, MaxSafety: model.ASILD},
		{Name: "p1", Policy: model.SPP, SpeedFactor: 1, RAMKiB: 1024, MaxSafety: model.ASILD},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep := m.ProposeUpdate(fn("busy", model.QM, 10000, 6000, 64)); !rep.Accepted {
		t.Fatalf("60%% function rejected at %s: %v", rep.RejectedAt, rep.Findings)
	}
	// period = WCET = 1e13 µs read as -844,674 ppm before the bound.
	rep := m.ProposeUpdate(fn("huge", model.QM, 1e13, 1e13, 64))
	if rep.Accepted || rep.RejectedAt != StageValidate {
		t.Fatalf("huge contract: accepted=%v rejected at %q (%v), want a rejection at %s",
			rep.Accepted, rep.RejectedAt, rep.Findings, StageValidate)
	}
}
