package main

import (
	"fmt"
	"math/rand"

	"repro/internal/mcc"
	"repro/internal/model"
)

// kind classifies a generated change by the verdict class it must get.
type kind uint8

const (
	kindUpdate  kind = iota // WCET re-estimate of a baseline function: accepted
	kindAdd                 // telemetry add: accepted
	kindRemove              // removal of an earlier add: accepted
	kindBroken              // WCET above the period: rejected at validate
	kindGranted             // cross-domain client holding the grant: accepted
	kindDenied              // cross-domain client without the grant: rejected at security
	kindHeavy               // near-capacity ASIL-D add that misses its deadline: rejected at timing
)

// op is one generated change with the verdict class it must get.
type op struct {
	kind kind
	// flowEdit marks a change to the flow set: a cross-domain client's add
	// or removal.
	flowEdit bool
	change   mcc.Change
}

// mix holds the percentage weights of the change kinds; the remainder up
// to 100 is WCET re-estimates. A telemetry or cross-domain slot removes
// the oldest live function instead of adding once the live set is full,
// so adds and removals pair up and the deployed set stays stationary.
type mix struct {
	telemetry int // telemetry adds and their removals
	broken    int // contract violations
	xdom      int // cross-domain clients, half of them granted
	// heavyEvery, when positive, makes every heavyEvery-th change from the
	// one startHeavies names a near-capacity add that misses its deadline.
	// A timing rejection re-decides the change from scratch, which costs
	// about a thousand ordinary decisions at 1024 processors, so these
	// stay rare and evenly spaced: a run sees a fixed share of them.
	heavyEvery int
}

type liveFn struct {
	name string
	flow bool
}

// gen is a seeded, stationary change stream over a fixed baseline. The
// stream is a function of the seed alone: it never looks at verdicts, so
// the same seed yields a byte-identical stream on every engine.
type gen struct {
	rng      *rand.Rand
	mix      mix
	base     []model.Function
	services []string
	live     []liveFn
	liveCap  int
	seq      int
	heavyAt  int // sequence number of the first heavy change; 0 for none
}

func newGen(seed int64, baseline *model.FunctionalArchitecture, m mix, liveCap int) *gen {
	g := &gen{
		rng:     rand.New(rand.NewSource(seed)),
		mix:     m,
		base:    baseline.Functions,
		liveCap: liveCap,
	}
	for _, f := range baseline.Functions {
		g.services = append(g.services, f.Provides...)
	}
	return g
}

// fill returns the adds that bring the live set to its cap: the warm-up
// prefix after which every telemetry slot is a removal/add pair.
func (g *gen) fill() []op {
	var out []op
	for len(g.live) < g.liveCap {
		g.seq++
		out = append(out, g.add())
	}
	return out
}

// startHeavies makes the change after the next skip ones the first heavy
// change; one follows every heavyEvery changes from there.
func (g *gen) startHeavies(skip int) { g.heavyAt = g.seq + skip + 1 }

func (g *gen) next() op {
	g.seq++
	if g.mix.heavyEvery > 0 && g.heavyAt > 0 && g.seq >= g.heavyAt && (g.seq-g.heavyAt)%g.mix.heavyEvery == 0 {
		return g.heavy()
	}
	w := g.rng.Intn(100)
	if w < g.mix.telemetry {
		if len(g.live) >= g.liveCap {
			return g.remove()
		}
		return g.add()
	}
	if w -= g.mix.telemetry; w < g.mix.broken {
		return g.broken()
	}
	if w -= g.mix.broken; w < g.mix.xdom && len(g.services) > 0 {
		if len(g.live) >= g.liveCap {
			return g.remove()
		}
		return g.crossDomain()
	}
	return g.update()
}

func (g *gen) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// timing derives a real-time contract the way the E13 fleet generator
// does: release jitter 2-4 periods deep, deadline relaxed past it.
func (g *gen) timing(periodUS, utilPPM int64) model.RealTimeContract {
	wcet := max(1, periodUS*utilPPM/1_000_000)
	jitter := periodUS * int64(2+g.rng.Intn(3))
	return model.RealTimeContract{PeriodUS: periodUS, WCETUS: wcet, JitterUS: jitter, DeadlineUS: jitter + 8*periodUS}
}

func (g *gen) update() op {
	fn := g.base[g.rng.Intn(len(g.base))]
	fn.Version = g.seq
	rt := fn.Contract.RealTime
	rt.WCETUS += max(1, rt.WCETUS*int64(1+g.rng.Intn(5))/100)
	fn.Contract.RealTime = rt
	return op{kind: kindUpdate, change: mcc.Change{Update: &fn}}
}

func (g *gen) add() op {
	name := fmt.Sprintf("telem%06d", g.seq)
	g.live = append(g.live, liveFn{name: name})
	period := int64(100000 + 50000*g.rng.Intn(3))
	fn := model.Function{Name: name, Contract: model.Contract{
		Safety:    model.QM,
		RealTime:  g.timing(period, int64(2000+g.rng.Intn(4000))),
		Resources: model.ResourceContract{RAMKiB: 64},
	}}
	return op{kind: kindAdd, change: mcc.Change{Update: &fn}}
}

func (g *gen) remove() op {
	f := g.live[0]
	g.live = g.live[1:]
	return op{kind: kindRemove, flowEdit: f.flow, change: mcc.Change{Remove: f.name}}
}

func (g *gen) broken() op {
	fn := model.Function{Name: fmt.Sprintf("broken%06d", g.seq), Contract: model.Contract{
		Safety:   model.QM,
		RealTime: model.RealTimeContract{PeriodUS: 1000, WCETUS: 5000},
	}}
	return op{kind: kindBroken, change: mcc.Change{Update: &fn}}
}

func (g *gen) crossDomain() op {
	svc := g.services[g.rng.Intn(len(g.services))]
	fn := model.Function{
		Name:     fmt.Sprintf("xdom%06d", g.seq),
		Requires: []string{svc},
		Contract: model.Contract{
			Safety:    model.QM,
			Domain:    "telematics",
			RealTime:  g.timing(100000, int64(2000+g.rng.Intn(3000))),
			Resources: model.ResourceContract{RAMKiB: 64},
		},
	}
	if g.rng.Intn(2) == 0 {
		return op{kind: kindDenied, flowEdit: true, change: mcc.Change{Update: &fn}}
	}
	fn.Contract.AllowedPeers = []string{svc}
	g.live = append(g.live, liveFn{name: fn.Name, flow: true})
	return op{kind: kindGranted, flowEdit: true, change: mcc.Change{Update: &fn}}
}

// heavy is the stress corpus's near-capacity ASIL-D load: 55-70% of a
// lockstep core at a 10 ms period with an implicit deadline. Its 5 ms
// release jitter makes it miss that deadline wherever it is placed, so
// it fails a stream window's deferred timing verification and is never
// deployed.
func (g *gen) heavy() op {
	fn := model.Function{
		Name: fmt.Sprintf("heavy%06d", g.seq),
		Contract: model.Contract{
			Safety:    model.ASILD,
			RealTime:  model.RealTimeContract{PeriodUS: 10000, WCETUS: 5500 + int64(g.rng.Intn(4))*500, JitterUS: 5000},
			Resources: model.ResourceContract{RAMKiB: 64},
		},
	}
	return op{kind: kindHeavy, change: mcc.Change{Update: &fn}}
}
