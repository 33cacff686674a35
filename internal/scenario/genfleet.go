package scenario

import (
	"fmt"
	"math/rand"

	"repro/internal/mcc"
	"repro/internal/model"
)

// This file implements the parameterized fleet generator behind the E13
// scale tier and the differential parity harness: a seeded PRNG derives a
// platform (processor count, network topology), a pre-deployed baseline
// workload (task chains of configurable depth, sized to a utilization
// headroom), and a change stream with a configurable mix — all
// deterministic per FleetSpec, so every integration mode and every
// differential run sees byte-identical inputs.

// FleetSpec parameterizes one generated fleet.
type FleetSpec struct {
	// Seed drives every random choice; equal specs generate equal fleets.
	Seed int64
	// Processors is the platform size (half ASIL-D lockstep cores, half
	// fast QM/B cores).
	Processors int
	// Segments is the number of CAN segments beside the fleet backbone;
	// processors attach round-robin. 0 means backbone only.
	Segments int
	// ChainDepth is the number of functions per processing chain
	// (perception -> fusion stages -> control); 1 disables chaining.
	ChainDepth int
	// FnsPerProc scales the baseline workload: total baseline functions ≈
	// Processors * FnsPerProc (chains plus standalone QM applications).
	FnsPerProc float64
	// Headroom is the fraction of fleet capacity the baseline leaves
	// free (0..1); change streams consume part of it.
	Headroom float64
	// Mix weighs the change-stream generator's choices.
	Mix ChangeMix
}

// ChangeMix holds the relative weights of the change kinds in a generated
// stream. Zero-weight kinds never occur; an all-zero mix defaults to adds.
type ChangeMix struct {
	// Add introduces a new standalone telemetry function (disjoint
	// footprint, the common fleet case).
	Add int
	// Update bumps the WCET estimate of a deployed baseline function.
	Update int
	// Remove removes a telemetry function added earlier in the stream
	// (degrades to Add while none exists); it frees the capacity that
	// later changes of the same stream window may take.
	Remove int
	// Broken proposes a contract violation (WCET > deadline) the
	// validation stage must reject.
	Broken int
	// CrossDomain introduces a client of a baseline chain service from a
	// foreign security domain, granted an AllowedPeers entry about half
	// the time — the other half must be rejected by the security stage.
	// Degrades to Add when the baseline exposes no services.
	CrossDomain int
}

// DefaultFleetSpec returns the E13 baseline parameters at the given
// platform size.
func DefaultFleetSpec(processors int) FleetSpec {
	return FleetSpec{
		Seed:       1,
		Processors: processors,
		Segments:   max(1, processors/16),
		ChainDepth: 3,
		FnsPerProc: 2.0,
		Headroom:   0.5,
		Mix:        ChangeMix{Add: 6, Update: 3, Remove: 1, Broken: 1},
	}
}

// Fleet is one generated scenario: the platform, the baseline workload to
// pre-deploy, and the deterministic change-stream generator state.
type Fleet struct {
	Spec     FleetSpec
	Platform *model.Platform
	Baseline *model.FunctionalArchitecture

	// baseNames lists the baseline functions eligible for updates.
	baseNames []string
	// services lists the chain services the baseline provides, the
	// targets of generated cross-domain clients.
	services []string
}

// GenFleet generates the platform and baseline workload for a spec.
func GenFleet(spec FleetSpec) *Fleet {
	if spec.Processors < 2 {
		spec.Processors = 2
	}
	if spec.ChainDepth < 1 {
		spec.ChainDepth = 1
	}
	if spec.FnsPerProc <= 0 {
		spec.FnsPerProc = 2.0
	}
	if spec.Headroom < 0.1 {
		spec.Headroom = 0.1
	}
	if spec.Headroom > 0.9 {
		spec.Headroom = 0.9
	}
	f := &Fleet{Spec: spec}
	f.Platform = genPlatform(spec)
	rng := rand.New(rand.NewSource(spec.Seed))
	f.Baseline = f.genBaseline(rng)
	return f
}

// genPlatform builds the platform: half lockstep ASIL-D cores (reference
// speed), half fast ASIL-B cores, CAN segments attaching processors
// round-robin, and a backbone attaching everything. The backbone
// bandwidth scales with the fleet size (a bigger platform ships a faster
// interconnect), so bus capacity does not become the scaling bottleneck
// the experiment is not about. Segments are listed before the backbone:
// Platform.Connecting picks the first shared network, so intra-segment
// flows ride the segment bus and only cross-segment traffic loads the
// backbone.
func genPlatform(spec FleetSpec) *model.Platform {
	p := &model.Platform{}
	lock := spec.Processors / 2
	for i := 0; i < spec.Processors; i++ {
		if i < lock {
			p.Processors = append(p.Processors, model.Processor{
				Name: fmt.Sprintf("lock-%03d", i), Policy: model.SPP,
				SpeedFactor: 1.0, RAMKiB: 4096, MaxSafety: model.ASILD,
			})
		} else {
			p.Processors = append(p.Processors, model.Processor{
				Name: fmt.Sprintf("perf-%03d", i-lock), Policy: model.SPP,
				SpeedFactor: 2.5, RAMKiB: 16384, MaxSafety: model.ASILB,
			})
		}
	}
	for s := 0; s < spec.Segments; s++ {
		net := model.Network{
			Name: fmt.Sprintf("seg%02d", s), BitsPerSec: 2_000_000, Kind: "can",
		}
		for i := range p.Processors {
			if i%spec.Segments == s {
				net.Attached = append(net.Attached, p.Processors[i].Name)
			}
		}
		p.Networks = append(p.Networks, net)
	}
	backbone := model.Network{
		Name:       "backbone",
		BitsPerSec: 2_000_000 * int64(max(1, spec.Processors/8)),
		Kind:       "can",
	}
	for i := range p.Processors {
		backbone.Attached = append(backbone.Attached, p.Processors[i].Name)
	}
	p.Networks = append(p.Networks, backbone)
	return p
}

// genBaseline builds the pre-deployed workload: processing chains
// (ASIL-B perception feeding through QM fusion stages into ASIL-D
// control, connected by periodic flows) plus standalone QM applications.
// Per-function utilization is sized so the fleet lands at 1-Headroom of
// its capacity, with the ASIL-D share fitted to the lockstep cores it is
// confined to. Release jitter several periods deep (with correspondingly
// relaxed deadlines) forces multi-activation busy windows, as on
// production timing models.
func (f *Fleet) genBaseline(rng *rand.Rand) *model.FunctionalArchitecture {
	spec := f.Spec
	lockCount := spec.Processors / 2
	perfCount := spec.Processors - lockCount

	totalFns := int(float64(spec.Processors) * spec.FnsPerProc)
	chains := totalFns / (spec.ChainDepth + 1) // +1 leaves room for apps
	if chains < 1 {
		chains = 1
	}
	apps := totalFns - chains*spec.ChainDepth
	if apps < 0 {
		apps = 0
	}

	// Utilization budgets in PPM of one reference core. ASIL-D functions
	// (one per chain) may only run on lockstep cores; everything else is
	// sized against the fast cores' capacity (2.5x reference speed each).
	budget := 1.0 - spec.Headroom
	asildPPM := int64(budget * float64(lockCount) * 1e6 / float64(max(chains, 1)))
	otherCount := chains*(spec.ChainDepth-1) + apps
	otherPPM := int64(budget * float64(perfCount) * 2.5 * 1e6 / float64(max(otherCount, 1)))
	asildPPM = clampPPM(asildPPM)
	otherPPM = clampPPM(otherPPM)

	periods := []int64{20000, 50000, 100000}
	fa := &model.FunctionalArchitecture{}
	for c := 0; c < chains; c++ {
		period := periods[rng.Intn(len(periods))]
		for s := 0; s < spec.ChainDepth; s++ {
			name := chainFnName(c, s)
			fn := model.Function{Name: name}
			switch {
			case s == spec.ChainDepth-1: // control stage
				fn.Contract.Safety = model.ASILD
				fn.Contract.RealTime = timing(rng, period, asildPPM)
				fn.Contract.Resources.RAMKiB = 128
			case s == 0: // perception stage
				fn.Contract.Safety = model.ASILB
				fn.Contract.RealTime = timing(rng, period, otherPPM)
				fn.Contract.Resources.RAMKiB = 512
			default: // fusion stage
				fn.Contract.Safety = model.QM
				fn.Contract.RealTime = timing(rng, period, otherPPM)
				fn.Contract.Resources.RAMKiB = 256
			}
			if s > 0 {
				fn.Requires = []string{chainSvc(c, s-1)}
			}
			if s < spec.ChainDepth-1 {
				fn.Provides = []string{chainSvc(c, s)}
				f.services = append(f.services, chainSvc(c, s))
				fa.Flows = append(fa.Flows, model.Flow{
					From: name, To: chainFnName(c, s+1),
					Service: chainSvc(c, s), MsgBytes: 8, PeriodUS: period,
				})
			}
			fa.Functions = append(fa.Functions, fn)
			f.baseNames = append(f.baseNames, name)
		}
	}
	for a := 0; a < apps; a++ {
		period := periods[rng.Intn(len(periods))]
		name := fmt.Sprintf("app%03d", a)
		fa.Functions = append(fa.Functions, model.Function{
			Name: name,
			Contract: model.Contract{
				Safety:    model.QM,
				RealTime:  timing(rng, period, otherPPM),
				Resources: model.ResourceContract{RAMKiB: 256},
			},
		})
		f.baseNames = append(f.baseNames, name)
	}
	return fa
}

// clampPPM bounds a per-function utilization so a single function never
// dominates a core (placement stays flexible) nor vanishes below the
// analysis granularity.
func clampPPM(ppm int64) int64 {
	if ppm > 350_000 {
		return 350_000
	}
	if ppm < 2_000 {
		return 2_000
	}
	return ppm
}

// timing derives a real-time contract from a period and target
// utilization: jitter 2-4 periods deep, deadline relaxed past the jitter
// so deep busy windows are feasible yet real analysis work.
func timing(rng *rand.Rand, periodUS, utilPPM int64) model.RealTimeContract {
	wcet := periodUS * utilPPM / 1_000_000
	if wcet < 1 {
		wcet = 1
	}
	jitter := periodUS * int64(2+rng.Intn(3))
	return model.RealTimeContract{
		PeriodUS:   periodUS,
		WCETUS:     wcet,
		JitterUS:   jitter,
		DeadlineUS: jitter + 8*periodUS,
	}
}

func chainFnName(c, s int) string { return fmt.Sprintf("ch%03d-s%d", c, s) }
func chainSvc(c, s int) string    { return fmt.Sprintf("ch%03d/d%d", c, s) }

// Changes generates the first n changes of the fleet's deterministic
// change stream. The stream is a function of the spec alone, so every
// integration mode (serial, incremental, stream-parallel) and both sides
// of a differential run decide exactly the same requests.
func (f *Fleet) Changes(n int) []mcc.Change {
	return f.ChangesWithSeed(n, f.Spec.Seed)
}

// ChangesWithSeed is Changes with the stream seed decoupled from the
// fleet seed: the E15 multi-tenant tier deploys many vehicles from ONE
// archetype (same platform, same baseline, shared analyzer digests) but
// gives each its own change stream — same mix, different draws. Equal
// seeds reproduce Changes exactly.
func (f *Fleet) ChangesWithSeed(n int, seed int64) []mcc.Change {
	rng := rand.New(rand.NewSource(seed ^ 0x5f1e9a7c3b2d4e88))
	mix := f.Spec.Mix
	total := mix.Add + mix.Update + mix.Remove + mix.Broken + mix.CrossDomain
	if total == 0 {
		mix = ChangeMix{Add: 1}
		total = 1
	}
	var added []string // telemetry functions added so far, removal pool
	out := make([]mcc.Change, 0, n)
	for i := 0; i < n; i++ {
		w := rng.Intn(total)
		switch {
		case w < mix.Add:
			out = append(out, f.genAdd(rng, i, &added))
		case w < mix.Add+mix.Update:
			out = append(out, f.genUpdate(rng, i))
		case w < mix.Add+mix.Update+mix.CrossDomain:
			if len(f.services) == 0 {
				out = append(out, f.genAdd(rng, i, &added))
				continue
			}
			out = append(out, f.genCrossDomain(rng, i))
		case w < mix.Add+mix.Update+mix.CrossDomain+mix.Remove:
			if len(added) == 0 {
				out = append(out, f.genAdd(rng, i, &added))
				continue
			}
			k := rng.Intn(len(added))
			name := added[k]
			added = append(added[:k], added[k+1:]...)
			out = append(out, mcc.Change{Remove: name})
		default:
			fn := model.Function{
				Name: fmt.Sprintf("broken%03d", i),
				Contract: model.Contract{
					Safety:   model.QM,
					RealTime: model.RealTimeContract{PeriodUS: 1000, WCETUS: 5000},
				},
			}
			out = append(out, mcc.Change{Update: &fn})
		}
	}
	return out
}

// genAdd produces a new lightweight telemetry function with a footprint
// disjoint from everything else in the stream.
func (f *Fleet) genAdd(rng *rand.Rand, i int, added *[]string) mcc.Change {
	name := fmt.Sprintf("telem%03d", i)
	*added = append(*added, name)
	period := int64(100000 + 50000*rng.Intn(3))
	fn := model.Function{
		Name: name,
		Contract: model.Contract{
			Safety:    model.QM,
			RealTime:  timing(rng, period, int64(2000+rng.Intn(4000))),
			Resources: model.ResourceContract{RAMKiB: 64},
		},
	}
	return mcc.Change{Update: &fn}
}

// genCrossDomain produces a foreign-domain client of a random baseline
// chain service; about half the clients carry the AllowedPeers grant the
// cross-domain rule demands, the rest must be rejected by the security
// stage (diff-scoped and from-scratch alike).
func (f *Fleet) genCrossDomain(rng *rand.Rand, i int) mcc.Change {
	svc := f.services[rng.Intn(len(f.services))]
	fn := model.Function{
		Name:     fmt.Sprintf("xdom%03d", i),
		Requires: []string{svc},
		Contract: model.Contract{
			Safety:    model.QM,
			Domain:    "telematics",
			RealTime:  timing(rng, 100000, int64(2000+rng.Intn(3000))),
			Resources: model.ResourceContract{RAMKiB: 64},
		},
	}
	if rng.Intn(2) == 0 {
		fn.Contract.AllowedPeers = []string{svc}
	}
	return mcc.Change{Update: &fn}
}

// genUpdate produces a new version of a deployed baseline function with a
// slightly raised WCET estimate — the metric-feedback case of the paper.
// The bump stays within the headroom so feasibility is preserved.
func (f *Fleet) genUpdate(rng *rand.Rand, i int) mcc.Change {
	name := f.baseNames[rng.Intn(len(f.baseNames))]
	base := f.Baseline.FunctionByName(name)
	fn := *base
	fn.Version = i + 1
	rt := fn.Contract.RealTime
	rt.WCETUS += max(1, rt.WCETUS*int64(1+rng.Intn(5))/100)
	fn.Contract.RealTime = rt
	return mcc.Change{Update: &fn}
}
