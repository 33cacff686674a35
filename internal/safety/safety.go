// Package safety implements the safety viewpoint of the CCC model domain:
// ASIL placement and redundancy acceptance checks used by the MCC
// (Section II.A), FMEA tables and fault-tree evaluation as the classical
// baseline the paper contrasts with automated cross-layer dependency
// analysis (Section V: "in traditional design, such dependencies are
// identified with semiformal methods, such as a Failure Mode and Effects
// Analysis"), and the redundancy concepts (hot/cold standby) of the
// RACE/SAFER baselines discussed in Section IV.
package safety

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// Finding is one safety-viewpoint analysis result.
type Finding struct {
	// Rule names the violated check.
	Rule string
	// Subject names the offending entity.
	Subject string
	// Detail explains the violation.
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s: %s", f.Rule, f.Subject, f.Detail)
}

// The per-entity rules below are the single source of truth shared by the
// from-scratch checks and their diff-scoped variant (CheckEntities), so
// the two paths cannot drift apart: a scoped finding is a full-check
// finding by construction wherever the splice contract of CheckEntities
// holds.

// placementFinding applies the ASIL placement rule to one instance. Nil
// function or processor means the instance references an entity the
// structural validation reports; the safety viewpoint skips it.
func placementFinding(f *model.Function, p *model.Processor, in model.Instance) (Finding, bool) {
	if f == nil || p == nil {
		return Finding{}, false // structural validation reports these
	}
	if f.Contract.Safety <= p.MaxSafety {
		return Finding{}, false
	}
	return Finding{
		Rule:    "asil-placement",
		Subject: in.ID(),
		Detail: fmt.Sprintf("requires %v but processor %q is certified for %v only",
			f.Contract.Safety, p.Name, p.MaxSafety),
	}, true
}

// redundancyFinding applies the fail-operational redundancy rule to one
// function given the processors its replicas run on.
func redundancyFinding(f *model.Function, replicaProcs []string) (Finding, bool) {
	if len(replicaProcs) < 2 {
		return Finding{
			Rule:    "fail-operational-redundancy",
			Subject: f.Name,
			Detail:  fmt.Sprintf("fail-operational but deployed %d time(s); need >= 2 replicas", len(replicaProcs)),
		}, true
	}
	procs := make(map[string]bool, len(replicaProcs))
	for _, pn := range replicaProcs {
		procs[pn] = true
	}
	if len(procs) < 2 {
		return Finding{
			Rule:    "fail-operational-redundancy",
			Subject: f.Name,
			Detail:  "all replicas share one processor: single point of failure",
		}, true
	}
	return Finding{}, false
}

// memoryFinding applies the RAM budget rule to one processor's aggregate
// demand.
func memoryFinding(p *model.Processor, demandKiB int64) (Finding, bool) {
	if p == nil || demandKiB <= p.RAMKiB {
		return Finding{}, false
	}
	return Finding{
		Rule:    "memory-budget",
		Subject: p.Name,
		Detail:  fmt.Sprintf("demand %d KiB exceeds capacity %d KiB", demandKiB, p.RAMKiB),
	}, true
}

// lookups indexes the function and processor names of one check pass,
// one pass each with the first match winning like
// FunctionByName/ProcessorByName. Every check pass walks the whole
// instance list anyway, so the index build adds no asymptotic cost and
// replaces one linear lookup per distinct name.
type lookups struct {
	fns map[string]*model.Function
	prs map[string]*model.Processor
}

func newLookups(t *model.TechnicalArchitecture) *lookups {
	var fns []model.Function
	if t.Func != nil {
		fns = t.Func.Functions
	}
	var prs []model.Processor
	if t.Platform != nil {
		prs = t.Platform.Processors
	}
	l := &lookups{
		fns: make(map[string]*model.Function, len(fns)),
		prs: make(map[string]*model.Processor, len(prs)),
	}
	for i := range fns {
		if _, dup := l.fns[fns[i].Name]; !dup {
			l.fns[fns[i].Name] = &fns[i]
		}
	}
	for i := range prs {
		if _, dup := l.prs[prs[i].Name]; !dup {
			l.prs[prs[i].Name] = &prs[i]
		}
	}
	return l
}

func (l *lookups) fn(name string) *model.Function { return l.fns[name] }

func (l *lookups) proc(name string) *model.Processor { return l.prs[name] }

// checkPlacement verifies the ASIL placement of every instance, in the
// model's canonical instance order.
func checkPlacement(t *model.TechnicalArchitecture, look *lookups) []Finding {
	var out []Finding
	for _, in := range t.Instances {
		if fd, bad := placementFinding(look.fn(in.Function), look.proc(in.Processor), in); bad {
			out = append(out, fd)
		}
	}
	return out
}

// checkRedundancy verifies the replica separation of every
// fail-operational function and counts them.
func checkRedundancy(t *model.TechnicalArchitecture) ([]Finding, int) {
	var out []Finding
	checked := 0
	var replicaProcs map[string][]string
	for i := range t.Func.Functions {
		f := &t.Func.Functions[i]
		if !f.Contract.FailOperational {
			continue
		}
		if replicaProcs == nil {
			// One instance pass groups the replica placements of every
			// function; amortized over all fail-operational verdicts.
			replicaProcs = make(map[string][]string)
			for _, in := range t.Instances {
				replicaProcs[in.Function] = append(replicaProcs[in.Function], in.Processor)
			}
		}
		checked++
		if fd, bad := redundancyFinding(f, replicaProcs[f.Name]); bad {
			out = append(out, fd)
		}
	}
	// Name-sorted emission: the scan above visits functions in
	// architecture order, the entity-driven variant (CheckEntities) only
	// has the touched names — sorting both makes every path emit the same
	// finding sequence, which the serial-vs-incremental report parity of
	// the MCC depends on. One finding per function, so the order is total.
	sort.Slice(out, func(i, j int) bool { return out[i].Subject < out[j].Subject })
	return out, checked
}

// checkMemory verifies the RAM budget of every loaded processor, in name
// order, and counts them.
func checkMemory(t *model.TechnicalArchitecture, look *lookups) ([]Finding, int) {
	demand := make(map[string]int64)
	for _, in := range t.Instances {
		f := look.fn(in.Function)
		if f == nil {
			continue
		}
		demand[in.Processor] += f.Contract.Resources.RAMKiB
	}
	names := make([]string, 0, len(demand))
	for pn := range demand {
		names = append(names, pn)
	}
	sort.Strings(names)
	var out []Finding
	for _, pn := range names {
		if fd, bad := memoryFinding(look.proc(pn), demand[pn]); bad {
			out = append(out, fd)
		}
	}
	return out, len(names)
}

// CheckPlacement verifies that every instance runs on a processor certified
// for the function's safety level.
func CheckPlacement(t *model.TechnicalArchitecture) []Finding {
	return checkPlacement(t, newLookups(t))
}

// CheckRedundancy verifies that fail-operational functions are replicated
// on disjoint processors (no single point of failure).
func CheckRedundancy(t *model.TechnicalArchitecture) []Finding {
	out, _ := checkRedundancy(t)
	return out
}

// CheckMemoryBudgets verifies that per-processor RAM demands fit capacity.
func CheckMemoryBudgets(t *model.TechnicalArchitecture) []Finding {
	out, _ := checkMemory(t, newLookups(t))
	return out
}

// Check runs all structural safety checks.
func Check(t *model.TechnicalArchitecture) []Finding {
	out, _ := CheckScoped(t)
	return out
}

// CheckScoped is Check plus the number of per-entity verdicts it computed
// (every instance, fail-operational function and loaded processor) — the
// SafetyChecks telemetry of the MCC's from-scratch passes. The MCC's
// diff-scoped passes run CheckEntities.
func CheckScoped(t *model.TechnicalArchitecture) ([]Finding, int) {
	look := newLookups(t)
	out := checkPlacement(t, look)
	checked := len(t.Instances)
	red, n := checkRedundancy(t)
	out = append(out, red...)
	checked += n
	mem, n := checkMemory(t, look)
	out = append(out, mem...)
	checked += n
	return out, checked
}

// CheckEntities runs the diff-scoped safety checks driven by explicit
// entity lists instead of architecture scans. The full check walks every
// instance and function — O(platform) per proposal even for a
// one-function change — while this variant visits exactly the named
// entities through caller-supplied resolvers, so its cost is the size of
// the change footprint. The verdicts come from the same per-entity rules
// (placementFinding, redundancyFinding, memoryFinding), and the emission
// order matches Check's: placement findings in canonical (function,
// replica) order restricted to the touched functions, redundancy findings
// name-sorted, memory findings processor-name-sorted.
//
// touched must be name-sorted and duplicate-free, affectedProcs
// name-sorted. instancesOf returns a touched function's candidate
// replicas replica-ascending (empty for a removed function); residentsOn
// returns every candidate instance hosted on an affected processor. fn
// and proc resolve candidate functions and platform processors by name
// (nil for unknown, exactly like the lookup misses of the scan-based
// path).
//
// Splice contract: the findings are element-for-element identical to
// Check on the whole candidate provided every entity outside the lists —
// instance, function, processor — belongs to a committed configuration
// that passed the full check, with its function contract, replica
// placements and aggregate processor demand unchanged since that commit.
// The MCC guarantees exactly that by deriving touched from the
// function-level diff and affectedProcs from the partial synthesis'
// affected-processor set under the warm-started mapping (untouched
// instances keep their placement). The returned count is the number of
// per-entity verdicts computed — the SafetyChecks telemetry.
func CheckEntities(
	touched, affectedProcs []string,
	fn func(string) *model.Function,
	proc func(string) *model.Processor,
	instancesOf func(string) []model.Instance,
	residentsOn func(string) []model.Instance,
) ([]Finding, int) {
	var out []Finding
	checked := 0
	// ASIL placement of every candidate replica of a touched function.
	for _, name := range touched {
		f := fn(name)
		for _, in := range instancesOf(name) {
			checked++
			if fd, bad := placementFinding(f, proc(in.Processor), in); bad {
				out = append(out, fd)
			}
		}
	}
	// Fail-operational redundancy of the touched functions still present
	// in the candidate; touched is sorted, so the emission is name-sorted
	// like checkRedundancyScoped's.
	for _, name := range touched {
		f := fn(name)
		if f == nil || !f.Contract.FailOperational {
			continue
		}
		checked++
		ins := instancesOf(name)
		replicaProcs := make([]string, len(ins))
		for i, in := range ins {
			replicaProcs[i] = in.Processor
		}
		if fd, bad := redundancyFinding(f, replicaProcs); bad {
			out = append(out, fd)
		}
	}
	// RAM budget of every affected processor. A processor none of whose
	// residents resolve gets no verdict — the map-based path never creates
	// its demand entry, so counting it here would skew the telemetry
	// parity (and verdict a processor the full check skips).
	for _, pn := range affectedProcs {
		var demand int64
		resolved := false
		for _, in := range residentsOn(pn) {
			f := fn(in.Function)
			if f == nil {
				continue
			}
			resolved = true
			demand += f.Contract.Resources.RAMKiB
		}
		if !resolved {
			continue
		}
		checked++
		if fd, bad := memoryFinding(proc(pn), demand); bad {
			out = append(out, fd)
		}
	}
	return out, checked
}

// FailureMode is one FMEA row.
type FailureMode struct {
	Component string
	Mode      string
	Effect    string
	// Severity, Occurrence, Detection on the usual 1..10 scales.
	Severity   int
	Occurrence int
	Detection  int
}

// RPN returns the risk priority number S*O*D.
func (f FailureMode) RPN() int { return f.Severity * f.Occurrence * f.Detection }

// Validate checks the 1..10 scales.
func (f FailureMode) Validate() error {
	for _, v := range []int{f.Severity, f.Occurrence, f.Detection} {
		if v < 1 || v > 10 {
			return fmt.Errorf("safety: FMEA scale value %d outside 1..10 for %s/%s", v, f.Component, f.Mode)
		}
	}
	return nil
}

// FMEA is a failure mode and effects analysis table.
type FMEA struct {
	Modes []FailureMode
}

// Add appends a validated failure mode.
func (f *FMEA) Add(m FailureMode) error {
	if err := m.Validate(); err != nil {
		return err
	}
	f.Modes = append(f.Modes, m)
	return nil
}

// RankedByRPN returns modes sorted by descending RPN (ties by component,
// then mode, for determinism).
func (f *FMEA) RankedByRPN() []FailureMode {
	out := make([]FailureMode, len(f.Modes))
	copy(out, f.Modes)
	sort.Slice(out, func(i, j int) bool {
		if out[i].RPN() != out[j].RPN() {
			return out[i].RPN() > out[j].RPN()
		}
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		return out[i].Mode < out[j].Mode
	})
	return out
}

// Above returns the modes with RPN >= threshold.
func (f *FMEA) Above(threshold int) []FailureMode {
	var out []FailureMode
	for _, m := range f.RankedByRPN() {
		if m.RPN() >= threshold {
			out = append(out, m)
		}
	}
	return out
}
