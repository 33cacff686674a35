package mcc

import (
	"fmt"

	"repro/internal/cpa"
	"repro/internal/model"
)

// FromScratchTables computes the whole-platform per-resource WCRT tables
// and the monitor plan of an implementation model from scratch — no
// memoization, no committed caches, no splicing. It is the reference the
// delta-report contract is held to: for every accepted change,
// Report.FullTiming()/FullMonitors() must equal what this oracle derives
// from the engine's deployed implementation model, whichever engine
// (serial, incremental, stream) decided the change. The tables are in
// deterministic resource order (loaded processors sorted by name, then
// loaded networks in platform order), matching the committed table.
func FromScratchTables(p *model.Platform, impl *model.ImplementationModel) ([]TimingResult, []MonitorSpec, error) {
	if impl == nil {
		return nil, nil, nil
	}
	m := &MCC{platform: p, procs: procNames(p), procIdx: procIndex(p)}
	var timing []TimingResult
	tasksOn := impl.TasksByProcessor()
	for k, pn := range m.procs {
		j, ok := m.buildProcJob(k, tasksOn[pn])
		if !ok {
			continue
		}
		res, err := cpa.AnalyzeSPP(j.tasks)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: analysis of %s failed: %w", pn, err)
		}
		timing = append(timing, TimingResult{Resource: pn, Results: res})
	}
	for i := range p.Networks {
		j, ok := m.buildNetJob(impl, i)
		if !ok {
			continue
		}
		res, err := cpa.AnalyzeSPNP(j.tasks)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: analysis of %s failed: %w", j.resource, err)
		}
		timing = append(timing, TimingResult{Resource: j.resource, Results: res})
	}
	return timing, m.planMonitors(impl), nil
}
