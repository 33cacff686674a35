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
// Before deriving anything it holds the task list to the placement
// (checkTasks), so a synthesis that lost or misplaced a resident is an
// error, not a table computed over the wrong task sets.
func FromScratchTables(p *model.Platform, impl *model.ImplementationModel) ([]TimingResult, []MonitorSpec, error) {
	if impl == nil {
		return nil, nil, nil
	}
	if err := checkTasks(impl); err != nil {
		return nil, nil, err
	}
	m := &MCC{platform: p, procs: procNames(p), procIdx: procIndex(p)}
	var timing []TimingResult
	for _, j := range m.scanJobs(impl) {
		analyze := cpa.AnalyzeSPP
		if j.spnp {
			analyze = cpa.AnalyzeSPNP
		}
		res, err := analyze(j.tasks)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: analysis of %s failed: %w", j.resource, err)
		}
		timing = append(timing, TimingResult{Resource: j.resource, Results: res})
	}
	return timing, m.planMonitors(impl), nil
}

// checkTasks holds the task list to the placement, reading the model
// alone: one task per timed instance (of a function with a period), named
// by the instance's ID and on its processor.
func checkTasks(impl *model.ImplementationModel) error {
	timed := make(map[string]bool, len(impl.Tech.Func.Functions))
	for _, f := range impl.Tech.Func.Functions {
		timed[f.Name] = f.Contract.RealTime.HasTiming()
	}
	untasked := make(map[string]string, len(impl.Tasks)) // instance ID -> processor
	for _, in := range impl.Tech.Instances {
		if timed[in.Function] {
			untasked[in.ID()] = in.Processor
		}
	}
	for _, t := range impl.Tasks {
		if untasked[t.Name] != t.Processor {
			return fmt.Errorf("oracle: task %s on %s realizes no timed instance placed there", t.Name, t.Processor)
		}
		delete(untasked, t.Name)
	}
	for _, in := range impl.Tech.Instances {
		if pn, ok := untasked[in.ID()]; ok {
			return fmt.Errorf("oracle: instance %s on %s has no task", in.ID(), pn)
		}
	}
	return nil
}

// scanJobs derives the CPA job of every loaded resource by scanning the
// implementation model's flat lists — the oracle's own job list, built
// without any pass index, in the committed table's resource order.
func (m *MCC) scanJobs(impl *model.ImplementationModel) []timingJob {
	var jobs []timingJob
	tasksOn := impl.TasksByProcessor()
	for k, pn := range m.procs {
		if j, ok := m.buildProcJob(k, tasksOn[pn]); ok {
			jobs = append(jobs, j)
		}
	}
	for i := range m.platform.Networks {
		if j, ok := m.buildNetJob(i, impl.MessagesOn(m.platform.Networks[i].Name)); ok {
			jobs = append(jobs, j)
		}
	}
	return jobs
}
