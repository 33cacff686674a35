package main

import (
	"runtime"
	"time"

	"repro/internal/mcc"
)

// timedPhase is the closed-loop timed phase every workload runs: one
// client submits its next unit of work as soon as the last one returned,
// until the phase's length has passed. In a traced run the units
// alternate: even units are traced and feed the ledger, odd ones are the
// untraced baseline of trace.overhead_us_p50.
type timedPhase struct {
	// unit submits the next unit of work. It returns the reports the unit
	// got, its start and end, and how many of its operations got no
	// verdict.
	unit func() (reps []*mcc.Report, t0, t1 time.Time, lost int)
	// trace records a traced unit in the ledger and in the run's spans.
	trace func(led *ledger, reps []*mcc.Report, t0, t1 time.Time)
	// deployed reads the deployed function count for the stationarity
	// record; nil leaves the record to the workload.
	deployed func() int
	// block is the number of units per throughput block.
	block int
	// rssAt is the unit count at which this process's peak RSS is read.
	// The benchmark's own logs grow with the units it has run, so a fixed
	// count keeps peak_rss_mb from tracking the run's throughput. A run
	// with fewer units reads it at its end.
	rssAt int
}

// run runs the phase for cfg.seconds and fills o's phase, counts, peak
// RSS and, when the workload does not keep it, the stationarity record.
// It returns the ledger of the traced units, the runtime's memory
// activity over the phase, and the traced units' median minus the
// untraced units' median in µs.
func (tp timedPhase) run(cfg config, o *outcome) (*ledger, memDelta, float64, error) {
	dur := time.Duration(cfg.seconds * float64(time.Second))
	runtime.GC()
	mem0 := readMem()
	p := &o.phase
	p.block = tp.block
	p.start = time.Now()
	end := p.start.Add(dur)

	led := newLedger()
	var traced, plain []time.Duration
	var rssErr error
	rssRead, marked := false, false
	for i := 1; ; i++ {
		reps, t0, t1, lost := tp.unit()
		if cfg.trace && i%2 == 1 {
			tp.trace(led, reps, t0, t1)
			t1 = time.Now()
			traced = append(traced, t1.Sub(t0))
		} else if cfg.trace {
			plain = append(plain, t1.Sub(t0))
		}
		n := 0
		for _, rep := range reps {
			n += decided(rep)
		}
		p.add(t0, t1, n)
		o.attempted += len(reps) + lost
		o.failed += lost
		if i == tp.rssAt {
			o.peakRSS, rssErr = peakRSSMiB("self")
			rssRead = true
		}
		if tp.deployed != nil && !marked && t1.Sub(p.start) >= dur/10 {
			marked = true
			o.station.deployedFirst = tp.deployed()
		}
		if !t1.Before(end) {
			p.wall = t1.Sub(p.start)
			break
		}
	}
	mem := memSince(mem0)
	if !rssRead {
		o.peakRSS, rssErr = peakRSSMiB("self")
	}
	if tp.deployed != nil {
		o.station.deployedLast = tp.deployed()
	}
	return led, mem, us(quantile(traced, 0.5)) - us(quantile(plain, 0.5)), rssErr
}
