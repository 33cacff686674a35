package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMiB reads VmHWM, the peak resident set size, of a process from
// /proc ("self" for this one).
func peakRSSMiB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// memDelta is the Go runtime's allocation and GC activity over a phase.
type memDelta struct {
	allocBytes, allocs, gcCycles uint64
	gcPause                      time.Duration
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		allocs:     after.Mallocs - before.Mallocs,
		gcCycles:   uint64(after.NumGC - before.NumGC),
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// phase is the timed phase of a run: one latency sample and one
// completion time per unit of submitted work.
type phase struct {
	block     int // units per throughput block
	start     time.Time
	wall      time.Duration
	lat       []time.Duration
	ends      []time.Duration
	decided   []int
	decisions int
}

func (p *phase) add(start, end time.Time, decided int) {
	p.lat = append(p.lat, end.Sub(start))
	p.ends = append(p.ends, end.Sub(p.start))
	p.decided = append(p.decided, decided)
	p.decisions += decided
}

// throughput is the median decision rate over consecutive blocks of
// p.block units. A short stall of the host
// moves one block, not the figure. Every block holds the same work at any
// speed, so the figure scales with the speed even when rare expensive
// changes recur at a fixed spacing in the stream. A last partial block is
// dropped; a phase shorter than one block gives its overall rate.
func (p *phase) throughput() float64 {
	var rates []float64
	var from time.Duration
	n, k := 0, 0
	for i, d := range p.decided {
		n += d
		if k++; k == p.block {
			rates = append(rates, float64(n)/(p.ends[i]-from).Seconds())
			from, n, k = p.ends[i], 0, 0
		}
	}
	if len(rates) == 0 {
		return float64(p.decisions) / max(p.wall, time.Nanosecond).Seconds()
	}
	return median(rates)
}

// rates returns the decision rate of each tenth of the phase's wall
// clock.
func (p *phase) rates() [10]float64 {
	var r [10]float64
	tenth := p.wall / 10
	if tenth <= 0 {
		return r
	}
	for i, e := range p.ends {
		r[min(int(e/tenth), 9)] += float64(p.decided[i])
	}
	for i := range r {
		r[i] /= tenth.Seconds()
	}
	return r
}
