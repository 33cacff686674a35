package cpa

import (
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// Analyzer memoizes busy-window analyses per task set. The MCC re-runs the
// timing acceptance test on every proposed change, but most resources are
// untouched by any single change: their task sets hash to the same digest
// and the cached []Result is returned without re-running the fixed-point
// iterations.
//
// Thread-safety contract: an Analyzer is safe for unrestricted concurrent
// use: a whole fleet of per-vehicle MCCs (internal/fleet), each deciding
// on its caller's goroutine, may share a single instance. The invariants callers
// rely on:
//
//   - The memo table and the in-flight table are guarded by mu; the
//     hit/miss/wait counters are atomics, so Stats may be read
//     concurrently with analyses and observes each counter atomically
//     (not a consistent snapshot across counters).
//   - Cached []Result slices are immutable once stored: AnalyzeSPP/SPNP
//     hand every caller a fresh copy, and the injected-corruption path
//     only reslices the stored header. Callers may retain results
//     indefinitely.
//   - Concurrent misses of the same digest are single-flighted: one
//     goroutine runs the busy-window fixed point, the rest wait and
//     share its (copied) result — identical subsystems across tenants
//     pay analysis once fleet-wide, concurrency included. An analysis
//     error is returned to every coalesced waiter but is never cached,
//     so the next call retries.
//   - SetInjector/Reset may race ongoing analyses: an analysis that was
//     in flight across Reset stores its (fresh, correct) result into the
//     new table, which is harmless because entries are pure functions of
//     their digest.
type Analyzer struct {
	mu    sync.Mutex
	cache map[uint64][]Result
	// order is the cache's keys in insertion order, a ring once the table
	// is full: order[next] is then the oldest key, the next evicted.
	order []uint64
	next  int
	// flights tracks in-progress analyses by digest for single-flight
	// coalescing; entries are removed before the flight's done channel is
	// closed.
	flights map[uint64]*flight

	hits   atomic.Int64
	misses atomic.Int64
	waits  atomic.Int64

	// inject, when non-nil, fires fault-injection hooks: "cpa.analyze"
	// before every memoized analysis (error/slow modes) and "cpa.cache"
	// on cache hits (corrupt mode truncates the stored entry, modeling a
	// damaged memo table the caller must detect).
	inject *faultinject.Injector
}

// flight is one in-progress analysis other goroutines may wait on. res
// and err are written exactly once, before done is closed; the channel
// close publishes them to every waiter.
type flight struct {
	done chan struct{}
	res  []Result
	err  error
}

// maxCacheEntries bounds the memoization table. A fleet-scale change stream
// produces one new digest per touched resource per accepted change; when
// the table is full, each insert evicts the oldest entry (the cache is a
// pure performance artifact, correctness never depends on residency, and
// first-in first-out keeps the counters of identical runs identical).
const maxCacheEntries = 4096

// AnalyzerStats reports cache effectiveness counters.
type AnalyzerStats struct {
	// Hits counts analyses served from the cache, including analyses that
	// waited on a concurrent in-flight computation of the same digest.
	Hits int64
	// Misses counts analyses that ran the busy-window iteration.
	Misses int64
	// FlightWaits counts the subset of Hits that coalesced onto an
	// in-flight analysis instead of finding a completed cache entry.
	FlightWaits int64
	// Entries is the current number of cached task sets.
	Entries int
}

// NewAnalyzer returns an empty memoizing analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		cache:   make(map[uint64][]Result),
		flights: make(map[uint64]*flight),
	}
}

// AnalyzeSPP is the memoized equivalent of the package-level AnalyzeSPP.
func (a *Analyzer) AnalyzeSPP(tasks []Task) ([]Result, error) {
	return a.analyze(tasks, TaskSetDigest(tasks), false)
}

// AnalyzeSPNP is the memoized equivalent of the package-level AnalyzeSPNP.
func (a *Analyzer) AnalyzeSPNP(tasks []Task) ([]Result, error) {
	return a.analyze(tasks, TaskSetDigest(tasks), true)
}

// AnalyzeSPPDigest is AnalyzeSPP for a caller that holds the task set's
// digest already; digest must equal TaskSetDigest(tasks).
func (a *Analyzer) AnalyzeSPPDigest(tasks []Task, digest uint64) ([]Result, error) {
	return a.analyze(tasks, digest, false)
}

// AnalyzeSPNPDigest is AnalyzeSPNP for a caller that holds the task set's
// digest already; digest must equal TaskSetDigest(tasks).
func (a *Analyzer) AnalyzeSPNPDigest(tasks []Task, digest uint64) ([]Result, error) {
	return a.analyze(tasks, digest, true)
}

// Stats returns the current cache counters.
func (a *Analyzer) Stats() AnalyzerStats {
	a.mu.Lock()
	n := len(a.cache)
	a.mu.Unlock()
	return AnalyzerStats{
		Hits:        a.hits.Load(),
		Misses:      a.misses.Load(),
		FlightWaits: a.waits.Load(),
		Entries:     n,
	}
}

// SetInjector installs a fault injector on the analyzer's hook points
// (nil disables injection). Call before concurrent use.
func (a *Analyzer) SetInjector(inj *faultinject.Injector) {
	a.mu.Lock()
	a.inject = inj
	a.mu.Unlock()
}

// Reset drops every cached result and zeroes the counters. In-flight
// analyses complete against the new (empty) table.
func (a *Analyzer) Reset() {
	a.mu.Lock()
	a.cache = make(map[uint64][]Result)
	a.order, a.next = a.order[:0], 0
	a.mu.Unlock()
	a.hits.Store(0)
	a.misses.Store(0)
	a.waits.Store(0)
}

func (a *Analyzer) analyze(tasks []Task, key uint64, nonPreemptive bool) ([]Result, error) {
	if nonPreemptive {
		// The same message set analyzed as SPNP must not alias an SPP entry.
		key = mix64(key ^ 0x5350_4e50) // "SPNP"
	}
	a.mu.Lock()
	inj := a.inject
	cached, ok := a.cache[key]
	a.mu.Unlock()
	if _, fired, err := inj.Fire(nil, "cpa.analyze", ""); fired && err != nil {
		return nil, err
	}
	if ok {
		if f, fired, _ := inj.Fire(nil, "cpa.cache", ""); fired && f.Mode == faultinject.ModeCorrupt && len(cached) > 0 {
			a.mu.Lock()
			if cur, still := a.cache[key]; still && len(cur) > 0 {
				a.cache[key] = cur[:len(cur)-1]
			}
			cached = a.cache[key]
			a.mu.Unlock()
		}
		a.hits.Add(1)
		out := make([]Result, len(cached))
		copy(out, cached)
		return out, nil
	}

	// Miss. Re-check under the lock (the entry may have landed since the
	// unlocked read) and either join an in-flight analysis of this digest
	// or register as its owner.
	a.mu.Lock()
	if cached, ok = a.cache[key]; ok {
		a.mu.Unlock()
		a.hits.Add(1)
		out := make([]Result, len(cached))
		copy(out, cached)
		return out, nil
	}
	if a.flights == nil {
		a.flights = make(map[uint64]*flight)
	}
	if f, inFlight := a.flights[key]; inFlight {
		a.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		a.hits.Add(1)
		a.waits.Add(1)
		out := make([]Result, len(f.res))
		copy(out, f.res)
		return out, nil
	}
	f := &flight{done: make(chan struct{})}
	a.flights[key] = f
	a.mu.Unlock()

	a.misses.Add(1)
	res, err := analyze(tasks, nonPreemptive)

	a.mu.Lock()
	delete(a.flights, key)
	if err == nil {
		stored := make([]Result, len(res))
		copy(stored, res)
		a.store(key, stored)
		f.res = stored
	}
	a.mu.Unlock()
	f.err = err
	close(f.done)
	return res, err
}

// store caches res under key, evicting the oldest entry when the table is
// full. Callers hold mu.
func (a *Analyzer) store(key uint64, res []Result) {
	if _, ok := a.cache[key]; !ok {
		if len(a.order) < maxCacheEntries {
			a.order = append(a.order, key)
		} else {
			delete(a.cache, a.order[a.next])
			a.order[a.next] = key
			a.next = (a.next + 1) % maxCacheEntries
		}
	}
	a.cache[key] = res
}

// TaskSetDigest returns a digest of the task set that is independent of
// the order tasks are listed in: each task is hashed individually through a
// strong 64-bit mixer and the per-task hashes are folded with a commutative
// combine (no sort, no allocation — the digest must stay far cheaper than
// the analysis it short-circuits). Two task sets digest equally iff they
// contain the same tasks (modulo 64-bit collisions), which is what keys the
// Analyzer cache and the MCC's dirty-resource tracking.
func TaskSetDigest(tasks []Task) uint64 {
	sum := mix64(uint64(len(tasks)))
	var xor uint64
	for i := range tasks {
		h := taskHash(&tasks[i])
		sum += h
		xor ^= mix64(h)
	}
	return mix64(sum ^ xor)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func taskHash(t *Task) uint64 {
	h := fnvString(fnvOffset64, t.Name)
	h = mix64(h ^ uint64(int64(t.Priority)))
	h = mix64(h ^ uint64(t.WCETUS))
	h = mix64(h ^ uint64(t.Event.PeriodUS))
	h = mix64(h ^ uint64(t.Event.JitterUS))
	h = mix64(h ^ uint64(t.DeadlineUS))
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return mix64(h ^ uint64(len(s)))
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
