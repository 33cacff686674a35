package cpa

import (
	"reflect"
	"sync"
	"testing"
)

func analyzerTaskSet() []Task {
	return []Task{
		{Name: "a", Priority: 1, WCETUS: 500, Event: EventModel{PeriodUS: 5000, JitterUS: 1000}, DeadlineUS: 5000},
		{Name: "b", Priority: 2, WCETUS: 1500, Event: EventModel{PeriodUS: 10000}, DeadlineUS: 10000},
		{Name: "c", Priority: 3, WCETUS: 4000, Event: EventModel{PeriodUS: 20000, JitterUS: 2000}, DeadlineUS: 20000},
	}
}

func TestAnalyzerMatchesDirectAnalysis(t *testing.T) {
	tasks := analyzerTaskSet()
	want, err := AnalyzeSPP(tasks)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer()
	for i := 0; i < 3; i++ {
		got, err := a.AnalyzeSPP(tasks)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: analyzer results diverge from direct analysis:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
	st := a.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss then 2 hits", st)
	}
}

func TestAnalyzerCacheInvalidatedByTaskChange(t *testing.T) {
	tasks := analyzerTaskSet()
	a := NewAnalyzer()
	first, err := a.AnalyzeSPP(tasks)
	if err != nil {
		t.Fatal(err)
	}
	// A WCET change must produce a fresh analysis, not a stale table.
	tasks[1].WCETUS = 3000
	second, err := a.AnalyzeSPP(tasks)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Misses != 2 {
		t.Fatalf("changed task set served from cache: stats %+v", st)
	}
	want, err := AnalyzeSPP(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("post-invalidation results wrong:\ngot  %+v\nwant %+v", second, want)
	}
	if reflect.DeepEqual(first, second) {
		t.Fatal("WCET change did not affect results; invalidation untestable")
	}
}

func TestAnalyzerSPPAndSPNPDoNotAlias(t *testing.T) {
	tasks := analyzerTaskSet()
	a := NewAnalyzer()
	spp, err := a.AnalyzeSPP(tasks)
	if err != nil {
		t.Fatal(err)
	}
	spnp, err := a.AnalyzeSPNP(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(spp, spnp) {
		t.Fatal("SPP and SPNP analyses returned identical tables; cache keys alias")
	}
	if st := a.Stats(); st.Misses != 2 {
		t.Fatalf("expected two distinct cache entries, stats %+v", st)
	}
}

func TestAnalyzerCachedResultsAreIsolated(t *testing.T) {
	tasks := analyzerTaskSet()
	a := NewAnalyzer()
	first, err := a.AnalyzeSPP(tasks)
	if err != nil {
		t.Fatal(err)
	}
	first[0].WCRTUS = -1 // caller scribbles on its copy
	second, err := a.AnalyzeSPP(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if second[0].WCRTUS == -1 {
		t.Fatal("cache returned a shared slice; caller mutation leaked")
	}
}

func TestTaskSetDigestOrderIndependent(t *testing.T) {
	tasks := analyzerTaskSet()
	perm := []Task{tasks[2], tasks[0], tasks[1]}
	if TaskSetDigest(tasks) != TaskSetDigest(perm) {
		t.Fatal("digest depends on task order")
	}
	changed := analyzerTaskSet()
	changed[0].Event.JitterUS++
	if TaskSetDigest(tasks) == TaskSetDigest(changed) {
		t.Fatal("jitter change did not change the digest")
	}
	if TaskSetDigest(nil) == TaskSetDigest(tasks[:1]) {
		t.Fatal("empty and singleton sets digest equally")
	}
}

func TestAnalyzerConcurrentUse(t *testing.T) {
	tasks := analyzerTaskSet()
	want, err := AnalyzeSPP(tasks)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer()
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := a.AnalyzeSPP(tasks)
				if err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errc <- errDiverged
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

var errDiverged = errorString("concurrent analyzer result diverged")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestAnalyzerConcurrentMissesCoalesce(t *testing.T) {
	tasks := analyzerTaskSet()
	want, err := AnalyzeSPP(tasks)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer()
	const n = 32
	start := make(chan struct{})
	errc := make(chan error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := a.AnalyzeSPP(tasks)
			if err != nil {
				errc <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errc <- errDiverged
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	// Single-flight guarantees exactly one goroutine runs the fixed point
	// no matter how the other 31 interleave; each of those either waited
	// on the flight or found the completed entry — both count as hits.
	if st.Misses != 1 {
		t.Fatalf("%d concurrent identical analyses ran %d fixed points, want 1 (stats %+v)", n, st.Misses, st)
	}
	if st.Hits != n-1 {
		t.Fatalf("hits = %d, want %d (stats %+v)", st.Hits, n-1, st)
	}
	if st.FlightWaits < 0 || st.FlightWaits > n-1 {
		t.Fatalf("flight waits %d out of range [0,%d]", st.FlightWaits, n-1)
	}
}

func TestAnalyzerFlightWaiterSharesResult(t *testing.T) {
	tasks := analyzerTaskSet()
	want, err := AnalyzeSPP(tasks)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer()
	key := TaskSetDigest(tasks)

	// Pre-register an in-flight analysis for the digest so the waiter
	// path is exercised deterministically, then publish a result.
	f := &flight{done: make(chan struct{})}
	a.mu.Lock()
	a.flights[key] = f
	a.mu.Unlock()

	type outcome struct {
		res []Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := a.AnalyzeSPP(tasks)
		done <- outcome{r, err}
	}()

	f.res = append([]Result(nil), want...)
	close(f.done) // flight stays registered, so the waiter path is certain
	out := <-done
	a.mu.Lock()
	delete(a.flights, key)
	a.mu.Unlock()

	if out.err != nil {
		t.Fatal(out.err)
	}
	if !reflect.DeepEqual(out.res, want) {
		t.Fatalf("waiter result diverged:\ngot  %+v\nwant %+v", out.res, want)
	}
	out.res[0].WCRTUS = -1
	if f.res[0].WCRTUS == -1 {
		t.Fatal("waiter received the flight's own slice, not a copy")
	}
	st := a.Stats()
	if st.Misses != 0 || st.Hits != 1 || st.FlightWaits != 1 {
		t.Fatalf("stats = %+v, want 0 misses / 1 hit / 1 flight wait", st)
	}
}

func TestAnalyzerFlightWaiterSeesError(t *testing.T) {
	tasks := analyzerTaskSet()
	a := NewAnalyzer()
	key := TaskSetDigest(tasks)
	f := &flight{done: make(chan struct{})}
	a.mu.Lock()
	a.flights[key] = f
	a.mu.Unlock()

	errs := make(chan error, 1)
	go func() {
		_, err := a.AnalyzeSPP(tasks)
		errs <- err
	}()
	f.err = errDiverged
	close(f.done)
	if err := <-errs; err != errDiverged {
		t.Fatalf("waiter error = %v, want the flight owner's error", err)
	}
	a.mu.Lock()
	delete(a.flights, key)
	a.mu.Unlock()
	if st := a.Stats(); st.FlightWaits != 0 || st.Hits != 0 {
		t.Fatalf("errored flight counted as a hit: %+v", st)
	}
}

func TestAnalyzerErrorNotCached(t *testing.T) {
	// Duplicate priorities make the underlying analysis fail; the failure
	// must not be memoized, so every call retries the fixed point.
	bad := []Task{
		{Name: "x", Priority: 1, WCETUS: 100, Event: EventModel{PeriodUS: 1000}, DeadlineUS: 1000},
		{Name: "y", Priority: 1, WCETUS: 100, Event: EventModel{PeriodUS: 1000}, DeadlineUS: 1000},
	}
	a := NewAnalyzer()
	for i := 0; i < 2; i++ {
		if _, err := a.AnalyzeSPP(bad); err == nil {
			t.Fatal("duplicate-priority task set analyzed without error")
		}
	}
	st := a.Stats()
	if st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("error was cached: stats %+v", st)
	}
}

// distinctTaskSet returns the i-th of a family of pairwise distinct
// one-task sets.
func distinctTaskSet(i int) []Task {
	return []Task{{Name: "t", Priority: 1, WCETUS: 1, Event: EventModel{PeriodUS: int64(1000 + i)}, DeadlineUS: int64(1000 + i)}}
}

// A full memo table evicts first in, first out: after maxCacheEntries+k
// distinct task sets, exactly the k oldest miss.
func TestAnalyzerEvictsOldestFirst(t *testing.T) {
	const k = 37
	a := NewAnalyzer()
	for i := 0; i < maxCacheEntries+k; i++ {
		if _, err := a.AnalyzeSPP(distinctTaskSet(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := a.Stats(); st.Entries != maxCacheEntries || st.Misses != maxCacheEntries+k {
		t.Fatalf("after %d distinct sets: %+v", maxCacheEntries+k, st)
	}
	// The survivors first (a hit evicts nothing), then the evicted.
	for i := k; i < maxCacheEntries+k; i++ {
		a.AnalyzeSPP(distinctTaskSet(i)) //nolint:errcheck // analyzed without error above
	}
	if st := a.Stats(); st.Hits != maxCacheEntries || st.Misses != maxCacheEntries+k {
		t.Fatalf("the %d newest sets did not all hit: %+v", maxCacheEntries, st)
	}
	for i := 0; i < k; i++ {
		a.AnalyzeSPP(distinctTaskSet(i)) //nolint:errcheck // analyzed without error above
	}
	if st := a.Stats(); st.Hits != maxCacheEntries || st.Misses != maxCacheEntries+2*k {
		t.Fatalf("the %d oldest sets did not all miss: %+v", k, st)
	}
}

// Eviction is deterministic: two identical request streams that overflow
// the table end in identical counters.
func TestAnalyzerOverflowStatsReproducible(t *testing.T) {
	run := func() AnalyzerStats {
		a := NewAnalyzer()
		for i := 0; i < 3*maxCacheEntries; i++ {
			// Revisit a sliding window of recent sets and a few old ones.
			a.AnalyzeSPP(distinctTaskSet(i))       //nolint:errcheck // valid set
			a.AnalyzeSPP(distinctTaskSet(i / 2))   //nolint:errcheck // valid set
			a.AnalyzeSPNP(distinctTaskSet(i % 97)) //nolint:errcheck // valid set
		}
		return a.Stats()
	}
	if first, second := run(), run(); first != second {
		t.Fatalf("identical runs diverge: %+v, then %+v", first, second)
	}
}

// A digest-taking entry point decides exactly as the plain one, sharing
// its memo entries, and keeps SPP and SPNP apart.
func TestAnalyzerDigestEntryPointsShareTheMemo(t *testing.T) {
	tasks := analyzerTaskSet()
	a := NewAnalyzer()
	want, err := a.AnalyzeSPP(tasks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.AnalyzeSPPDigest(tasks, TaskSetDigest(tasks))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("digest entry point: %+v, %v; want %+v", got, err, want)
	}
	if _, err := a.AnalyzeSPNPDigest(tasks, TaskSetDigest(tasks)); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want the SPP entry reused and an SPNP entry of its own", st)
	}
}
