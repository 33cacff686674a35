package mcc

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/safety"
	"repro/internal/security"
)

// Tests for the diff-scoped safety/security verdict stages: decision and
// findings parity with the from-scratch engine across the cache
// invalidation edges (removals, AllowedPeers revocations, domain flips on
// functions whose victim connection belongs to an untouched client), and
// the committed-clean oracle — after every accepted change the deployed
// implementation model must pass the full checks, which is exactly the
// invariant the scoped splice rests on.

func domainFn(name, domain string, peers ...string) model.Function {
	f := fn(name, model.QM, 100000, 1000, 64)
	f.Contract.Domain = model.SecurityDomain(domain)
	f.Contract.AllowedPeers = peers
	return f
}

// assertSecCacheMirrorsConnections checks the committed session graph
// the scoped security check reads in place of a verdict cache. The
// committed-row predicate accepts every deployed connection and rejects a
// rewired copy of each; every client's committed rows are exactly its run
// of the deployed list; and the provider and requirer lists equal a
// rebuild from the deployed architecture — so no stale row or name can
// pass after removals or rewiring, and none is missing after additions.
func assertSecCacheMirrorsConnections(t *testing.T, label string, m *MCC) {
	t.Helper()
	if !m.warm() {
		t.Fatalf("%s: snapshot not warm", label)
	}
	conns := m.DeployedImpl().Connections
	wantRows := make(map[string][]model.Connection)
	for _, c := range conns {
		if !m.snap.connCommitted(c) {
			t.Fatalf("%s: deployed connection %+v not committed", label, c)
		}
		stale := c
		stale.Service += "-stale"
		if m.snap.connCommitted(stale) {
			t.Fatalf("%s: rewired connection %+v passes as committed", label, stale)
		}
		name := security.FunctionName(c.Client)
		wantRows[name] = append(wantRows[name], c)
	}
	gotRows := make(map[string][]model.Connection)
	for name, e := range m.snap.fns {
		if len(e.conns) > 0 {
			gotRows[name] = e.conns
		}
	}
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatalf("%s: committed client rows diverge from the deployed connections:\nrows %v\nwant %v", label, gotRows, wantRows)
	}
	wantProv, wantReq := make(map[string][]string), make(map[string][]string)
	for _, f := range m.Deployed().Functions {
		for _, svc := range f.Provides {
			if !slices.Contains(wantProv[svc], f.Name) {
				wantProv[svc] = append(wantProv[svc], f.Name)
			}
		}
		for _, svc := range f.Requires {
			if !slices.Contains(wantReq[svc], f.Name) {
				wantReq[svc] = append(wantReq[svc], f.Name)
			}
		}
	}
	for _, idx := range []struct {
		name      string
		committed map[string][]string
		want      map[string][]string
	}{{"provider", m.snap.prov, wantProv}, {"requirer", m.snap.req, wantReq}} {
		for _, names := range idx.want {
			slices.Sort(names)
		}
		if !reflect.DeepEqual(idx.committed, idx.want) {
			t.Fatalf("%s: committed %s lists diverge from the deployed architecture:\ncommitted %v\nwant      %v",
				label, idx.name, idx.committed, idx.want)
		}
	}
}

func TestScopedVerdictCacheInvalidationEdges(t *testing.T) {
	srv := domainFn("srv", "drive")
	srv.Provides = []string{"cmd"}
	cli := domainFn("cli", "conn", "cmd")
	cli.Requires = []string{"cmd"}
	baseline := []model.Function{srv, cli, fn("app0", model.QM, 100000, 2000, 64)}

	mk := func(opts ...Option) *MCC {
		m, err := New(testPlatform(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range baseline {
			if rep := m.ProposeUpdate(f); !rep.Accepted {
				t.Fatalf("baseline %s rejected: %v", f.Name, rep.Findings)
			}
		}
		return m
	}

	ver := func(i int, f model.Function) model.Function { f.Version = i; return f }
	revoked := domainFn("cli", "conn")
	revoked.Requires = []string{"cmd"}
	srvConn := domainFn("srv", "conn")
	srvConn.Provides = []string{"cmd"}
	srvDrive := domainFn("srv", "drive")
	srvDrive.Provides = []string{"cmd"}
	failop := fn("failop", model.ASILD, 40000, 1500, 64)
	failop.Contract.FailOperational = true // Replicas stays 1: redundancy finding
	cli2 := domainFn("cli2", "drive")
	cli2.Requires = []string{"cmd"}
	lowConn := domainFn("asrv", "conn")
	lowConn.Provides = []string{"cmd"}
	lowDrive := domainFn("asrv", "drive")
	lowDrive.Provides = []string{"cmd"}
	cliTwice := ver(10, cli)
	cliTwice.Replicas = 2
	selfServe := domainFn("a0", "drive")
	selfServe.Provides = []string{"cmd"}
	selfServe.Requires = []string{"cmd"}

	steps := []struct {
		label string
		c     Change
		// rejectAt is the expected stage ("" = accepted).
		rejectAt Stage
	}{
		// Disjoint addition: no connection involves the new function and
		// none are rebuilt — the scoped check splices everything.
		{"disjoint-add", upd(fn("telem0", model.QM, 200000, 1500, 64)), ""},
		// AllowedPeers revocation on the client contract: its committed
		// connection verdict must be invalidated, not spliced.
		{"revoke-peers", upd(ver(2, revoked)), StageSecurity},
		// Re-granting decides clean again.
		{"regrant", upd(ver(3, cli)), ""},
		// Server joins the client's domain: the connection is rewired
		// (CrossDomain flips), old cache key must die with it.
		{"server-domain-join", upd(ver(4, srvConn)), ""},
		// Same-domain revocation is fine.
		{"revoke-same-domain", upd(ver(5, revoked)), ""},
		// Domain flip on the server: the violating connection belongs to
		// the now-untouched, peers-less client — the scoped check must
		// still catch it via the touched server endpoint.
		{"server-domain-leave", upd(ver(6, srvDrive)), StageSecurity},
		// Removal without service participation: connections are copied
		// verbatim, cache keys unchanged.
		{"remove-disjoint", Change{Remove: "telem0"}, ""},
		// Removing the client drops its connection; the cached verdict
		// must go with it.
		{"remove-client", Change{Remove: "cli"}, ""},
		// With no client left, the server may leave the shared domain
		// (the rejected flip above never committed, so srv is still in
		// "conn" here).
		{"server-domain-leave-clean", upd(ver(7, srvDrive)), ""},
		// Re-adding the peers-less client recreates the cross-domain
		// session; a stale clean verdict would wave it through.
		{"readd-revoked", upd(ver(8, revoked)), StageSecurity},
		{"readd-granted", upd(ver(9, cli)), ""},
		// Safety edge: fail-operational without replicas rejects at the
		// safety stage on both engines with identical findings (the
		// incremental engine re-decides the rejection cold).
		{"failop-single", upd(failop), StageSafety},
		// Provider election. A second, same-domain requirer first.
		{"second-requirer", upd(cli2), ""},
		// A lower-named second provider is elected and rewires every
		// requirer — untouched clients whose rows are new: the peers-less
		// cli2 now crosses into "conn" and must be caught.
		{"lower-provider-denied", upd(lowConn), StageSecurity},
		{"lower-provider-add", upd(lowDrive), ""},
		// The elected provider leaves while srv still provides: every
		// requirer is rewired back to srv.
		{"elected-provider-removed", Change{Remove: "asrv"}, ""},
		// A client's replica count rises and falls: its rows follow.
		{"client-replicas-up", upd(cliTwice), ""},
		{"client-replicas-down", upd(ver(11, cli)), ""},
		// A function requiring a service it provides itself, elected as
		// the lowest name: it serves itself and rewires every requirer,
		// then its removal rewires them back.
		{"self-provider", upd(selfServe), ""},
		{"self-provider-removed", Change{Remove: "a0"}, ""},
	}

	// Every step runs on three engines against the from-scratch oracle:
	// serially, and through the stream scheduler in a window next to a
	// disjoint filler that verifies, or next to a deadline-missing hog
	// whose deferred timing verdict fails and forces the window's serial
	// replay. Removals share the hog's window like updates do, so every
	// step replays once.
	hog := fn("hog", model.ASILD, 10000, 6000, 64)
	hog.Contract.RealTime.JitterUS = 5000 // WCRT >= 11000 > period on any core
	engines := []struct {
		name    string
		propose func(t *testing.T, m *MCC, i int, c Change) *Report
	}{
		{"serial", func(t *testing.T, m *MCC, _ int, c Change) *Report {
			return m.integrateChangeCtx(context.Background(), c)
		}},
		{"window", func(t *testing.T, m *MCC, i int, c Change) *Report {
			sched := NewStreamScheduler(m)
			sched.window = 8
			reps := sched.Run([]Change{c, upd(ver(i, fn("fill", model.QM, 200000, 100, 64)))})
			if st := sched.Stats(); st.Replays != 0 || !reps[1].Accepted {
				t.Fatalf("stats = %+v, filler accepted %v: want a verified window", st, reps[1].Accepted)
			}
			return reps[0]
		}},
		{"window-replay", func(t *testing.T, m *MCC, _ int, c Change) *Report {
			sched := NewStreamScheduler(m)
			sched.window = 8
			reps := sched.Run([]Change{c, upd(hog)})
			if st := sched.Stats(); st.Replays != 1 || reps[1].Accepted || reps[1].RejectedAt != StageTiming {
				t.Fatalf("stats = %+v, hog decided %v@%q: want one replay and a timing rejection",
					st, reps[1].Accepted, reps[1].RejectedAt)
			}
			return reps[0]
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			inc := mk()                     // scoped verdict stages
			ser := mk(WithoutIncremental()) // from-scratch oracle
			sawSplice := false
			for i, st := range steps {
				ir, sr := eng.propose(t, inc, i, st.c), ser.integrateChangeCtx(context.Background(), st.c)
				if ir.Accepted != sr.Accepted || ir.RejectedAt != sr.RejectedAt {
					t.Fatalf("%s: incremental decided %v@%q, serial %v@%q",
						st.label, ir.Accepted, ir.RejectedAt, sr.Accepted, sr.RejectedAt)
				}
				if !reflect.DeepEqual(ir.Findings, sr.Findings) {
					t.Fatalf("%s: findings diverge:\nincremental %v\nserial      %v", st.label, ir.Findings, sr.Findings)
				}
				if st.rejectAt == "" && !ir.Accepted {
					t.Fatalf("%s: rejected at %s: %v", st.label, ir.RejectedAt, ir.Findings)
				}
				if st.rejectAt != "" && (ir.Accepted || ir.RejectedAt != st.rejectAt) {
					t.Fatalf("%s: decided %v@%q, want rejection at %s", st.label, ir.Accepted, ir.RejectedAt, st.rejectAt)
				}
				if got, want := inc.DeployedImpl().Connections, ser.DeployedImpl().Connections; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: committed connections diverge from the oracle:\ngot  %+v\nwant %+v", st.label, got, want)
				}
				if ir.Accepted {
					// The committed-clean oracle: the scoped splice is valid
					// iff every committed configuration passes the full checks.
					impl := inc.DeployedImpl()
					if f := safety.Check(impl.Tech); len(f) > 0 {
						t.Fatalf("%s: committed config carries safety findings: %v", st.label, f)
					}
					if f := security.CheckDomains(impl); len(f) > 0 {
						t.Fatalf("%s: committed config carries security findings: %v", st.label, f)
					}
				}
				assertSecCacheMirrorsConnections(t, st.label, inc)
				assertSnapshotFresh(t, st.label, inc)
				if st.label == "disjoint-add" {
					if ir.SecurityChecks != 0 {
						t.Errorf("disjoint-add re-checked %d connections, want 0 (full splice)", ir.SecurityChecks)
					}
					if len(inc.DeployedImpl().Connections) == 0 {
						t.Error("fixture lost its connections — the splice assertion is vacuous")
					}
					sawSplice = true
				}
			}
			if !sawSplice {
				t.Fatal("no step exercised the full-splice path")
			}
		})
	}
}

func TestScopedVerdictTelemetryFootprintSized(t *testing.T) {
	// The counters must mirror TimingScans: a from-scratch engine pays
	// one verdict per entity per proposal, the scoped engine a handful
	// per change regardless of how much is deployed.
	inc, err := New(testPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if rep := inc.ProposeUpdate(fn("seed", model.QM, 100000, 2000, 64)); !rep.Accepted {
		t.Fatalf("seed rejected: %v", rep.Findings)
	}
	for i := 0; i < 6; i++ {
		rep := inc.ProposeUpdate(fn(fmt.Sprintf("t%d", i), model.QM, 100000+int64(i)*10000, 1500, 64))
		if !rep.Accepted {
			t.Fatalf("t%d rejected: %v", i, rep.Findings)
		}
		// Each addition touches one function on one processor: one
		// placement verdict + one memory budget, no redundancy groups,
		// no connections.
		if rep.SafetyChecks < 1 || rep.SafetyChecks > 3 {
			t.Errorf("t%d: SafetyChecks = %d, want footprint-sized (1..3)", i, rep.SafetyChecks)
		}
		if rep.SecurityChecks != 0 {
			t.Errorf("t%d: SecurityChecks = %d, want 0 (no sessions touched)", i, rep.SecurityChecks)
		}
	}

	ser, err := New(testPlatform(), WithoutIncremental())
	if err != nil {
		t.Fatal(err)
	}
	if rep := ser.ProposeUpdate(fn("seed", model.QM, 100000, 2000, 64)); !rep.Accepted {
		t.Fatalf("seed rejected: %v", rep.Findings)
	}
	rep := ser.ProposeUpdate(fn("t0", model.QM, 100000, 1500, 64))
	if !rep.Accepted {
		t.Fatalf("serial t0 rejected: %v", rep.Findings)
	}
	// From scratch: every instance + every loaded processor budget.
	if rep.SafetyChecks < 3 {
		t.Errorf("serial SafetyChecks = %d, want the full walk (>= instances + budgets)", rep.SafetyChecks)
	}
}
