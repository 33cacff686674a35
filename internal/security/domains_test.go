package security

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
)

// referenceCheckDomains is the pre-index implementation of CheckDomains,
// kept verbatim as the oracle: for every connection it linearly scans all
// instances to resolve the client and server functions — O(connections x
// instances x functions). The indexed CheckDomains must pin its findings
// order and content exactly, including the skip behaviour on dangling
// instance IDs and instances of unknown functions.
func referenceCheckDomains(im *model.ImplementationModel) []Finding {
	var out []Finding
	fa := im.Tech.Func
	fnOf := func(instanceID string) *model.Function {
		for _, in := range im.Tech.Instances {
			if in.ID() == instanceID {
				return fa.FunctionByName(in.Function)
			}
		}
		return nil
	}
	for _, c := range im.Connections {
		client := fnOf(c.Client)
		server := fnOf(c.Server)
		if client == nil || server == nil {
			continue
		}
		if client.Contract.Domain == server.Contract.Domain {
			continue
		}
		allowed := false
		for _, p := range client.Contract.AllowedPeers {
			if p == c.Service {
				allowed = true
				break
			}
		}
		if !allowed {
			out = append(out, Finding{
				Rule:    "cross-domain-connection",
				Subject: fmt.Sprintf("%s -> %s", c.Client, c.Server),
				Detail: fmt.Sprintf("client domain %q, server domain %q, service %q not in allowed peers",
					client.Contract.Domain, server.Contract.Domain, c.Service),
			})
		}
	}
	return out
}

// domainModel builds an implementation model exercising every branch of
// the domain check: multiple violations (order matters), a granted
// cross-domain session, a same-domain session, a dangling client
// instance ID, an instance of an unknown function, and a replica index
// with more than one digit.
func domainModel() *model.ImplementationModel {
	fa := &model.FunctionalArchitecture{
		Functions: []model.Function{
			{Name: "brake", Provides: []string{"brake_cmd"},
				Contract: model.Contract{Domain: "drive"}},
			{Name: "telem", Requires: []string{"brake_cmd"},
				Contract: model.Contract{Domain: "connectivity"}},
			{Name: "diag", Requires: []string{"brake_cmd"},
				Contract: model.Contract{Domain: "workshop", AllowedPeers: []string{"brake_cmd"}}},
			{Name: "ctl", Requires: []string{"brake_cmd"},
				Contract: model.Contract{Domain: "drive"}},
			{Name: "media", Requires: []string{"brake_cmd"},
				Contract: model.Contract{Domain: "infotainment"}, Replicas: 12},
		},
	}
	tech := &model.TechnicalArchitecture{
		Func: fa,
		Instances: []model.Instance{
			{Function: "brake", Replica: 0, Processor: "p0"},
			{Function: "telem", Replica: 0, Processor: "p1"},
			{Function: "diag", Replica: 0, Processor: "p1"},
			{Function: "ctl", Replica: 0, Processor: "p0"},
			{Function: "media", Replica: 11, Processor: "p1"},
			{Function: "ghost", Replica: 0, Processor: "p1"}, // unknown function
		},
	}
	return &model.ImplementationModel{
		Tech: tech,
		Connections: []model.Connection{
			{Client: "telem#0", Server: "brake#0", Service: "brake_cmd", CrossDomain: true},   // violation
			{Client: "diag#0", Server: "brake#0", Service: "brake_cmd", CrossDomain: true},    // granted
			{Client: "ctl#0", Server: "brake#0", Service: "brake_cmd"},                        // same domain
			{Client: "media#11", Server: "brake#0", Service: "brake_cmd", CrossDomain: true},  // violation, 2-digit replica
			{Client: "missing#0", Server: "brake#0", Service: "brake_cmd", CrossDomain: true}, // dangling client
			{Client: "telem#0", Server: "missing#0", Service: "brake_cmd", CrossDomain: true}, // dangling server
			{Client: "ghost#0", Server: "brake#0", Service: "brake_cmd", CrossDomain: true},   // unknown function
		},
	}
}

func TestCheckDomainsPinsReferenceImplementation(t *testing.T) {
	im := domainModel()
	want := referenceCheckDomains(im)
	got := CheckDomains(im)
	if len(want) != 2 {
		t.Fatalf("reference oracle found %d violations, fixture expects 2: %v", len(want), want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("indexed CheckDomains diverges from the reference implementation:\ngot  %v\nwant %v", got, want)
	}
}

func TestCheckDomainsScopedFullEqualsCheckDomains(t *testing.T) {
	im := domainModel()
	got, checked := CheckDomainsScoped(im)
	if !reflect.DeepEqual(got, CheckDomains(im)) {
		t.Fatal("CheckDomainsScoped diverges from CheckDomains")
	}
	if checked != len(im.Connections) {
		t.Fatalf("counted check verified %d of %d connections", checked, len(im.Connections))
	}
}

func TestFunctionName(t *testing.T) {
	cases := map[string]string{
		"brake#0":    "brake",
		"media#11":   "media",
		"odd#name#3": "odd#name", // '#' in the function name: split at the last one
		"noreplica":  "noreplica",
	}
	for id, want := range cases {
		if got := FunctionName(id); got != want {
			t.Errorf("FunctionName(%q) = %q, want %q", id, got, want)
		}
	}
}

func TestConnectionVerdictRule(t *testing.T) {
	client := &model.Function{Name: "c", Contract: model.Contract{Domain: "a", AllowedPeers: []string{"svc"}}}
	server := &model.Function{Name: "s", Contract: model.Contract{Domain: "b"}}
	conn := model.Connection{Client: "c#0", Server: "s#0", Service: "svc"}
	if _, bad := ConnectionVerdict(client, server, conn); bad {
		t.Fatal("granted cross-domain session flagged")
	}
	conn.Service = "other"
	if f, bad := ConnectionVerdict(client, server, conn); !bad || f.Rule != "cross-domain-connection" {
		t.Fatalf("ungranted cross-domain session not flagged: %v", f)
	}
	if _, bad := ConnectionVerdict(nil, server, conn); bad {
		t.Fatal("nil client must be skipped (structural validation reports it)")
	}
	if _, bad := ConnectionVerdict(client, nil, conn); bad {
		t.Fatal("nil server must be skipped (structural validation reports it)")
	}
}
