package security

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// This file implements the MCC's security acceptance check: the
// implementation model's sessions are verified against the contracting
// language's security domains. A connection crossing domains requires an
// explicit AllowedPeers entry on the client's contract (default-deny,
// mirroring the capability system of the execution domain).
//
// The per-connection rule lives in exactly one function
// (ConnectionVerdict) shared by the from-scratch check and the MCC's
// diff-scoped check, so the two can never drift apart: scoped findings
// are full-check findings by construction wherever the skipped
// connections are committed clean with unchanged endpoint contracts.

// Finding is a security-viewpoint acceptance result.
type Finding struct {
	Rule    string
	Subject string
	Detail  string
}

func (f Finding) String() string { return fmt.Sprintf("[%s] %s: %s", f.Rule, f.Subject, f.Detail) }

// ConnectionVerdict applies the cross-domain rule to one connection,
// given its resolved client and server functions. A nil function means
// the connection references an entity the structural validation reports;
// the security viewpoint skips it, like the full model walk always has.
func ConnectionVerdict(client, server *model.Function, c model.Connection) (Finding, bool) {
	if client == nil || server == nil {
		return Finding{}, false // structural validation reports these
	}
	if client.Contract.Domain == server.Contract.Domain {
		return Finding{}, false
	}
	for _, p := range client.Contract.AllowedPeers {
		if p == c.Service {
			return Finding{}, false
		}
	}
	return Finding{
		Rule:    "cross-domain-connection",
		Subject: fmt.Sprintf("%s -> %s", c.Client, c.Server),
		Detail: fmt.Sprintf("client domain %q, server domain %q, service %q not in allowed peers",
			client.Contract.Domain, server.Contract.Domain, c.Service),
	}, true
}

// FunctionName recovers the function name from an instance ID
// ("name#replica"). The replica suffix is a decimal integer and can never
// contain '#', so splitting at the last '#' is unambiguous even when the
// function name itself contains one.
func FunctionName(instanceID string) string {
	if i := strings.LastIndexByte(instanceID, '#'); i >= 0 {
		return instanceID[:i]
	}
	return instanceID
}

// instanceFunctions prebuilds the instance-ID -> function index of an
// implementation model in O(instances + functions); the resolver returns
// nil when either the instance or its function does not exist. The naive
// per-lookup scan it replaces made the full domain check
// O(connections x instances x functions).
func instanceFunctions(im *model.ImplementationModel) func(instanceID string) *model.Function {
	fa := im.Tech.Func
	byName := make(map[string]*model.Function, len(fa.Functions))
	for i := range fa.Functions {
		byName[fa.Functions[i].Name] = &fa.Functions[i]
	}
	idx := make(map[string]*model.Function, len(im.Tech.Instances))
	for _, in := range im.Tech.Instances {
		idx[in.ID()] = byName[in.Function]
	}
	return func(id string) *model.Function { return idx[id] }
}

// CheckDomains verifies every session of the implementation model against
// the security domains: the from-scratch acceptance check, now
// O(connections + instances + functions) via a prebuilt instance index.
func CheckDomains(im *model.ImplementationModel) []Finding {
	out, _ := CheckDomainsScoped(im)
	return out
}

// CheckDomainsScoped is CheckDomains plus the number of per-connection
// verdicts it computed (every connection) — the SecurityChecks telemetry
// of the MCC's from-scratch passes. The MCC's diff-scoped passes apply
// ConnectionVerdict to the rewired connections themselves.
func CheckDomainsScoped(im *model.ImplementationModel) ([]Finding, int) {
	resolve := instanceFunctions(im)
	var out []Finding
	for _, c := range im.Connections {
		if f, bad := ConnectionVerdict(resolve(c.Client), resolve(c.Server), c); bad {
			out = append(out, f)
		}
	}
	return out, len(im.Connections)
}
