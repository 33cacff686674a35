package mcc_test

import (
	"testing"

	"repro/internal/mcc"
	"repro/internal/model"
	"repro/internal/scenario"
)

// assertConnectingParity holds the controller's network index to
// Platform.Connecting, the reference scan, for every processor pair.
func assertConnectingParity(t *testing.T, p *model.Platform) {
	t.Helper()
	m, err := mcc.New(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range p.Processors {
		for _, b := range p.Processors {
			got, want := m.ConnectingIndexed(a.Name, b.Name), p.Connecting(a.Name, b.Name)
			if got != want {
				t.Fatalf("connecting(%s, %s) = %v, want %v", a.Name, b.Name, got, want)
			}
		}
	}
}

func TestNetworkIndexMatchesConnectingOnFleet(t *testing.T) {
	assertConnectingParity(t, scenario.GenFleet(scenario.DefaultFleetSpec(64)).Platform)
}

func TestNetworkIndexPicksFirstSharedNetwork(t *testing.T) {
	// Two networks attach x and y; the first declared one is the answer.
	// z shares only the second with y, and w shares none with x.
	p := &model.Platform{
		Processors: []model.Processor{
			{Name: "x", Policy: model.SPP, SpeedFactor: 1, RAMKiB: 1024, MaxSafety: model.ASILD},
			{Name: "y", Policy: model.SPP, SpeedFactor: 1, RAMKiB: 1024, MaxSafety: model.ASILD},
			{Name: "z", Policy: model.SPP, SpeedFactor: 1, RAMKiB: 1024, MaxSafety: model.ASILD},
			{Name: "w", Policy: model.SPP, SpeedFactor: 1, RAMKiB: 1024, MaxSafety: model.ASILD},
		},
		Networks: []model.Network{
			{Name: "can0", BitsPerSec: 500_000, Attached: []string{"y", "x"}, Kind: "can"},
			{Name: "can1", BitsPerSec: 500_000, Attached: []string{"x", "y", "z"}, Kind: "can"},
			{Name: "can2", BitsPerSec: 500_000, Attached: []string{"w", "z"}, Kind: "can"},
		},
	}
	assertConnectingParity(t, p)
	m, err := mcc.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.ConnectingIndexed("x", "y"); n == nil || n.Name != "can0" {
		t.Fatalf("connecting(x, y) = %v, want can0", n)
	}
	if n := m.ConnectingIndexed("x", "w"); n != nil {
		t.Fatalf("connecting(x, w) = %v, want nil", n)
	}
}
