package mcc

import "repro/internal/model"

// ConnectingIndexed exposes the controller's per-processor network index
// to the external test package, which can import the scenario generators.
func (m *MCC) ConnectingIndexed(a, b string) *model.Network { return m.connecting(a, b) }
