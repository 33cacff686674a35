package scenario

import "testing"

// E15 smoke: the full default fault matrix at a reduced size. The
// blast-radius property — healthy vehicles bit-identical to their
// standalone oracles with zero lost decisions while one tenant is killed,
// stalled, or shed — must hold on every parity-checked row.
func TestFleetAvailBlastRadiusZero(t *testing.T) {
	cfg := DefaultFleetAvailConfig()
	cfg.Vehicles = 4
	cfg.Archetypes = 2
	cfg.Procs = 4
	cfg.Updates = 8
	rows, err := RunFleetAvail(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Specs) {
		t.Fatalf("%d rows for %d specs", len(rows), len(cfg.Specs))
	}
	byName := make(map[string]FleetAvailRow, len(rows))
	for _, r := range rows {
		byName[r.Spec] = r
		if r.Offered != int64(cfg.Vehicles*cfg.Updates) {
			t.Errorf("%s: offered %d, want %d", r.Spec, r.Offered, cfg.Vehicles*cfg.Updates)
		}
		if r.Offered != r.Decided+r.Shed {
			t.Errorf("%s: %d offered != %d decided + %d shed", r.Spec, r.Offered, r.Decided, r.Shed)
		}
		if r.ParityChecked && !r.BlastRadiusOK {
			t.Errorf("%s: blast radius not zero: %d lost, %d mismatched (%s)",
				r.Spec, r.HealthyLost, r.HealthyMismatches, r.FirstMismatch)
		}
	}

	clean := byName["none"]
	if clean.Shed != 0 || clean.Crashes != 0 || clean.FaultsInjected != 0 {
		t.Errorf("clean row carries fault telemetry: %+v", clean)
	}
	if clean.Decided != clean.Offered {
		t.Errorf("clean row decided %d of %d offered", clean.Decided, clean.Offered)
	}
	if clean.CacheHits == 0 {
		t.Error("same-archetype vehicles shared no analysis through the fleet analyzer")
	}

	panicRow := byName["tenant-panic"]
	if panicRow.Crashes == 0 || panicRow.Restarts == 0 {
		t.Errorf("tenant-panic never crashed the worker: %+v", panicRow)
	}
	if panicRow.Parked != 0 {
		t.Errorf("tenant-panic parked the vehicle: %+v", panicRow)
	}

	admission := byName["admission-error"]
	if admission.Shed == 0 || admission.FaultedLost == 0 {
		t.Errorf("admission-error shed nothing on the faulted tenant: %+v", admission)
	}

	overload := byName["overload"]
	if !overload.ParityChecked || overload.Decided == 0 {
		t.Errorf("overload row checked no decided change against its oracle: %+v", overload)
	}
	if overload.Shed == 0 {
		t.Errorf("overload shed nothing despite budget below offered concurrency: %+v", overload)
	}
}

// The per-vehicle stream seeds must actually decouple: two vehicles of
// the same archetype see different draws, and the legacy Changes stream
// is ChangesWithSeed at the spec seed.
func TestChangesWithSeedDecouplesStreams(t *testing.T) {
	f := GenFleet(DefaultFleetSpec(4))
	a := f.ChangesWithSeed(8, 7)
	b := f.ChangesWithSeed(8, 8)
	same := true
	for i := range a {
		au, bu := a[i].Update, b[i].Update
		if (au == nil) != (bu == nil) || (au != nil && bu != nil && au.Name != bu.Name) {
			same = false
			break
		}
		if au == nil && a[i].Remove != b[i].Remove {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct seeds produced identical 8-change streams")
	}
	legacy, reseeded := f.Changes(8), f.ChangesWithSeed(8, f.Spec.Seed)
	for i := range legacy {
		lu, ru := legacy[i].Update, reseeded[i].Update
		switch {
		case (lu == nil) != (ru == nil):
			t.Fatalf("change %d: kind diverges between Changes and ChangesWithSeed(spec seed)", i)
		case lu != nil && lu.Name != ru.Name:
			t.Fatalf("change %d: %q vs %q", i, lu.Name, ru.Name)
		case lu == nil && legacy[i].Remove != reseeded[i].Remove:
			t.Fatalf("change %d: remove %q vs %q", i, legacy[i].Remove, reseeded[i].Remove)
		}
	}
}
