package battery

import (
	"testing"
	"time"

	"beesim/internal/obs"
)

// TestSetBrownoutOpensLoadPath: an active brownout disconnects the
// load like a protection trip, without consuming stored energy, and
// reconnects cleanly when it clears.
func TestSetBrownoutOpensLoadPath(t *testing.T) {
	b := mustNew(t, 0.8)
	before := b.Stored()
	b.SetBrownout(true)
	if b.LoadConnected() {
		t.Fatal("load connected during a brownout")
	}
	if got := b.Discharge(2, time.Hour); got != 0 {
		t.Fatalf("browned-out battery delivered for %v", got)
	}
	if b.Stored() != before {
		t.Fatalf("brownout drained the store: %v -> %v", before, b.Stored())
	}
	b.SetBrownout(false)
	if !b.LoadConnected() {
		t.Fatal("load still open after the brownout cleared")
	}
	if got := b.Discharge(2, time.Hour); got != time.Hour {
		t.Fatalf("recovered battery delivered only %v", got)
	}
	if b.Brownouts() != 1 {
		t.Fatalf("brownout count = %d", b.Brownouts())
	}
}

// TestSetBrownoutCountsTransitionsOnce: repeated same-state calls are
// no-ops; only a false→true edge counts.
func TestSetBrownoutCountsTransitionsOnce(t *testing.T) {
	b := mustNew(t, 0.5)
	for i := 0; i < 5; i++ {
		b.SetBrownout(true)
	}
	b.SetBrownout(false)
	b.SetBrownout(false)
	b.SetBrownout(true)
	if b.Brownouts() != 2 {
		t.Fatalf("brownouts = %d, want 2", b.Brownouts())
	}
}

// TestBrownoutMetricLazilyRegistered: the brownout counter must not
// exist in fault-free snapshots (which would change golden outputs) and
// must appear with the right count after the first transition.
func TestBrownoutMetricLazilyRegistered(t *testing.T) {
	m := obs.NewRegistry()
	b := mustNew(t, 0.5)
	b.Instrument(m, nil, func() time.Time { return t0 })
	b.Discharge(2, time.Minute)
	for _, c := range m.Snapshot().Counters {
		if c.Name == MetricBrownouts {
			t.Fatal("brownout counter registered before any brownout")
		}
	}
	b.SetBrownout(true)
	b.SetBrownout(false)
	b.SetBrownout(true)
	found := false
	for _, c := range m.Snapshot().Counters {
		if c.Name == MetricBrownouts {
			found = true
			if c.Value != 2 {
				t.Fatalf("brownout counter = %g, want 2", c.Value)
			}
		}
	}
	if !found {
		t.Fatal("brownout counter missing after brownouts")
	}
}
