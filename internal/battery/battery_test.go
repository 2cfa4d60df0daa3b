package battery

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/rng"
	"beesim/internal/units"
)

var t0 = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func mustNew(t *testing.T, soc float64) *Battery {
	t.Helper()
	b, err := New(DefaultConfig(), soc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Capacity: 0, ChargeEfficiency: 0.9, DischargeEfficiency: 0.9, ReconnectFraction: 0.1, CutoffFraction: 0.05},
		{Capacity: 74, ChargeEfficiency: 0, DischargeEfficiency: 0.9, ReconnectFraction: 0.1, CutoffFraction: 0.05},
		{Capacity: 74, ChargeEfficiency: 0.9, DischargeEfficiency: 1.5, ReconnectFraction: 0.1, CutoffFraction: 0.05},
		{Capacity: 74, ChargeEfficiency: 0.9, DischargeEfficiency: 0.9, ReconnectFraction: 0.01, CutoffFraction: 0.05},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, 0.5); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(DefaultConfig(), -0.1); err == nil {
		t.Error("negative SoC accepted")
	}
	if _, err := New(DefaultConfig(), 1.1); err == nil {
		t.Error("SoC > 1 accepted")
	}
}

func TestChargeStoresWithEfficiency(t *testing.T) {
	b := mustNew(t, 0.5)
	stored := b.Charge(10, time.Hour) // 10 W * 1 h = 36 kJ in
	want := 36000.0 * 0.92
	if math.Abs(float64(stored)-want) > 1e-6 {
		t.Fatalf("stored = %v, want %v", stored, want)
	}
}

func TestChargeCurtailedAtConverterLimit(t *testing.T) {
	b := mustNew(t, 0.1)
	stored := b.Charge(100, time.Hour) // converter clips to 15 W
	want := 15.0 * 3600 * 0.92
	if math.Abs(float64(stored)-want) > 1e-6 {
		t.Fatalf("stored = %v, want %v (clipped)", stored, want)
	}
}

func TestChargeStopsAtCapacity(t *testing.T) {
	b := mustNew(t, 0.99)
	b.Charge(15, 10*time.Hour)
	if soc := b.SoC(); soc > 1+1e-12 {
		t.Fatalf("SoC = %v, exceeded capacity", soc)
	}
	if math.Abs(b.SoC()-1) > 1e-9 {
		t.Fatalf("SoC = %v, want full", b.SoC())
	}
}

func TestDischargeFullInterval(t *testing.T) {
	b := mustNew(t, 0.8)
	got := b.Discharge(2, time.Hour)
	if got != time.Hour {
		t.Fatalf("sustained = %v, want full hour", got)
	}
	// 2 W over 1 h at 90% discharge efficiency drains 8000 J of storage.
	drained := 74*3600*0.8 - float64(b.Stored().Joules())
	if math.Abs(drained-8000) > 1 {
		t.Fatalf("drained = %v J, want 8000", drained)
	}
}

func TestDischargeHitsCutoff(t *testing.T) {
	b := mustNew(t, 0.06) // just above the 5% cutoff
	got := b.Discharge(10, 24*time.Hour)
	if got >= 24*time.Hour {
		t.Fatal("discharge did not cut off")
	}
	if b.LoadConnected() {
		t.Fatal("load still connected after cutoff")
	}
	if b.cutoffs != 1 {
		t.Fatalf("cutoffs = %d, want 1", b.cutoffs)
	}
	// Further discharge is refused.
	if b.Discharge(1, time.Hour) != 0 {
		t.Fatal("discharge while disconnected returned time")
	}
}

func TestReconnectHysteresis(t *testing.T) {
	b := mustNew(t, 0.06)
	b.Discharge(10, 24*time.Hour) // force cutoff
	// Small charge: above cutoff but below reconnect threshold.
	b.Charge(1, 10*time.Minute)
	if b.LoadConnected() && b.SoC() < 0.10 {
		t.Fatal("load reconnected below hysteresis threshold")
	}
	// Morning sun: charge well past the reconnect fraction.
	b.Charge(15, 2*time.Hour)
	if !b.LoadConnected() {
		t.Fatalf("load did not reconnect at SoC %v", b.SoC())
	}
}

func TestZeroAndNegativeInputs(t *testing.T) {
	b := mustNew(t, 0.5)
	if b.Charge(0, time.Hour) != 0 || b.Charge(-5, time.Hour) != 0 {
		t.Fatal("non-positive power charged")
	}
	if b.Charge(5, 0) != 0 {
		t.Fatal("zero duration charged")
	}
	if b.Discharge(0, time.Hour) != 0 || b.Discharge(2, -time.Second) != 0 {
		t.Fatal("degenerate discharge returned time")
	}
}

func TestTotalsAccounting(t *testing.T) {
	b := mustNew(t, 0.5)
	b.Charge(10, time.Hour)
	b.Discharge(2, time.Hour)
	in, out := b.totalIn, b.totalOut
	if in <= 0 || out <= 0 {
		t.Fatalf("totals = %v, %v, want positive", in, out)
	}
	if math.Abs(float64(out)-7200) > 1e-6 {
		t.Fatalf("delivered = %v, want 7200 J", out)
	}
}

func TestPropertySoCBounded(t *testing.T) {
	// Whatever sequence of charges and discharges happens, SoC stays in
	// [0, 1] and stored energy is conserved within efficiency losses.
	f := func(seed uint64, steps uint8) bool {
		b, err := New(DefaultConfig(), 0.5)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		for i := 0; i < int(steps); i++ {
			p := units.Watts(r.Range(0, 20))
			d := time.Duration(r.Range(1, 3600)) * time.Second
			if r.Float64() < 0.5 {
				b.Charge(p, d)
			} else {
				b.Discharge(p, d)
			}
			if s := b.SoC(); s < -1e-9 || s > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDischargeNeverBelowCutoffFloor(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed uint64, steps uint8) bool {
		b, err := New(cfg, 0.3)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		for i := 0; i < int(steps); i++ {
			b.Discharge(units.Watts(r.Range(0.1, 30)), time.Duration(r.Range(1, 7200))*time.Second)
			if b.SoC() < cfg.CutoffFraction-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDayNightCycleSurvival(t *testing.T) {
	// A beehive drawing ~1.2 W continuously with 8 h of decent sun per day
	// must survive indefinitely on the deployed pack; verify over a week.
	b := mustNew(t, 0.8)
	for day := 0; day < 7; day++ {
		for h := 0; h < 24; h++ {
			if h >= 9 && h < 17 {
				b.Charge(12, time.Hour)
			}
			if got := b.Discharge(1.2, time.Hour); got < time.Hour && b.LoadConnected() {
				t.Fatalf("day %d hour %d: load shed with connected pack", day, h)
			}
		}
	}
	if b.cutoffs != 0 {
		t.Fatalf("pack cut off %d times in a balanced week", b.cutoffs)
	}
}

// TestSnapshotReconcilesWithLedger drives a week of charge/discharge
// with the ledger attached and checks two books against each other: the
// pack's own lifetime counters (its totalIn/totalOut fields) and the
// ledger's conservation audit. totalIn must equal the sum of harvest entries,
// the discharge losses must equal totalOut's efficiency shortfall, and
// with a synthetic consume entry for the delivered energy the audit
// balances to zero violations.
func TestSnapshotReconcilesWithLedger(t *testing.T) {
	b := mustNew(t, 0.5)
	lg := ledger.New()
	now := t0
	clock := func() time.Time { return now }
	b.AttachLedger(lg, "cachan-1", clock)
	initialJ := float64(b.Stored().Joules())

	var deliveredJ float64
	for day := 0; day < 7; day++ {
		for h := 0; h < 24; h++ {
			now = now.Add(time.Hour)
			if h >= 9 && h < 17 {
				b.Charge(12, time.Hour)
			}
			sustained := b.Discharge(1.2, time.Hour)
			deliveredJ += float64(units.Watts(1.2).Energy(sustained))
		}
	}

	in, out := b.totalIn, b.totalOut
	if math.Abs(float64(out)-deliveredJ) > 1e-6 {
		t.Fatalf("totalOut %v J, delivered per-interval sum %v J", out, deliveredJ)
	}

	var harvestJ, lossJ float64
	for _, e := range lg.Entries() {
		switch e.Dir {
		case ledger.Harvest:
			harvestJ += e.Joules
		case ledger.StoreLoss:
			lossJ += e.Joules
		}
	}
	if math.Abs(harvestJ-float64(in)) > 1e-6 {
		t.Fatalf("ledger harvest %v J, pack totalIn %v J", harvestJ, in)
	}
	// Loss is the gap between energy removed from the pack and energy
	// delivered: removed = out/eff, loss = removed − out.
	wantLoss := float64(out)/DefaultConfig().DischargeEfficiency - float64(out)
	if math.Abs(lossJ-wantLoss) > 1e-6 {
		t.Fatalf("ledger loss %v J, want %v J", lossJ, wantLoss)
	}

	// Close the books: attribute the delivered energy to the load and
	// register the observed delta. Conservation must hold exactly.
	lg.Append(ledger.Entry{T: now, Hive: "cachan-1", Device: "edge",
		Component: "pi3b", Task: "load", Dir: ledger.Consume,
		Joules: deliveredJ, Store: "battery"})
	lg.SetStore("cachan-1", "battery", initialJ, float64(b.Stored().Joules()))
	if rep := ledger.Audit(lg, ledger.DefaultTolerance()); !rep.OK() {
		t.Fatalf("battery books failed conservation: %v", rep.Violations)
	}
}

// TestLedgerTripsOnCutoff wires a flight-recorder ledger and drains the
// pack: the protection cutoff must trip the recorder and dump the
// retained entries.
func TestLedgerTripsOnCutoff(t *testing.T) {
	b := mustNew(t, 0.06)
	lg, err := ledger.NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	lg.AutoDump(&dump)
	b.AttachLedger(lg, "h", func() time.Time { return t0 })
	b.Discharge(10, 24*time.Hour)
	if lg.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", lg.Trips())
	}
	if !strings.Contains(dump.String(), "battery cutoff") {
		t.Fatalf("dump missing cutoff reason: %q", dump.String())
	}
	if b.dumpErrs != 0 {
		t.Fatalf("dump errors = %d, want 0", b.dumpErrs)
	}
}

// failWriter rejects every write, standing in for a full disk under
// the flight recorder.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestTripDumpErrorCounted arms the flight recorder with a writer that
// always fails: the cutoff must still open protection, and the failed
// dump must be counted — in the accessor and the metric — instead of
// vanishing.
func TestTripDumpErrorCounted(t *testing.T) {
	b := mustNew(t, 0.06)
	reg := obs.NewRegistry()
	b.Instrument(reg, nil, func() time.Time { return t0 })
	lg, err := ledger.NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	lg.AutoDump(failWriter{})
	b.AttachLedger(lg, "h", func() time.Time { return t0 })
	b.Discharge(10, 24*time.Hour)
	if b.cutoffs != 1 {
		t.Fatalf("cutoffs = %d, want 1", b.cutoffs)
	}
	if lg.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", lg.Trips())
	}
	if b.dumpErrs != 1 {
		t.Fatalf("dump errors = %d, want 1", b.dumpErrs)
	}
	if got := reg.Counter(MetricDumpErrs).Value(); got != 1 {
		t.Fatalf("%s = %v, want 1", MetricDumpErrs, got)
	}
}
