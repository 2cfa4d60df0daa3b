package ledger

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestAuditConservation is the auditor's table: a balanced hive passes,
// a deliberately lossy battery (its discharge loss never reported) is
// attributed to the store, and a double-counted routine probe is
// attributed to the over-counted component.
func TestAuditConservation(t *testing.T) {
	base := func() *Ledger {
		l := New()
		l.Append(entry(0, "h1", "battery", "pack", "charge", Harvest, 100))
		l.Append(entry(1, "h1", "edge", "pi3b", "Data collection routine", Consume, 60))
		l.Append(entry(2, "h1", "monitor", "pi-zero", "monitor", Consume, 20))
		l.Append(entry(3, "h1", "battery", "pack", "discharge loss", StoreLoss, 8))
		l.SetStore("h1", "battery", 50, 62) // delta +12 = 100 − 80 − 8
		return l
	}

	cases := []struct {
		name    string
		mutate  func(*Ledger)
		wantOK  bool
		suspect string
		sign    int // sign of the expected residual
	}{
		{
			name:   "balanced books pass",
			mutate: func(*Ledger) {},
			wantOK: true,
		},
		{
			name: "lossy battery config with unreported loss",
			mutate: func(l *Ledger) {
				// The pack actually lost 8 J more than its probe said:
				// the stored energy ends lower than the books explain.
				l.SetStore("h1", "battery", 50, 54)
			},
			wantOK:  false,
			suspect: "battery",
			sign:    +1,
		},
		{
			name: "double-counted routine probe",
			mutate: func(l *Ledger) {
				l.Append(entry(4, "h1", "edge", "pi3b", "Data collection routine", Consume, 60))
			},
			wantOK:  false,
			suspect: "pi3b",
			sign:    -1,
		},
		{
			name: "store registered with flows missing entirely",
			mutate: func(l *Ledger) {
				l.SetStore("h2", "battery", 10, 40)
			},
			wantOK:  false,
			suspect: "battery",
			sign:    -1,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := base()
			tc.mutate(l)
			rep := Audit(l, DefaultTolerance())
			if rep.OK() != tc.wantOK {
				t.Fatalf("OK = %v, want %v (%v)", rep.OK(), tc.wantOK, rep.Violations)
			}
			if tc.wantOK {
				if rep.StoresChecked == 0 || rep.EntriesAudited == 0 {
					t.Fatalf("clean audit checked nothing: %+v", rep)
				}
				return
			}
			if len(rep.Violations) != 1 {
				t.Fatalf("violations = %d, want 1: %v", len(rep.Violations), rep.Violations)
			}
			v := rep.Violations[0]
			if v.Suspect != tc.suspect {
				t.Fatalf("suspect = %q, want %q (%v)", v.Suspect, tc.suspect, v)
			}
			if tc.sign > 0 && v.ResidualJ <= 0 || tc.sign < 0 && v.ResidualJ >= 0 {
				t.Fatalf("residual sign = %v, want sign %d", v.ResidualJ, tc.sign)
			}
		})
	}
}

func TestAuditViolationNamesHive(t *testing.T) {
	l := New()
	l.Append(entry(0, "lyon-3", "battery", "pack", "charge", Harvest, 10))
	l.SetStore("lyon-3", "battery", 0, 0)
	rep := Audit(l, DefaultTolerance())
	if rep.OK() {
		t.Fatal("10 harvested joules vanished; audit should fail")
	}
	v := rep.Violations[0]
	if v.Hive != "lyon-3" || v.Store != "battery" {
		t.Fatalf("violation attribution = %+v", v)
	}
}

func TestAuditToleranceAbsorbsFloatDrift(t *testing.T) {
	l := New()
	var consumed float64
	// A megajoule of tiny flows: accumulation error stays far under the
	// relative tolerance.
	for i := 0; i < 10000; i++ {
		l.Append(entry(i, "h", "edge", "pi3b", "Sleep", Consume, 100.0001))
		consumed += 100.0001
	}
	l.Append(entry(10001, "h", "battery", "pack", "charge", Harvest, 2e6))
	l.SetStore("h", "battery", 0, 2e6-consumed)
	if rep := Audit(l, DefaultTolerance()); !rep.OK() {
		t.Fatalf("drift-scale residual flagged: %v", rep.Violations)
	}
	// A zero-tolerance audit of a 1 J hole must still fire.
	l.SetStore("h", "battery", 0, 2e6-consumed-1)
	if rep := Audit(l, Tolerance{}); rep.OK() {
		t.Fatal("1 J hole passed a zero tolerance")
	}
}

func TestAuditIgnoresAttributionOnlyEntries(t *testing.T) {
	l := New()
	l.Append(entry(0, "h", "battery", "pack", "charge", Harvest, 50))
	l.Append(entry(1, "h", "edge", "pi3b", "routine", Consume, 50))
	// Radio overlay: already inside the routine's power envelope, so it
	// carries no store and must not double-count.
	l.Append(Entry{T: t0, Hive: "h", Device: "edge", Component: "radio",
		Task: "uplink transfer", Dir: Consume, Joules: 7})
	l.SetStore("h", "battery", 100, 100)
	rep := Audit(l, DefaultTolerance())
	if !rep.OK() {
		t.Fatalf("attribution overlay double-counted: %v", rep.Violations)
	}
	if rep.AttributionOnly != 1 {
		t.Fatalf("AttributionOnly = %d, want 1", rep.AttributionOnly)
	}
}

func TestAuditNaNIsViolation(t *testing.T) {
	l := New()
	l.Append(entry(0, "h", "battery", "pack", "charge", Harvest, math.NaN()))
	l.SetStore("h", "battery", 0, 0)
	if rep := Audit(l, DefaultTolerance()); rep.OK() {
		t.Fatal("NaN joules audited clean")
	}
}

// TestAuditTripFiresFlightRecorder: a failed audit on an armed ring
// dumps the retained window, exactly like a battery cutoff would.
func TestAuditTripFiresFlightRecorder(t *testing.T) {
	l, err := NewRing(4)
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	l.AutoDump(&dump)
	l.Append(entry(0, "h", "edge", "pi3b", "Sleep", Consume, 10))
	l.SetStore("h", "battery", 100, 100) // 10 J vanished

	rep, tripErr := AuditTrip(l, DefaultTolerance())
	if tripErr != nil {
		t.Fatal(tripErr)
	}
	if rep.OK() {
		t.Fatal("unbalanced ledger audited clean")
	}
	if l.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", l.Trips())
	}
	out := dump.String()
	if !strings.Contains(out, `"k":"trip"`) || !strings.Contains(out, "violation") {
		t.Fatalf("dump missing trip header: %s", out)
	}
	if !strings.Contains(out, `"task":"Sleep"`) {
		t.Fatalf("dump missing retained entry: %s", out)
	}

	// A clean ledger must not trip.
	clean := New()
	clean.Append(entry(0, "h", "battery", "pack", "charge", Harvest, 10))
	clean.SetStore("h", "battery", 0, 10)
	if rep, err := AuditTrip(clean, DefaultTolerance()); err != nil || !rep.OK() {
		t.Fatalf("clean audit: rep=%v err=%v", rep, err)
	}
	if clean.Trips() != 0 {
		t.Fatalf("clean ledger tripped %d time(s)", clean.Trips())
	}
}

// TestAuditVerdict: the verdict prints the summary and every violation
// under it, and fails with the violation count; a clean audit prints
// only the summary.
func TestAuditVerdict(t *testing.T) {
	l := New()
	l.Append(entry(0, "h1", "battery", "pack", "charge", Harvest, 10))
	l.Append(entry(1, "h2", "edge", "pi3b", "Sleep", Consume, 10))
	l.SetStore("h1", "battery", 0, 0) // 10 J harvested, never stored
	l.SetStore("h2", "battery", 0, 0) // 10 J consumed from nowhere
	var buf bytes.Buffer
	err := Audit(l, DefaultTolerance()).Verdict(&buf, "> ")
	if err == nil || err.Error() != "conservation audit failed with 2 violation(s)" {
		t.Fatalf("err = %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want summary + 2 violations, got:\n%s", buf.String())
	}
	if lines[0] != "> conservation audit: 2 violation(s) over 2 store(s)" {
		t.Fatalf("summary = %q", lines[0])
	}
	for i, hive := range []string{"h1", "h2"} {
		if want := `>   hive "` + hive + `" store "battery"`; !strings.HasPrefix(lines[i+1], want) {
			t.Fatalf("violation line %d = %q, want prefix %q", i, lines[i+1], want)
		}
	}

	buf.Reset()
	l.SetStore("h1", "battery", 0, 10)
	l.SetStore("h2", "battery", 10, 0)
	if err := Audit(l, DefaultTolerance()).Verdict(&buf, ""); err != nil {
		t.Fatalf("balanced books: %v", err)
	}
	if got := buf.String(); got != "conservation audit: ok (2 store(s), 2 entries balanced, 0 attribution-only)\n" {
		t.Fatalf("clean verdict = %q", got)
	}
}
