package solar

import (
	"math"
	"testing"
	"time"

	"beesim/internal/ledger"
)

// Spring noon/midnight in Cachan, expressed in UTC (TZ offset +2).
var (
	noon     = time.Date(2023, 4, 15, 10, 0, 0, 0, time.UTC)
	midnight = time.Date(2023, 4, 15, 22, 0, 0, 0, time.UTC)
)

func TestDeclinationRange(t *testing.T) {
	for d := 1; d <= 365; d++ {
		decl := Declination(d) * 180 / math.Pi
		if decl < -23.46 || decl > 23.46 {
			t.Fatalf("declination day %d = %v°, out of ±23.45", d, decl)
		}
	}
	// Summer solstice ~ +23.45°, winter ~ -23.45°.
	if decl := Declination(172) * 180 / math.Pi; decl < 23.3 {
		t.Errorf("solstice declination = %v°, want ~23.45", decl)
	}
	if decl := Declination(355) * 180 / math.Pi; decl > -23.3 {
		t.Errorf("winter declination = %v°, want ~-23.45", decl)
	}
}

func TestElevationDayNight(t *testing.T) {
	if el := Elevation(Cachan, noon); el <= 0 {
		t.Fatalf("noon elevation = %v rad, want > 0", el)
	}
	if el := Elevation(Cachan, midnight); el >= 0 {
		t.Fatalf("midnight elevation = %v rad, want < 0", el)
	}
}

func TestElevationPeaksNearNoon(t *testing.T) {
	best := -1.0
	bestHour := -1
	for h := 0; h < 24; h++ {
		tt := time.Date(2023, 4, 15, h, 0, 0, 0, time.UTC)
		if el := Elevation(Cachan, tt); el > best {
			best = el
			bestHour = h
		}
	}
	// Solar noon for +2 civil offset at lon 2.33°E is close to 10:50 UTC.
	if bestHour < 9 || bestHour > 12 {
		t.Fatalf("peak elevation at %d UTC, want near 10-11", bestHour)
	}
}

func TestClearSkyIrradiance(t *testing.T) {
	irr := ClearSkyIrradiance(Cachan, noon)
	if irr < 500 || irr > 1100 {
		t.Fatalf("spring noon GHI = %v, want 500-1100 W/m²", irr)
	}
	if irr := ClearSkyIrradiance(Cachan, midnight); irr != 0 {
		t.Fatalf("midnight GHI = %v, want 0", irr)
	}
}

func TestLyonVsCachan(t *testing.T) {
	// Lyon is ~3° further south: higher sun at local solar noon.
	lyonNoon := time.Date(2023, 4, 15, 10, 40, 0, 0, time.UTC)
	if Elevation(Lyon, lyonNoon) <= Elevation(Cachan, noon)-0.2 {
		t.Fatal("Lyon noon sun unexpectedly much lower than Cachan")
	}
}

func TestCloudAttenuation(t *testing.T) {
	clear := Irradiance(Cachan, noon, 0)
	overcast := Irradiance(Cachan, noon, 1)
	if float64(overcast) >= float64(clear) {
		t.Fatal("full cloud cover did not attenuate")
	}
	ratio := float64(overcast) / float64(clear)
	if math.Abs(ratio-0.25) > 0.01 {
		t.Fatalf("overcast ratio = %v, want 0.25 (Kasten-Czeplak)", ratio)
	}
	// Cover outside [0,1] is clamped.
	if Irradiance(Cachan, noon, -3) != clear {
		t.Fatal("negative cover not clamped")
	}
	if Irradiance(Cachan, noon, 7) != overcast {
		t.Fatal("cover > 1 not clamped")
	}
}

func TestPanelOutput(t *testing.T) {
	p := DefaultPanel()
	out, ok := p.Output(1000)
	if !ok {
		t.Fatal("full sun reported unstable")
	}
	if math.Abs(float64(out)-27) > 1e-9 { // 30 W * 0.90
		t.Fatalf("full-sun output = %v, want 27 W", out)
	}
	half, ok := p.Output(500)
	if !ok || math.Abs(float64(half)-13.5) > 1e-9 {
		t.Fatalf("half-sun output = %v (%v), want 13.5 W", half, ok)
	}
}

func TestPanelBrownout(t *testing.T) {
	p := DefaultPanel()
	out, ok := p.Output(10) // below the 30 W/m² threshold
	if ok || out != 0 {
		t.Fatalf("below threshold: output = %v stable = %v, want 0, false", out, ok)
	}
}

func TestPanelClampsAtRated(t *testing.T) {
	p := DefaultPanel()
	out, _ := p.Output(1500)
	if math.Abs(float64(out)-27) > 1e-9 {
		t.Fatalf("over-irradiance output = %v, want clamp at 27 W", out)
	}
}

func TestDaylight(t *testing.T) {
	if Elevation(Cachan, noon) <= 0 {
		t.Fatal("noon reported as night")
	}
	if Elevation(Cachan, midnight) > 0 {
		t.Fatal("midnight reported as day")
	}
}

func TestDaylightHoursSpring(t *testing.T) {
	// Mid-April at 48.8°N has roughly 13-14 daylight hours.
	hours := 0
	for h := 0; h < 24; h++ {
		tt := time.Date(2023, 4, 15, h, 30, 0, 0, time.UTC)
		if Elevation(Cachan, tt) > 0 {
			hours++
		}
	}
	if hours < 12 || hours > 15 {
		t.Fatalf("daylight hours = %d, want 12-15 in mid-April", hours)
	}
}

func TestIrradianceContinuityAcrossDays(t *testing.T) {
	// The model must not jump discontinuously at midnight rollovers.
	a := ClearSkyIrradiance(Cachan, time.Date(2023, 4, 15, 23, 59, 0, 0, time.UTC))
	b := ClearSkyIrradiance(Cachan, time.Date(2023, 4, 16, 0, 1, 0, 0, time.UTC))
	if a != 0 || b != 0 {
		t.Fatalf("irradiance around midnight = %v, %v, want 0, 0", a, b)
	}
}

func TestMeterRecordsAttributionOnly(t *testing.T) {
	lg := ledger.New()
	m := NewMeter(lg, "cachan-1")
	at := time.Date(2023, 4, 10, 12, 0, 0, 0, time.UTC)
	m.Record(at, 20, time.Minute)
	m.Record(at, 0, time.Minute) // night: skipped
	m.Record(at, 20, 0)          // degenerate: skipped
	entries := lg.Entries()
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Dir != ledger.Harvest || e.Store != "" || e.Joules != 20*60 {
		t.Fatalf("entry = %+v", e)
	}
	// Attribution-only entries never disturb conservation.
	if rep := ledger.Audit(lg, ledger.DefaultTolerance()); !rep.OK() {
		t.Fatalf("panel overlay entered the balance: %v", rep.Violations)
	}

	// Nil-safe: a nil meter (or nil ledger) records nothing.
	var nilM *Meter
	nilM.Record(at, 20, time.Minute)
	if NewMeter(nil, "h") != nil {
		t.Fatal("NewMeter(nil) should return the no-op nil meter")
	}
}
