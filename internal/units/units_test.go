package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPowerEnergyRoundTrip(t *testing.T) {
	p := Watts(2.14)
	d := 89 * time.Second
	e := p.Energy(d)
	if !almostEq(float64(e), 190.46, 0.01) {
		t.Fatalf("energy = %v, want ~190.46 J", float64(e))
	}
	back := e.Power(d)
	if !almostEq(float64(back), float64(p), 1e-9) {
		t.Fatalf("round trip power = %v, want %v", back, p)
	}
}

func TestJoulesDuration(t *testing.T) {
	e := Joules(190.1)
	p := Watts(2.14)
	d := e.Duration(p)
	if !almostEq(d.Seconds(), 88.83, 0.01) {
		t.Fatalf("duration = %v, want ~88.83 s", d.Seconds())
	}
}

func TestDurationZeroPower(t *testing.T) {
	if d := Joules(100).Duration(0); d != 0 {
		t.Fatalf("duration at zero power = %v, want 0", d)
	}
	if d := Joules(100).Duration(-5); d != 0 {
		t.Fatalf("duration at negative power = %v, want 0", d)
	}
}

func TestPowerZeroDuration(t *testing.T) {
	if p := Joules(100).Power(0); p != 0 {
		t.Fatalf("power over zero duration = %v, want 0", p)
	}
}

func TestWattHoursConversion(t *testing.T) {
	e := Joules(3600)
	if wh := e.WattHours(); !almostEq(float64(wh), 1, 1e-12) {
		t.Fatalf("3600 J = %v Wh, want 1", wh)
	}
	if j := WattHours(2).Joules(); !almostEq(float64(j), 7200, 1e-9) {
		t.Fatalf("2 Wh = %v J, want 7200", j)
	}
}

func TestHumidityClamp(t *testing.T) {
	cases := []struct{ in, want RelativeHumidity }{
		{-0.5, 0}, {0, 0}, {0.42, 0.42}, {1, 1}, {1.7, 1},
	}
	for _, c := range cases {
		if got := c.in.Clamp(); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Joules(190.1).String(), "190.1 J"},
		{Joules(13744.3).String(), "13.74 kJ"},
		{Joules(2.5e6).String(), "2.50 MJ"},
		{Watts(0.62).String(), "620 mW"},
		{Watts(2.14).String(), "2.14 W"},
		{Watts(4400).String(), "4.40 kW"},
		{WattHours(74).String(), "74.00 Wh"},
		{Celsius(35.1).String(), "35.1 °C"},
		{RelativeHumidity(0.55).String(), "55 %"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestPropertyEnergyAdditive(t *testing.T) {
	// Energy over a split interval equals the sum of the parts.
	f := func(pw uint16, d1, d2 uint32) bool {
		p := Watts(float64(pw) / 100)
		a := time.Duration(d1) * time.Millisecond
		b := time.Duration(d2) * time.Millisecond
		whole := p.Energy(a + b)
		split := p.Energy(a) + p.Energy(b)
		return almostEq(float64(whole), float64(split), 1e-6*math.Max(1, float64(whole)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPowerEnergyInverse(t *testing.T) {
	f := func(pw uint16, ds uint16) bool {
		if ds == 0 {
			return true
		}
		p := Watts(float64(pw)/50 + 0.01)
		d := time.Duration(ds) * time.Second
		return almostEq(float64(p.Energy(d).Power(d)), float64(p), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
