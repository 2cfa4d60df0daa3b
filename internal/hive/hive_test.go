package hive

import (
	"testing"
	"time"

	"beesim/internal/solar"
	"beesim/internal/weather"
)

func sampleAt(t *testing.T, hour int, cloud float64) weather.Sample {
	t.Helper()
	tt := time.Date(2023, 4, 15, hour, 0, 0, 0, time.UTC)
	return weather.Sample{
		Time:        tt,
		Temperature: 15,
		Humidity:    0.7,
		CloudCover:  cloud,
		Irradiance:  solar.Irradiance(solar.Cachan, tt, cloud),
	}
}

func TestFullColonyHoldsBroodTemperature(t *testing.T) {
	c := New(DefaultConfig())
	s := c.StateAt(sampleAt(t, 12, 0.2))
	if s.InsideTemp < 30 || s.InsideTemp > 36 {
		t.Fatalf("inside temp = %v, want near 35 °C for a full colony", s.InsideTemp)
	}
}

func TestEmptyHiveTracksAmbient(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Population = 0
	c := New(cfg)
	w := sampleAt(t, 12, 0.2)
	s := c.StateAt(w)
	if diff := float64(s.InsideTemp) - float64(w.Temperature); diff > 1.5 || diff < -1.5 {
		t.Fatalf("empty hive inside %v vs outside %v, want near-equal", s.InsideTemp, w.Temperature)
	}
	if s.Activity != 0 {
		t.Fatalf("empty hive activity = %v, want 0", s.Activity)
	}
}

func TestRegulationScalesWithPopulation(t *testing.T) {
	w := sampleAt(t, 12, 0.2)
	prev := -1.0
	for _, pop := range []int{0, 5000, 20000, 60000} {
		cfg := DefaultConfig()
		cfg.Population = pop
		cfg.Seed = 7
		s := New(cfg).StateAt(w)
		if float64(s.InsideTemp) < prev-0.5 {
			t.Fatalf("inside temp not monotone with population at %d bees", pop)
		}
		prev = float64(s.InsideTemp)
	}
}

func TestColdSnapStillRegulated(t *testing.T) {
	c := New(DefaultConfig())
	w := sampleAt(t, 12, 0.8)
	w.Temperature = -5
	s := c.StateAt(w)
	if s.InsideTemp < 25 {
		t.Fatalf("inside temp = %v in a cold snap, colony should defend the nest", s.InsideTemp)
	}
}

func TestHumidityBandForActiveColony(t *testing.T) {
	c := New(DefaultConfig())
	for hour := 0; hour < 24; hour++ {
		s := c.StateAt(sampleAt(t, hour, 0.4))
		if s.InsideHumidity < 0.4 || s.InsideHumidity > 0.8 {
			t.Fatalf("hour %d: in-hive RH = %v, want 40-80%%", hour, s.InsideHumidity)
		}
	}
}

func TestActivityDiurnal(t *testing.T) {
	c := New(DefaultConfig())
	day := c.StateAt(sampleAt(t, 12, 0.1))
	night := c.StateAt(sampleAt(t, 23, 0.1))
	if day.Activity <= night.Activity {
		t.Fatalf("day activity %v not above night %v", day.Activity, night.Activity)
	}
	if night.Activity > 0.15 {
		t.Fatalf("night activity = %v, want near zero", night.Activity)
	}
}

func TestActivityColdSuppression(t *testing.T) {
	c := New(DefaultConfig())
	warm := sampleAt(t, 12, 0.1)
	cold := sampleAt(t, 12, 0.1)
	cold.Temperature = 2
	if a, b := c.StateAt(warm).Activity, c.StateAt(cold).Activity; b >= a {
		t.Fatalf("cold day activity %v not below warm day %v", b, a)
	}
}

func TestQueenStateString(t *testing.T) {
	cases := map[QueenState]string{
		QueenPresent:  "queen present",
		QueenLost:     "queenless",
		QueenPiping:   "queen piping",
		QueenState(9): "unknown",
	}
	for q, want := range cases {
		if got := q.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", q, got, want)
		}
	}
}

func TestSetQueenPropagates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Queen = QueenLost
	c := New(cfg)
	s := c.StateAt(sampleAt(t, 12, 0.2))
	if s.Queen != QueenLost {
		t.Fatal("state does not carry queen state")
	}
}

func TestQueenlessNightAcousticFloor(t *testing.T) {
	// A queenless colony roars even with no foraging: activity floor > 0.
	cfg := DefaultConfig()
	cfg.Queen = QueenLost
	c := New(cfg)
	s := c.StateAt(sampleAt(t, 23, 0.1))
	if s.Activity < 0.15 {
		t.Fatalf("queenless night activity = %v, want >= 0.15 (roar)", s.Activity)
	}
}

func TestActivityBounds(t *testing.T) {
	c := New(DefaultConfig())
	for hour := 0; hour < 24; hour++ {
		for _, cloud := range []float64{0, 0.5, 1} {
			if a := c.StateAt(sampleAt(t, hour, cloud)).Activity; a < 0 || a > 1 {
				t.Fatalf("activity %v out of [0,1]", a)
			}
		}
	}
}
