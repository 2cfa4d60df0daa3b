package sensors

import (
	"math"
	"testing"
	"time"

	"beesim/internal/hive"
	"beesim/internal/stats"
)

var t0 = time.Date(2023, 4, 15, 12, 0, 0, 0, time.UTC)

func hiveState() hive.State {
	return hive.State{
		Time:           t0,
		InsideTemp:     34.5,
		InsideHumidity: 0.60,
		Activity:       0.8,
		Queen:          hive.QueenPresent,
	}
}

func TestSHT31Accuracy(t *testing.T) {
	s := NewSHT31(1)
	var temps, rhs stats.Online
	for i := 0; i < 5000; i++ {
		temp, rh := s.Read(t0, hiveState())
		temps.Add(temp.Value)
		rhs.Add(rh.Value)
	}
	if math.Abs(temps.Mean()-34.5) > 0.02 {
		t.Fatalf("temp mean = %v, want ~34.5", temps.Mean())
	}
	if temps.StdDev() > float64(0.2) {
		t.Fatalf("temp noise sigma = %v, want within datasheet 0.2", temps.StdDev())
	}
	if math.Abs(rhs.Mean()-0.60) > 0.002 {
		t.Fatalf("RH mean = %v, want ~0.60", rhs.Mean())
	}
}

func TestSHT31UnitLabels(t *testing.T) {
	s := NewSHT31(1)
	temp, rh := s.Read(t0, hiveState())
	if temp.Unit != "C" || rh.Unit != "RH" {
		t.Fatalf("units = %q/%q", temp.Unit, rh.Unit)
	}
	if !temp.Time.Equal(t0) {
		t.Fatal("timestamp not propagated")
	}
}

func TestSHT31RHClamped(t *testing.T) {
	s := NewSHT31(2)
	st := hiveState()
	st.InsideHumidity = 1.0
	for i := 0; i < 1000; i++ {
		if _, rh := s.Read(t0, st); rh.Value > 1 || rh.Value < 0 {
			t.Fatalf("RH %v escaped [0,1]", rh.Value)
		}
	}
}
