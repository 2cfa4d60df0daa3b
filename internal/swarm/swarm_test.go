package swarm

import (
	"testing"
	"time"

	"beesim/internal/audio"
	"beesim/internal/hive"
)

func clips(t *testing.T, state hive.QueenState, n int, seed uint64) [][]float64 {
	t.Helper()
	s, err := audio.NewSynth(audio.Config{
		SampleRate: audio.SampleRate, Seconds: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = s.Clip(state, 0.6)
	}
	return out
}

func TestPipingScoreValidation(t *testing.T) {
	if _, err := PipingScore([]float64{0.1}, audio.SampleRate); err == nil {
		t.Error("short clip accepted")
	}
	long := make([]float64, 4096)
	if _, err := PipingScore(long, 0); err == nil {
		t.Error("zero sample rate accepted")
	}
	if _, err := PipingScore(long, 700); err == nil {
		t.Error("sample rate below the piping band accepted")
	}
}

func TestPipingScoreSeparatesStates(t *testing.T) {
	piping := clips(t, hive.QueenPiping, 5, 1)
	plain := clips(t, hive.QueenPresent, 5, 2)
	var pipingMean, plainMean float64
	for i := 0; i < 5; i++ {
		sp, err := PipingScore(piping[i], audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := PipingScore(plain[i], audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		pipingMean += sp
		plainMean += pl
	}
	pipingMean /= 5
	plainMean /= 5
	if pipingMean <= plainMean {
		t.Fatalf("piping score %v not above plain %v", pipingMean, plainMean)
	}
	if pipingMean < 0 || pipingMean > 1 || plainMean < 0 || plainMean > 1 {
		t.Fatalf("scores out of [0,1]: %v, %v", pipingMean, plainMean)
	}
}

func TestNewPredictorValidation(t *testing.T) {
	bad := DefaultPredictor()
	bad.HalfLife = 0
	if _, err := NewPredictor(bad); err == nil {
		t.Error("zero half life accepted")
	}
	bad = DefaultPredictor()
	bad.AlarmThreshold = 1.5
	if _, err := NewPredictor(bad); err == nil {
		t.Error("threshold > 1 accepted")
	}
}

func TestPredictorRisesWithPiping(t *testing.T) {
	p, err := NewPredictor(DefaultPredictor())
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2023, 5, 1, 8, 0, 0, 0, time.UTC)
	// A quiet week keeps risk low.
	for i := 0; i < 20; i++ {
		p.Observe(Observation{Time: t0.Add(time.Duration(i) * time.Hour), Piping: 0.05, Activity: 0.7})
	}
	if p.Alarm() {
		t.Fatalf("alarm on a quiet colony (risk %v)", p.risk)
	}
	quiet := p.risk
	// Then sustained piping with depressed activity.
	for i := 20; i < 40; i++ {
		p.Observe(Observation{Time: t0.Add(time.Duration(i) * time.Hour), Piping: 0.8, Activity: 0.2})
	}
	if p.risk <= quiet {
		t.Fatal("risk did not rise under piping evidence")
	}
	if !p.Alarm() {
		t.Fatalf("no alarm after sustained piping (risk %v)", p.risk)
	}
}

func TestPredictorDecays(t *testing.T) {
	p, err := NewPredictor(DefaultPredictor())
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2023, 5, 1, 8, 0, 0, 0, time.UTC)
	for i := 0; i < 30; i++ {
		p.Observe(Observation{Time: t0.Add(time.Duration(i) * time.Hour), Piping: 0.8, Activity: 0.2})
	}
	peak := p.risk
	// A quiet week decays the risk well below the alarm threshold.
	for i := 0; i < 14; i++ {
		p.Observe(Observation{
			Time: t0.Add(30*time.Hour + time.Duration(i)*12*time.Hour), Piping: 0.02, Activity: 0.8})
	}
	if p.risk >= peak/2 {
		t.Fatalf("risk %v did not decay from %v", p.risk, peak)
	}
}

func TestPredictorRiskBounded(t *testing.T) {
	p, err := NewPredictor(DefaultPredictor())
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2023, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 500; i++ {
		r := p.Observe(Observation{Time: t0.Add(time.Duration(i) * time.Minute), Piping: 1, Activity: 0})
		if r < 0 || r > 1 {
			t.Fatalf("risk %v escaped [0,1]", r)
		}
	}
}

func TestEndToEndPipingPipeline(t *testing.T) {
	// Full loop: synthesized piping audio -> score -> predictor alarm.
	p, err := NewPredictor(DefaultPredictor())
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2023, 5, 1, 8, 0, 0, 0, time.UTC)
	for i, clip := range clips(t, hive.QueenPiping, 8, 9) {
		score, err := PipingScore(clip, audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		p.Observe(Observation{Time: t0.Add(time.Duration(i) * time.Hour), Piping: score, Activity: 0.3})
	}
	if p.risk < 0.2 {
		t.Fatalf("risk after 8 piping clips = %v, want clearly elevated", p.risk)
	}
}
