// Package swarm implements the catalog's swarm-prediction service: a
// queen preparing to swarm "pipes" — pulsed ~400 Hz tones over the
// colony hum — days before the event, and the paper lists swarm
// prediction among the tasks its Raspberry Pi can run.
//
// The detector is classical signal processing over the same STFT front
// end as queen detection: the piping band's energy fraction and its
// temporal pulsing give a per-clip piping score; a Predictor integrates
// scores and colony activity across cycles into a swarm-risk estimate
// with an alarm threshold.
package swarm

import (
	"errors"
	"math"
	"time"

	"beesim/internal/dsp"
)

// Piping parameters: queen toots center near 400 Hz.
const (
	bandLowHz  = 330.0
	bandHighHz = 480.0
)

// PipingScore measures how strongly a clip exhibits queen piping: the
// product of the piping band's mean energy fraction and its pulsing
// (coefficient of variation across frames), squashed into [0, 1].
func PipingScore(clip []float64, sampleRate int) (float64, error) {
	if sampleRate <= 0 {
		return 0, errors.New("swarm: non-positive sample rate")
	}
	if float64(sampleRate)/2 <= bandHighHz {
		return 0, errors.New("swarm: sample rate too low for the piping band")
	}
	cfg := dsp.PaperSTFT()
	if len(clip) < cfg.FFTSize {
		return 0, errors.New("swarm: clip shorter than one analysis window")
	}
	// The band reduction below reads whole frames, so ask the shared
	// plan for the frame-major power layout: one contiguous row per
	// frame instead of a column-strided walk over the bin-major matrix.
	plan, err := dsp.PlanFor(cfg, 0, 0)
	if err != nil {
		return 0, err
	}
	spec, err := plan.PowerFrames(clip)
	if err != nil {
		return 0, err
	}
	bins := spec.Cols
	loBin := int(bandLowHz * float64(cfg.FFTSize) / float64(sampleRate))
	hiBin := int(bandHighHz * float64(cfg.FFTSize) / float64(sampleRate))
	if hiBin >= bins {
		hiBin = bins - 1
	}
	if loBin >= hiBin {
		return 0, errors.New("swarm: sample rate too low for the piping band")
	}

	// Per-frame band fraction.
	fracs := make([]float64, spec.Rows)
	for f := 0; f < spec.Rows; f++ {
		row := spec.Data[f*bins : (f+1)*bins]
		var band, total float64
		for b := 1; b < bins; b++ {
			v := row[b]
			total += v
			if b >= loBin && b <= hiBin {
				band += v
			}
		}
		if total > 0 {
			fracs[f] = band / total
		}
	}
	var mean float64
	for _, v := range fracs {
		mean += v
	}
	mean /= float64(len(fracs))
	var variance float64
	for _, v := range fracs {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(fracs))
	cv := 0.0
	if mean > 0 {
		cv = math.Sqrt(variance) / mean
	}

	// The hive hum keeps a small, steady band fraction; piping raises the
	// fraction and pulses it. Scale to a [0,1] score.
	raw := mean * (0.5 + cv)
	score := raw / (raw + 0.05)
	return score, nil
}

// Observation is one cycle's inputs to the predictor.
type Observation struct {
	Time time.Time
	// Piping is the clip's PipingScore.
	Piping float64
	// Activity is the colony's entrance activity in [0, 1]; pre-swarm
	// colonies often show depressed foraging despite good weather.
	Activity float64
}

// PredictorConfig tunes the risk integrator.
type PredictorConfig struct {
	// HalfLife controls the exponential decay of accumulated evidence.
	HalfLife time.Duration
	// PipingWeight and ActivityWeight scale the evidence terms.
	PipingWeight   float64
	ActivityWeight float64
	// AlarmThreshold is the risk level that raises the swarm alarm.
	AlarmThreshold float64
}

// DefaultPredictor integrates over roughly two days of cycles.
func DefaultPredictor() PredictorConfig {
	return PredictorConfig{
		HalfLife:       36 * time.Hour,
		PipingWeight:   1.0,
		ActivityWeight: 0.3,
		AlarmThreshold: 0.5,
	}
}

// Predictor accumulates observations into a swarm-risk score.
type Predictor struct {
	cfg  PredictorConfig
	risk float64
	last time.Time
	seen bool
}

// NewPredictor creates a predictor.
func NewPredictor(cfg PredictorConfig) (*Predictor, error) {
	if cfg.HalfLife <= 0 {
		return nil, errors.New("swarm: non-positive half life")
	}
	if cfg.AlarmThreshold <= 0 || cfg.AlarmThreshold >= 1 {
		return nil, errors.New("swarm: alarm threshold out of (0,1)")
	}
	return &Predictor{cfg: cfg}, nil
}

// Observe folds one cycle in and returns the updated risk.
func (p *Predictor) Observe(ob Observation) float64 {
	if p.seen {
		if dt := ob.Time.Sub(p.last); dt > 0 {
			decay := math.Exp(-math.Ln2 * dt.Hours() / p.cfg.HalfLife.Hours())
			p.risk *= decay
		}
	}
	p.last = ob.Time
	p.seen = true

	evidence := p.cfg.PipingWeight * ob.Piping
	// Depressed daytime activity adds weak evidence.
	if ob.Activity < 0.4 {
		evidence += p.cfg.ActivityWeight * (0.4 - ob.Activity)
	}
	// Evidence moves risk toward 1 proportionally to its strength.
	gain := clamp(evidence*0.25, 0, 0.6)
	p.risk += (1 - p.risk) * gain
	return p.risk
}

// Alarm reports whether the risk exceeds the configured threshold.
func (p *Predictor) Alarm() bool { return p.risk >= p.cfg.AlarmThreshold }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
