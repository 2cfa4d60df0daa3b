// Package hive models the biological side of a smart beehive: colony
// thermoregulation, in-hive humidity, foraging activity and queen state.
//
// The paper's sensors sit on the queen excluder inside the hive; the
// in-hive temperature and humidity they report (Figure 2) and the queen
// presence the audio classifier predicts (Section V) both come from the
// colony, so a reproduction needs a colony to measure. The model captures
// the well-established empirical facts the paper leans on: a populous
// colony holds its brood nest near 35 °C regardless of weather, an empty
// or weak hive tracks ambient (the paper notes "abnormally low inside
// temperature" before the colony was introduced), and the hive soundscape
// changes measurably when the queen is lost.
package hive

import (
	"math"
	"time"

	"beesim/internal/rng"
	"beesim/internal/units"
	"beesim/internal/weather"
)

// QueenState is the queen-related condition of the colony, the label the
// paper's classifiers predict from sound.
type QueenState int

// Queen states.
const (
	// QueenPresent: a laying queen is in the hive; the colony hum is calm.
	QueenPresent QueenState = iota
	// QueenLost: the colony is queenless; workers produce the
	// characteristic broadband "roar".
	QueenLost
	// QueenPiping: a virgin queen is piping (pre-swarm signal).
	QueenPiping
)

// String returns a human-readable queen state.
func (q QueenState) String() string {
	switch q {
	case QueenPresent:
		return "queen present"
	case QueenLost:
		return "queenless"
	case QueenPiping:
		return "queen piping"
	default:
		return "unknown"
	}
}

// Config shapes a colony.
type Config struct {
	// Population is the number of adult workers. A full summer colony is
	// ~40 000; 0 models the empty hive at the start of Figure 2a.
	Population int
	// BroodTarget is the temperature the colony defends in the brood nest.
	BroodTarget units.Celsius
	// Queen is the initial queen state.
	Queen QueenState
	// Seed drives the stochastic components (activity jitter).
	Seed uint64
}

// DefaultConfig is a healthy mid-season colony.
func DefaultConfig() Config {
	return Config{
		Population:  40000,
		BroodTarget: 35,
		Queen:       QueenPresent,
		Seed:        1,
	}
}

// State is the observable condition of the hive at one instant, the
// ground truth that the sensor models sample.
type State struct {
	Time time.Time
	// InsideTemp is the temperature at the queen excluder.
	InsideTemp units.Celsius
	// InsideHumidity is the relative humidity at the queen excluder.
	InsideHumidity units.RelativeHumidity
	// Activity is the foraging/fanning intensity in [0,1]; it modulates
	// hive sound level and entrance traffic.
	Activity float64
	// Queen is the current queen state.
	Queen QueenState
}

// Colony is a stateful hive model.
type Colony struct {
	cfg Config
	r   *rng.Source
}

// New creates a colony.
func New(cfg Config) *Colony {
	return &Colony{cfg: cfg, r: rng.New(cfg.Seed)}
}

// regulation returns the colony's thermoregulation strength in [0,1]:
// 0 = empty hive tracking ambient, 1 = full colony holding the target.
func (c *Colony) regulation() float64 {
	// Saturating with population; ~0.7 at 10k bees, ~0.9 at 40k.
	p := float64(c.cfg.Population)
	return p / (p + 4000)
}

// StateAt returns the hive state for the given outside weather sample.
func (c *Colony) StateAt(w weather.Sample) State {
	reg := c.regulation()
	outside := float64(w.Temperature)
	target := float64(c.cfg.BroodTarget)

	// The queen excluder sits below the brood nest: even a strong colony
	// shows some coupling to ambient there, plus a small diurnal lag.
	inside := outside + reg*(target-outside)*0.97
	// A weak stochastic wobble from cluster movement.
	inside += c.r.Gaussian(0, 0.15*(1-reg)+0.05)

	// Colony metabolism and nectar evaporation keep in-hive RH in the
	// 50-70% band for an active colony; an empty hive tracks outside.
	insideRH := float64(w.Humidity) + reg*(0.60-float64(w.Humidity))*0.8

	activity := c.activityAt(w)
	return State{
		Time:           w.Time,
		InsideTemp:     units.Celsius(inside),
		InsideHumidity: units.RelativeHumidity(insideRH).Clamp(),
		Activity:       activity,
		Queen:          c.cfg.Queen,
	}
}

// activityAt models foraging intensity: zero at night, rising with
// daylight irradiance, suppressed by cold, and noisier when queenless.
func (c *Colony) activityAt(w weather.Sample) float64 {
	if c.cfg.Population == 0 {
		return 0
	}
	light := math.Tanh(float64(w.Irradiance) / 300)
	warmth := sigmoid((float64(w.Temperature) - 10) / 3)
	act := light * warmth
	if c.cfg.Queen == QueenLost {
		// Queenless colonies forage less but fan and roar more; net
		// acoustic activity stays up while entrance traffic drops.
		act = 0.4*act + 0.3
	}
	act += c.r.Gaussian(0, 0.03)
	return clamp(act, 0, 1)
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
