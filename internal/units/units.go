// Package units provides the physical quantities used throughout beesim:
// energy, power, irradiance, temperature and humidity, together with the
// arithmetic that connects them to time.
//
// All quantities are float64 wrappers. They exist to make signatures
// self-describing (a function returning Joules cannot be confused with one
// returning Watts) and to centralize formatting. Arithmetic between
// different quantities goes through explicit conversion methods so that
// dimensional errors are visible at the call site.
package units

import (
	"fmt"
	"math"
	"time"
)

// Joules is an amount of energy.
type Joules float64

// Watts is an instantaneous power.
type Watts float64

// WattHours is an amount of energy in watt-hours (used for battery sizing).
type WattHours float64

// WattsPerSquareMeter is an irradiance (solar flux density).
type WattsPerSquareMeter float64

// Celsius is a temperature.
type Celsius float64

// RelativeHumidity is a relative humidity fraction in [0, 1].
type RelativeHumidity float64

// Energy returns the energy delivered by power p over duration d.
func (p Watts) Energy(d time.Duration) Joules {
	return Joules(float64(p) * d.Seconds())
}

// Duration returns how long power p must be sustained to spend energy e.
// It returns 0 for non-positive power.
func (e Joules) Duration(p Watts) time.Duration {
	if p <= 0 {
		return 0
	}
	return time.Duration(float64(e) / float64(p) * float64(time.Second))
}

// Power returns the average power that spends energy e over duration d.
// It returns 0 for non-positive durations.
func (e Joules) Power(d time.Duration) Watts {
	if d <= 0 {
		return 0
	}
	return Watts(float64(e) / d.Seconds())
}

// WattHours converts the energy to watt-hours.
func (e Joules) WattHours() WattHours { return WattHours(float64(e) / 3600) }

// Joules converts the energy to joules.
func (w WattHours) Joules() Joules { return Joules(float64(w) * 3600) }

// String formats the energy with an adaptive unit (J, kJ, MJ).
func (e Joules) String() string {
	a := math.Abs(float64(e))
	switch {
	case a >= 1e6:
		return fmt.Sprintf("%.2f MJ", float64(e)/1e6)
	case a >= 1e3:
		return fmt.Sprintf("%.2f kJ", float64(e)/1e3)
	default:
		return fmt.Sprintf("%.1f J", float64(e))
	}
}

// String formats the power with an adaptive unit (mW, W, kW).
func (p Watts) String() string {
	a := math.Abs(float64(p))
	switch {
	case a >= 1e3:
		return fmt.Sprintf("%.2f kW", float64(p)/1e3)
	case a < 1 && a > 0:
		return fmt.Sprintf("%.0f mW", float64(p)*1e3)
	default:
		return fmt.Sprintf("%.2f W", float64(p))
	}
}

// String formats the energy in watt-hours.
func (w WattHours) String() string { return fmt.Sprintf("%.2f Wh", float64(w)) }

// String formats the temperature.
func (c Celsius) String() string { return fmt.Sprintf("%.1f °C", float64(c)) }

// String formats the humidity as a percentage.
func (h RelativeHumidity) String() string { return fmt.Sprintf("%.0f %%", float64(h)*100) }

// Clamp limits the humidity to the physical range [0, 1].
func (h RelativeHumidity) Clamp() RelativeHumidity {
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}
