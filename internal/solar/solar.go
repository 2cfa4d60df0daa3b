// Package solar models the energy supply of a smart beehive: solar
// geometry, clear-sky irradiance, cloud attenuation, and the 30 W
// monocrystalline panel + DC/DC converter chain the paper deploys.
//
// The paper's Figure 2a shows the system browning out after sunset: "the
// low luminosity takes the solar panel's output voltage to uncontrolled
// values, thus affecting the batteries and the electronics". The panel
// model therefore exposes both a produced power and a Stable flag that
// goes false below a light threshold; the hive trace simulation uses the
// flag to reproduce the night gaps in the figure.
package solar

import (
	"math"
	"time"

	"beesim/internal/ledger"
	"beesim/internal/units"
)

// Location is a geographic deployment site.
type Location struct {
	Name      string
	LatDeg    float64 // latitude, degrees north
	LonDeg    float64 // longitude, degrees east
	TZOffsetH float64 // offset of local civil time from UTC, hours
}

// The two apiary sites of the paper.
var (
	Cachan = Location{Name: "Cachan", LatDeg: 48.79, LonDeg: 2.33, TZOffsetH: 2}
	Lyon   = Location{Name: "Lyon", LatDeg: 45.76, LonDeg: 4.84, TZOffsetH: 2}
)

const solarConstant = 1361 // W/m^2, extraterrestrial flux

// Declination returns the solar declination in radians for a day of year
// (1-based), using Cooper's formula.
func Declination(dayOfYear int) float64 {
	return 23.45 * math.Pi / 180 *
		math.Sin(2*math.Pi*float64(284+dayOfYear)/365)
}

// Elevation returns the solar elevation angle in radians at the location
// and instant t (interpreted via the location's fixed UTC offset).
func Elevation(loc Location, t time.Time) float64 {
	ut := t.UTC()
	doy := ut.YearDay()
	decl := Declination(doy)
	// Local solar time: civil time corrected by longitude within the zone.
	// (Equation-of-time is < 17 min and irrelevant to the figure's shape.)
	civilHour := float64(ut.Hour()) + float64(ut.Minute())/60 +
		float64(ut.Second())/3600 + loc.TZOffsetH
	solarHour := civilHour + (loc.LonDeg-15*loc.TZOffsetH)/15
	hourAngle := (solarHour - 12) * 15 * math.Pi / 180
	lat := loc.LatDeg * math.Pi / 180
	sinEl := math.Sin(lat)*math.Sin(decl) + math.Cos(lat)*math.Cos(decl)*math.Cos(hourAngle)
	return math.Asin(clamp(sinEl, -1, 1))
}

// ClearSkyIrradiance returns the global horizontal irradiance under a
// cloudless sky at the location and instant, using the standard
// 0.7^(AM^0.678) atmospheric transmission with the Kasten-Young air mass.
func ClearSkyIrradiance(loc Location, t time.Time) units.WattsPerSquareMeter {
	el := Elevation(loc, t)
	if el <= 0 {
		return 0
	}
	zenithDeg := 90 - el*180/math.Pi
	am := 1 / (math.Cos(zenithDeg*math.Pi/180) +
		0.50572*math.Pow(96.07995-zenithDeg, -1.6364))
	direct := solarConstant * math.Pow(0.7, math.Pow(am, 0.678))
	// Horizontal projection plus a ~10% diffuse contribution.
	ghi := direct*math.Sin(el) + 0.1*direct
	return units.WattsPerSquareMeter(ghi)
}

// Irradiance applies a cloud-cover attenuation (cover in [0,1]) to the
// clear-sky value. The attenuation follows the Kasten-Czeplak form
// 1 - 0.75*cover^3.4.
func Irradiance(loc Location, t time.Time, cloudCover float64) units.WattsPerSquareMeter {
	cover := clamp(cloudCover, 0, 1)
	clear := ClearSkyIrradiance(loc, t)
	return units.WattsPerSquareMeter(float64(clear) * (1 - 0.75*math.Pow(cover, 3.4)))
}

// Panel models the deployed photovoltaic chain: a rated panel feeding a
// DC/DC step-down converter.
type Panel struct {
	// RatedPower is the panel's nameplate output at standard test
	// conditions (1000 W/m^2). The paper's panel is rated 30 W.
	RatedPower units.Watts
	// ConverterEfficiency is the DC/DC step-down efficiency (0..1].
	ConverterEfficiency float64
	// StableThreshold is the minimum irradiance below which the panel's
	// output voltage is uncontrolled and the downstream electronics cannot
	// be powered reliably (the paper's observed night brownout).
	StableThreshold units.WattsPerSquareMeter
}

// DefaultPanel reproduces the paper's hardware: 30 W monocrystalline
// panel, 5 V / 3 A step-down converter (~90 % efficient), brownout under
// 30 W/m^2 of light.
func DefaultPanel() Panel {
	return Panel{
		RatedPower:          30,
		ConverterEfficiency: 0.90,
		StableThreshold:     30,
	}
}

// Output returns the usable electrical power delivered downstream of the
// converter for a given irradiance, and whether the supply is stable.
// Below the stability threshold the delivered power is zero.
func (p Panel) Output(irr units.WattsPerSquareMeter) (units.Watts, bool) {
	if irr < p.StableThreshold {
		return 0, false
	}
	raw := float64(p.RatedPower) * float64(irr) / 1000
	if raw > float64(p.RatedPower) {
		raw = float64(p.RatedPower)
	}
	return units.Watts(raw * p.ConverterEfficiency), true
}

// Meter records panel production in the energy ledger. Its entries are
// attribution-only (no store): the joules actually banked are recorded
// by the battery's own charge probe — after converter curtailment and
// charge efficiency — so the panel overlay must stay out of the
// conservation balance or every stored joule would count twice. A nil
// meter is a no-op, matching the repo's probe idiom.
type Meter struct {
	lg   *ledger.Ledger
	hive string
}

// NewMeter wires a production meter for one hive's panel. Returns nil
// (a valid no-op meter) when lg is nil.
func NewMeter(lg *ledger.Ledger, hive string) *Meter {
	if lg == nil {
		return nil
	}
	return &Meter{lg: lg, hive: hive}
}

// Record appends one production observation: power p sustained for d at
// virtual time t. Zero production intervals are skipped, so a night of
// brownout adds no entries.
func (m *Meter) Record(t time.Time, p units.Watts, d time.Duration) {
	if m == nil || p <= 0 || d <= 0 {
		return
	}
	m.lg.Append(ledger.Entry{
		T: t, Hive: m.hive, Device: "panel", Component: "pv",
		Task: "panel output", Dir: ledger.Harvest,
		Joules: float64(p.Energy(d)), Seconds: d.Seconds(),
	})
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
