// Package battery models the smart beehive's energy buffer: a 20 000 mAh
// USB power bank charged from the solar panel through a 5 V DC/DC
// converter, discharged by the two Raspberry Pis.
//
// The model tracks state of charge with separate charge and discharge
// efficiencies, enforces capacity bounds, and exposes the low-voltage
// cutoff that, combined with the panel's night brownout, produces the
// outage gaps visible in the paper's Figure 2a.
package battery

import (
	"errors"
	"fmt"
	"time"

	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/units"
)

// Config describes a battery pack.
type Config struct {
	// Capacity is the usable energy when full.
	Capacity units.WattHours
	// ChargeEfficiency is the fraction of input energy stored (0..1].
	ChargeEfficiency float64
	// DischargeEfficiency is the fraction of stored energy delivered (0..1].
	DischargeEfficiency float64
	// MaxChargePower limits the charging rate (converter limit).
	MaxChargePower units.Watts
	// CutoffFraction is the state of charge below which the pack's
	// protection circuit disconnects the load.
	CutoffFraction float64
	// ReconnectFraction is the state of charge the pack must recover to
	// before the load reconnects after a cutoff (hysteresis).
	ReconnectFraction float64
}

// DefaultConfig models the deployed 20 000 mAh (3.7 V cells = 74 Wh) power
// bank behind a 5 V / 3 A converter.
func DefaultConfig() Config {
	return Config{
		Capacity:            74,
		ChargeEfficiency:    0.92,
		DischargeEfficiency: 0.90,
		MaxChargePower:      15, // 5 V * 3 A converter ceiling
		CutoffFraction:      0.05,
		ReconnectFraction:   0.10,
	}
}

// Battery is a stateful pack. Construct with New.
type Battery struct {
	cfg      Config
	stored   units.WattHours // energy currently held
	cut      bool            // protection circuit open?
	brownout bool            // injected bus brownout active?

	// Lifetime counters for reporting.
	totalIn   units.Joules
	totalOut  units.Joules
	cutoffs   int
	brownouts int
	dumpErrs  int

	// Observability probes; all nil-safe no-ops until Instrument.
	mChargeJ    *obs.Counter
	mDischargeJ *obs.Counter
	mCutoffs    *obs.Counter
	mBrownouts  *obs.Counter
	mDumpErrs   *obs.Counter
	reg         *obs.Registry
	gSoC        *obs.Gauge
	tr          *obs.Tracer
	clock       func() time.Time

	// Energy-ledger probe; nil-safe no-op until AttachLedger.
	lg     *ledger.Ledger
	lgHive string
}

// Metric names emitted by an instrumented battery. The brownout
// counter is registered lazily on the first injected brownout, so
// fault-free metric snapshots stay byte-identical to earlier releases.
const (
	MetricChargeJ    = "battery_charge_j_total"
	MetricDischargeJ = "battery_discharge_j_total"
	MetricCutoffs    = "battery_cutoffs_total"
	MetricBrownouts  = "battery_brownouts_total"
	MetricDumpErrs   = "battery_trip_dump_errors_total"
	MetricSoC        = "battery_soc"
)

// Instrument attaches metrics and trace probes. clock supplies the
// virtual timestamp for trace events (pass the simulation's Now); trace
// events are skipped when either tr or clock is nil. Charge/discharge
// energy, cutoff counts, and the state of charge become visible in the
// registry; cutoff and reconnect transitions (the paper's brownouts)
// appear as instants on the power track.
func (b *Battery) Instrument(m *obs.Registry, tr *obs.Tracer, clock func() time.Time) {
	b.mChargeJ = m.Counter(MetricChargeJ)
	b.mDischargeJ = m.Counter(MetricDischargeJ)
	b.mCutoffs = m.Counter(MetricCutoffs)
	b.reg = m
	b.gSoC = m.Gauge(MetricSoC)
	b.gSoC.Set(b.SoC())
	if clock != nil {
		b.tr = tr
		b.clock = clock
	}
}

// AttachLedger wires the energy ledger: every Charge appends a harvest
// entry for the joules actually stored, every Discharge a store-loss
// entry for the conversion loss between stored and delivered energy,
// and a protection cutoff trips the ledger's flight recorder. Together
// with the caller's consume entries (attributing delivered energy to
// devices) the flows balance exactly: harvest − consume − loss =
// Δstored, which is what the conservation auditor checks. clock
// supplies the virtual time of each entry; entries are skipped when lg
// or clock is nil.
func (b *Battery) AttachLedger(lg *ledger.Ledger, hive string, clock func() time.Time) {
	if clock == nil {
		return
	}
	b.lg = lg
	b.lgHive = hive
	b.clock = clock
}

// New creates a battery at the given initial state of charge (0..1).
func New(cfg Config, initialSoC float64) (*Battery, error) {
	if cfg.Capacity <= 0 {
		return nil, errors.New("battery: non-positive capacity")
	}
	if cfg.ChargeEfficiency <= 0 || cfg.ChargeEfficiency > 1 ||
		cfg.DischargeEfficiency <= 0 || cfg.DischargeEfficiency > 1 {
		return nil, errors.New("battery: efficiencies must be in (0,1]")
	}
	if cfg.CutoffFraction < 0 || cfg.ReconnectFraction < cfg.CutoffFraction ||
		cfg.ReconnectFraction > 1 {
		return nil, errors.New("battery: invalid cutoff/reconnect fractions")
	}
	if initialSoC < 0 || initialSoC > 1 {
		return nil, fmt.Errorf("battery: initial SoC %v out of [0,1]", initialSoC)
	}
	b := &Battery{cfg: cfg, stored: units.WattHours(float64(cfg.Capacity) * initialSoC)}
	b.cut = b.SoC() <= cfg.CutoffFraction
	return b, nil
}

// SoC returns the state of charge in [0, 1].
func (b *Battery) SoC() float64 {
	return float64(b.stored) / float64(b.cfg.Capacity)
}

// Stored returns the energy currently held.
func (b *Battery) Stored() units.WattHours { return b.stored }

// LoadConnected reports whether the pack currently delivers power: the
// protection circuit is closed and no brownout window is active.
func (b *Battery) LoadConnected() bool { return !b.cut && !b.brownout }

// Brownouts returns how many injected brownout windows the pack
// entered.
func (b *Battery) Brownouts() int { return b.brownouts }

// SetBrownout opens (active=true) or closes the injected bus-brownout
// switch: while open the pack delivers nothing, as if the output
// converter stalled, independent of the state-of-charge protection
// circuit. The fault injector drives this from its brownout windows;
// repeated calls with the same state are no-ops, and each opening
// transition is counted, traced, and (lazily) registered as the
// battery_brownouts_total metric so fault-free snapshots are unchanged.
func (b *Battery) SetBrownout(active bool) {
	if active == b.brownout {
		return
	}
	b.brownout = active
	if active {
		b.brownouts++
		if b.mBrownouts == nil && b.reg != nil {
			b.mBrownouts = b.reg.Counter(MetricBrownouts)
		}
		b.mBrownouts.Inc()
		if b.tr != nil {
			b.tr.Instant("battery brownout", "battery", obs.TidPower, b.clock(),
				map[string]any{"soc": b.SoC()})
		}
	} else if b.tr != nil {
		b.tr.Instant("battery brownout end", "battery", obs.TidPower, b.clock(),
			map[string]any{"soc": b.SoC()})
	}
}

// Charge feeds power p into the pack for duration d. Power beyond the
// configured charge limit is curtailed (a real MPPT/converter clips).
// It returns the energy actually stored.
func (b *Battery) Charge(p units.Watts, d time.Duration) units.Joules {
	if p <= 0 || d <= 0 {
		return 0
	}
	if p > b.cfg.MaxChargePower {
		p = b.cfg.MaxChargePower
	}
	in := p.Energy(d)
	stored := units.Joules(float64(in) * b.cfg.ChargeEfficiency)
	room := (b.cfg.Capacity - b.stored).Joules()
	if stored > room {
		stored = room
	}
	b.stored += stored.WattHours()
	b.totalIn += stored
	b.mChargeJ.Add(float64(stored))
	b.gSoC.Set(b.SoC())
	if b.lg != nil && stored > 0 {
		b.lg.Append(ledger.Entry{
			T: b.clock(), Hive: b.lgHive, Device: "battery", Component: "pack",
			Task: "charge", Dir: ledger.Harvest, Joules: float64(stored),
			Seconds: d.Seconds(), Store: "battery",
		})
	}
	if b.cut && b.SoC() >= b.cfg.ReconnectFraction {
		b.cut = false
		if b.tr != nil {
			b.tr.Instant("battery reconnect", "battery", obs.TidPower, b.clock(),
				map[string]any{"soc": b.SoC()})
		}
	}
	return stored
}

// Discharge draws power p for duration d from the pack. It returns the
// duration actually sustained: shorter than d if the pack hits its cutoff
// mid-interval (the paper's night outage), zero if the load is already
// disconnected.
func (b *Battery) Discharge(p units.Watts, d time.Duration) time.Duration {
	if p <= 0 || d <= 0 || b.cut || b.brownout {
		return 0
	}
	need := units.Joules(float64(p.Energy(d)) / b.cfg.DischargeEfficiency)
	floor := units.WattHours(float64(b.cfg.Capacity) * b.cfg.CutoffFraction)
	available := (b.stored - floor).Joules()
	if available <= 0 {
		b.openProtection()
		return 0
	}
	if need <= available {
		b.stored -= need.WattHours()
		delivered := units.Joules(float64(need) * b.cfg.DischargeEfficiency)
		b.totalOut += delivered
		b.mDischargeJ.Add(float64(delivered))
		b.gSoC.Set(b.SoC())
		b.recordLoss(float64(need-delivered), d)
		if b.SoC() <= b.cfg.CutoffFraction {
			b.openProtection()
		}
		return d
	}
	// Partial interval until cutoff.
	frac := float64(available) / float64(need)
	b.stored -= available.WattHours()
	delivered := units.Joules(float64(available) * b.cfg.DischargeEfficiency)
	b.totalOut += delivered
	b.mDischargeJ.Add(float64(delivered))
	b.gSoC.Set(b.SoC())
	sustained := time.Duration(float64(d) * frac)
	b.recordLoss(float64(available-delivered), sustained)
	b.openProtection()
	return sustained
}

// recordLoss appends the discharge conversion loss (the joules removed
// from the pack but not delivered to the load) to the ledger.
func (b *Battery) recordLoss(lossJ float64, d time.Duration) {
	if b.lg == nil || lossJ <= 0 {
		return
	}
	b.lg.Append(ledger.Entry{
		T: b.clock(), Hive: b.lgHive, Device: "battery", Component: "pack",
		Task: "discharge loss", Dir: ledger.StoreLoss, Joules: lossJ,
		Seconds: d.Seconds(), Store: "battery",
	})
}

func (b *Battery) openProtection() {
	if !b.cut {
		b.cut = true
		b.cutoffs++
		b.mCutoffs.Inc()
		if b.tr != nil {
			b.tr.Instant("battery cutoff", "battery", obs.TidPower, b.clock(),
				map[string]any{"soc": b.SoC()})
		}
		if b.lg != nil {
			if err := b.lg.Trip(fmt.Sprintf("battery cutoff hive=%q soc=%.4f", b.lgHive, b.SoC())); err != nil {
				// A failed flight-recorder dump means the cutoff evidence
				// is gone; count it so audits can see the hole.
				b.dumpErrs++
				if b.reg != nil {
					if b.mDumpErrs == nil {
						b.mDumpErrs = b.reg.Counter(MetricDumpErrs)
					}
					b.mDumpErrs.Inc()
				}
				if b.tr != nil {
					b.tr.Instant("battery trip dump failed", "battery", obs.TidPower, b.clock(),
						map[string]any{"err": err.Error()})
				}
			}
		}
	}
}
