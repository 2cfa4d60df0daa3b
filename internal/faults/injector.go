// The injector: a validated plan bound to a simulation start time,
// answering pure predicates over virtual time.

package faults

import (
	"time"

	"beesim/internal/rng"
)

// Distinct stream salts keep the independent fault decisions (drop
// verdicts, backoff jitter, sensor luck) uncorrelated even though they
// may share a virtual instant.
const (
	saltDrop   = 0x6c696e6b64726f70 // "linkdrop"
	saltJitter = 0x6a69747465727531 // "jitteru1"
	saltSensor = 0x73656e736f726f6b // "sensorok"
)

// Injector is a fault plan armed at a simulation start time. All
// methods are pure functions of virtual time (and, for per-attempt
// draws, the attempt number): no internal state advances, so calls may
// happen in any order — or from replicas evaluated on any worker — and
// still agree. A nil *Injector reports a perfectly healthy system from
// every method, so probe sites need no guards and the fault-free hot
// path allocates nothing.
type Injector struct {
	plan  Plan
	start time.Time
}

// NewInjector validates plan and arms it at the simulation start time.
func NewInjector(plan Plan, start time.Time) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan, start: start}, nil
}

// uniform derives a draw in [0, 1) from the plan seed, a purpose salt,
// the virtual instant and the attempt number. Chaining the stream-seed
// mix (SplitMix64 finalization at each step) gives a well-distributed
// hash whose value is independent of every other draw.
func (in *Injector) uniform(salt uint64, t time.Time, attempt int) float64 {
	z := rng.StreamSeed(in.plan.Seed, salt)
	z = rng.StreamSeed(z, uint64(t.UnixNano()))
	z = rng.StreamSeed(z, uint64(attempt))
	return float64(z>>11) / (1 << 53)
}

// LinkUp reports whether the uplink is outside every outage window.
func (in *Injector) LinkUp(t time.Time) bool {
	if in == nil {
		return true
	}
	for _, w := range in.plan.Link.Outages {
		if w.Active(in.start, t) {
			return false
		}
	}
	return true
}

// DropProb returns the effective per-attempt drop probability at t:
// the steady rate, raised by any active burst.
func (in *Injector) DropProb(t time.Time) float64 {
	if in == nil {
		return 0
	}
	p := in.plan.Link.DropProb
	for _, b := range in.plan.Link.Bursts {
		if b.DropProb > p && b.Active(in.start, t) {
			p = b.DropProb
		}
	}
	return p
}

// DropUpload decides whether send attempt number attempt (1-based) at
// virtual instant t is lost. The verdict is u < DropProb(t) for a draw
// u keyed on (seed, t, attempt): for a fixed seed the dropped set at a
// higher probability is a superset of the set at a lower one.
func (in *Injector) DropUpload(t time.Time, attempt int) bool {
	if in == nil {
		return false
	}
	p := in.DropProb(t)
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return in.uniform(saltDrop, t, attempt) < p
}

// JitterU returns the deterministic jitter draw in [0, 1) for the
// backoff that follows failed attempt number attempt at instant t.
func (in *Injector) JitterU(t time.Time, attempt int) float64 {
	if in == nil {
		return 0.5
	}
	return in.uniform(saltJitter, t, attempt)
}

// NodeUp reports whether the edge node is outside every crash window,
// including each window's reboot tail.
func (in *Injector) NodeUp(t time.Time) bool {
	if in == nil {
		return true
	}
	for _, w := range in.plan.Node.Crashes {
		down := w
		down.DurationS += in.plan.Node.RebootS
		if down.Active(in.start, t) {
			return false
		}
	}
	return true
}

// BatteryBrownout reports whether a battery brownout window is active.
func (in *Injector) BatteryBrownout(t time.Time) bool {
	if in == nil {
		return false
	}
	for _, w := range in.plan.Battery.Brownouts {
		if w.Active(in.start, t) {
			return true
		}
	}
	return false
}

// SensorOK reports whether the monitoring sensors deliver a reading at
// t: false inside any dropout window or when the steady sensor drop
// probability claims the keyed draw.
func (in *Injector) SensorOK(t time.Time) bool {
	if in == nil {
		return true
	}
	for _, w := range in.plan.Sensors.Dropouts {
		if w.Active(in.start, t) {
			return false
		}
	}
	p := in.plan.Sensors.DropProb
	if p <= 0 {
		return true
	}
	if p >= 1 {
		return false
	}
	return in.uniform(saltSensor, t, 0) >= p
}
