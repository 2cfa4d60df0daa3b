// Package power holds the calibrated device energy models of the
// deployment: the Raspberry Pi 3B+ edge node, the always-on Raspberry Pi
// Zero WH energy monitor, and the cloud server (Intel i7-8700K + RTX
// 2070).
//
// Every constant is derived from the paper's own measurements — Section
// IV's routine statistics and Figure 3 for the edge, Tables I and II for
// the per-task breakdowns of both scenarios. The scale simulation of
// Section VI is initialized "thanks to the measures described in Section
// IV and Section V"; this package is that initialization.
package power

import (
	"fmt"
	"time"

	"beesim/internal/ledger"
	"beesim/internal/stats"
	"beesim/internal/units"
)

// Task is one step of a device's duty cycle with its measured cost.
type Task struct {
	Name     string
	Energy   units.Joules
	Duration time.Duration
}

// NewTask builds a task from the paper's (joules, seconds) pairs.
func NewTask(name string, joules, seconds float64) Task {
	return Task{
		Name:     name,
		Energy:   units.Joules(joules),
		Duration: time.Duration(seconds * float64(time.Second)),
	}
}

// Power returns the task's average power.
func (t Task) Power() units.Watts { return t.Energy.Power(t.Duration) }

// String formats the task like a row of the paper's tables.
func (t Task) String() string {
	return fmt.Sprintf("%-28s %9.1f J %8.1f s", t.Name, float64(t.Energy), t.Duration.Seconds())
}

// Sum returns the total energy and duration of a task sequence.
func Sum(tasks []Task) (units.Joules, time.Duration) {
	var e stats.Kahan
	var d time.Duration
	for _, t := range tasks {
		e.Add(float64(t.Energy))
		d += t.Duration
	}
	return units.Joules(e.Sum()), d
}

// RecordTasks appends a task sequence to the energy ledger as consume
// entries, one per task, advancing the virtual clock by each task's
// duration — the ledger equivalent of tracing a duty cycle. device and
// component attribute the consumer; store binds the entries to a
// conservation balance ("" for attribution-only overlays such as
// grid-powered cloud tasks). It returns the time after the last task.
// A nil ledger records nothing but still advances time, so callers can
// share the same clock arithmetic on instrumented and bare runs.
func RecordTasks(lg *ledger.Ledger, at time.Time, hive, device, component, store string, tasks []Task) time.Time {
	for _, t := range tasks {
		if lg != nil && (t.Energy != 0 || t.Duration != 0) {
			lg.Append(ledger.Entry{
				T: at, Hive: hive, Device: device, Component: component,
				Task: t.Name, Dir: ledger.Consume,
				Joules: float64(t.Energy), Seconds: t.Duration.Seconds(),
				Store: store,
			})
		}
		at = at.Add(t.Duration)
	}
	return at
}

// Pi3B is the Raspberry Pi 3B+ edge-node energy model.
type Pi3B struct {
	// SleepPower is the draw while halted but able to receive the GPIO
	// wake-up signal. The per-cycle sleep rows of Tables I/II (111.6 J /
	// 178.5 s, 131.9 J / 211.1 s, 116.9 J / 187.0 s) all imply exactly
	// 0.625 W, which the text of Section IV rounds to "close to 0.62".
	SleepPower units.Watts
	// WakeOverhead is per-wake energy not attributed to any table row:
	// the boot inrush and the Pi Zero's consumption-data transfer. It is
	// calibrated so the 5-minute point of Figure 3 lands at the measured
	// 1.19 W given the 190.1 J routine.
	WakeOverhead units.Joules
}

// DefaultPi3B returns the calibrated edge model.
func DefaultPi3B() Pi3B {
	return Pi3B{SleepPower: 0.625, WakeOverhead: 35.0}
}

// Per-task measurements for the Raspberry Pi 3B+, straight from Tables I
// and II (joules, seconds).
func (p Pi3B) WakeAndCollect() Task { return NewTask("Wake up & Data collection", 131.8, 64.0) }
func (p Pi3B) InferSVM() Task       { return NewTask("Queen detection model (SVM)", 98.9, 46.1) }
func (p Pi3B) InferCNN() Task       { return NewTask("Queen detection model (CNN)", 94.8, 37.6) }
func (p Pi3B) SendResults() Task    { return NewTask("Send results", 3.0, 1.5) }
func (p Pi3B) SendAudio() Task      { return NewTask("Send audio", 37.3, 15.0) }
func (p Pi3B) Shutdown() Task       { return NewTask("Shutdown", 21.0, 9.9) }

// Sleep returns the sleep task filling duration d at the sleep power.
func (p Pi3B) Sleep(d time.Duration) Task {
	return Task{Name: "Sleep", Energy: p.SleepPower.Energy(d), Duration: d}
}

// Routine is Section IV's full measured data-collection routine (boot,
// collect, transfer, shutdown): 190.1 J over 1 min 29 s, mean 2.14 W.
func (p Pi3B) Routine() Task { return NewTask("Data collection routine", 190.1, 89.0) }

// AveragePower returns the long-run mean power of the edge device waking
// every period and running the Section-IV routine — the quantity Figure 3
// plots against the wake-up frequency. Periods not exceeding the active
// time are saturated (the device never sleeps).
func (p Pi3B) AveragePower(period time.Duration) units.Watts {
	r := p.Routine()
	active := r.Energy + p.WakeOverhead
	if period <= r.Duration {
		return (active).Power(r.Duration)
	}
	sleep := p.SleepPower.Energy(period - r.Duration)
	return (active + sleep).Power(period)
}

// PiZero is the always-on Raspberry Pi Zero WH energy monitor. It wakes
// the Pi 3B+ over GPIO and streams current measurements; the paper keeps
// it permanently powered.
type PiZero struct {
	// ActivePower is the steady draw with the three current sensors.
	ActivePower units.Watts
}

// DefaultPiZero returns a typical Zero WH + Grove hat draw.
func DefaultPiZero() PiZero { return PiZero{ActivePower: 0.75} }

// Cloud is the cloud server energy model (i7-8700K + RTX 2070).
// Table II implies: idle 9415 J / 211.1 s = 44.6 W, receive 1032 J / 15 s
// = 68.8 W, SVM execution 6.3 J / 0.1 s, CNN execution 108 J / 1.0 s.
type Cloud struct {
	IdlePower    units.Watts
	ReceivePower units.Watts
}

// DefaultCloud returns the calibrated server model.
func DefaultCloud() Cloud {
	return Cloud{IdlePower: 44.6, ReceivePower: 68.8}
}

// Idle returns an idle task spanning d.
func (c Cloud) Idle(d time.Duration) Task {
	return Task{Name: "Idle", Energy: c.IdlePower.Energy(d), Duration: d}
}

// Receive returns the audio-reception task for one client (15 s at the
// receive power: 1032 J).
func (c Cloud) Receive() Task { return NewTask("Receive audio", 1032, 15.0) }

// ExecSVM is the queen-detection SVM execution on the server.
func (c Cloud) ExecSVM() Task { return NewTask("Queen detection model (SVM)", 6.3, 0.1) }

// ExecCNN is the queen-detection CNN execution on the server (GPU burst).
func (c Cloud) ExecCNN() Task { return NewTask("Queen detection model (CNN)", 108, 1.0) }

// AboveIdle returns the energy task t costs the server beyond the idle
// draw it would pay anyway over the same time: the burst that one
// upload's receive or model execution adds to the server's books.
func (c Cloud) AboveIdle(t Task) units.Joules {
	return t.Energy - c.IdlePower.Energy(t.Duration)
}

// InferenceModel converts a model's arithmetic cost into edge energy and
// duration. Figure 5 shows the CNN's edge inference cost growing as a
// quadratic function of image side length (i.e. linearly in FLOPs, which
// for a fixed conv stack scale with pixel count); the efficiency constant
// is calibrated so a 100x100 input costs the Table-I CNN numbers.
type InferenceModel struct {
	// FLOPsPerJoule is the edge device's effective arithmetic efficiency.
	FLOPsPerJoule float64
	// FLOPsPerSecond is the sustained compute rate, fixing duration.
	FLOPsPerSecond float64
	// FixedEnergy covers model load and feature extraction, independent
	// of input size.
	FixedEnergy units.Joules
	// FixedDuration is the corresponding constant time.
	FixedDuration time.Duration
}

// DefaultEdgeInference is calibrated against Table I's CNN row: a
// 100x100-input CNN forward pass (~60 MFLOPs for our reference net)
// costing 94.8 J / 37.6 s on the Pi 3B+ including feature extraction.
func DefaultEdgeInference() InferenceModel {
	return InferenceModel{
		FLOPsPerJoule:  1.0e6,
		FLOPsPerSecond: 2.6e6,
		FixedEnergy:    34.8,
		FixedDuration:  14 * time.Second,
	}
}

// Cost returns the energy and wall time to run flops of arithmetic.
func (m InferenceModel) Cost(flops float64) (units.Joules, time.Duration) {
	if flops < 0 {
		flops = 0
	}
	e := m.FixedEnergy + units.Joules(flops/m.FLOPsPerJoule)
	d := m.FixedDuration + time.Duration(flops/m.FLOPsPerSecond*float64(time.Second))
	return e, d
}
