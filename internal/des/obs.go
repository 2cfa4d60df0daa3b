package des

// Observability bridge: Instrument attaches an obs.Registry and/or
// obs.Tracer to a simulation. The engine itself only carries a single
// nil-checked pointer, so an uninstrumented Sim pays one predictable
// branch per event — the property the DES-loop benchmarks in
// bench_test.go guard (<5% overhead with observability disabled).

import "beesim/internal/obs"

// Metric names emitted by an instrumented simulation.
const (
	MetricEventsScheduled = "des_events_scheduled_total"
	MetricEventsFired     = "des_events_fired_total"
	MetricEventsCancelled = "des_events_cancelled_total"
	MetricPendingEvents   = "des_pending_events"
)

type simObs struct {
	scheduled *obs.Counter
	fired     *obs.Counter
	cancelled *obs.Counter
	pending   *obs.Gauge
	tr        *obs.Tracer
	traceAll  bool
}

// Instrument wires metrics and tracing into the simulation. Either
// argument may be nil: with a nil registry the counters are no-ops,
// with a nil tracer no timeline is recorded. With both nil the call
// detaches the probes entirely — the disabled configuration costs the
// engine exactly one nil-pointer branch per event, which is what the
// DESLoop benchmarks in bench_test.go verify (<5% over the bare loop).
//
// traceEvents additionally records every scheduled/fired/cancelled
// engine event as an instant on the engine track — complete but
// verbose; per-package spans usually tell the story with far fewer
// events.
func Instrument(s *Sim, m *obs.Registry, tr *obs.Tracer, traceEvents bool) {
	if m == nil && tr == nil {
		s.o = nil
		return
	}
	s.o = &simObs{
		scheduled: m.Counter(MetricEventsScheduled),
		fired:     m.Counter(MetricEventsFired),
		cancelled: m.Counter(MetricEventsCancelled),
		pending:   m.Gauge(MetricPendingEvents),
		tr:        tr,
		traceAll:  traceEvents,
	}
	if tr != nil {
		tr.SetThreadName(obs.TidEngine, "des engine")
	}
}

func (o *simObs) eventScheduled(s *Sim, e *Event) {
	o.scheduled.Inc()
	o.pending.Set(float64(len(s.queue)))
	if o.traceAll {
		o.tr.Instant("event scheduled", "des", obs.TidEngine, s.now,
			map[string]any{"seq": e.seq, "at_us": e.at.Sub(s.now).Microseconds()})
	}
}

func (o *simObs) eventFired(s *Sim, e *Event) {
	o.fired.Inc()
	o.pending.Set(float64(len(s.queue)))
	if o.traceAll {
		o.tr.Instant("event fired", "des", obs.TidEngine, e.at,
			map[string]any{"seq": e.seq})
	}
}

func (o *simObs) eventCancelled(s *Sim, e *Event) {
	o.cancelled.Inc()
	o.pending.Set(float64(len(s.queue)))
	if o.traceAll {
		o.tr.Instant("event cancelled", "des", obs.TidEngine, s.now,
			map[string]any{"seq": e.seq})
	}
}
