package des

import (
	"bytes"
	"testing"
	"time"

	"beesim/internal/obs"
)

func obsStart() time.Time { return time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC) }

func TestInstrumentCountsEngineEvents(t *testing.T) {
	s := New(obsStart())
	m := obs.NewRegistry()
	Instrument(s, m, nil, false)

	for i := 0; i < 5; i++ {
		if _, err := s.After(time.Duration(i+1)*time.Second, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	e, err := s.After(10*time.Second, func() { t.Fatal("cancelled event fired") })
	if err != nil {
		t.Fatal(err)
	}
	e.Cancel()
	s.Run(obsStart().Add(time.Minute))

	if got := m.Counter(MetricEventsScheduled).Value(); got != 6 {
		t.Fatalf("scheduled = %v, want 6", got)
	}
	if got := m.Counter(MetricEventsFired).Value(); got != 5 {
		t.Fatalf("fired = %v, want 5", got)
	}
	if got := m.Counter(MetricEventsCancelled).Value(); got != 1 {
		t.Fatalf("cancelled = %v, want 1", got)
	}
	if got := m.Gauge(MetricPendingEvents).Value(); got != 0 {
		t.Fatalf("pending gauge = %v, want 0 after drain", got)
	}
}

func TestInstrumentTraceEvents(t *testing.T) {
	s := New(obsStart())
	tr := obs.NewTracer(obsStart())
	Instrument(s, nil, tr, true)
	if _, err := s.After(time.Second, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Run(obsStart().Add(time.Minute))
	// thread_name metadata + scheduled + fired
	if got := tr.Len(); got != 3 {
		t.Fatalf("trace has %d events, want 3", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"event scheduled", "event fired"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("trace missing %q:\n%s", want, buf.String())
		}
	}
}

func TestUninstrumentRestoresBarePath(t *testing.T) {
	s := New(obsStart())
	m := obs.NewRegistry()
	Instrument(s, m, nil, false)
	Instrument(s, nil, nil, false) // both nil: detach every probe
	if _, err := s.After(time.Second, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Run(obsStart().Add(time.Minute))
	if got := m.Counter(MetricEventsFired).Value(); got != 0 {
		t.Fatalf("fired = %v after detaching, want 0", got)
	}
}

func TestInstrumentDisabledChangesNothing(t *testing.T) {
	// The disabled configuration — Instrument with neither a registry
	// nor a tracer — must not change engine behaviour.
	run := func(instr bool) (int, time.Time) {
		s := New(obsStart())
		if instr {
			Instrument(s, nil, nil, false)
		}
		n := 0
		stop, err := s.Every(time.Second, func() { n++ })
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		s.Run(obsStart().Add(time.Minute))
		return n, s.Now()
	}
	bareFired, bareNow := run(false)
	obsFired, obsNow := run(true)
	if bareFired != obsFired || !bareNow.Equal(obsNow) {
		t.Fatalf("disabled instrumentation changed the run: fired %d vs %d, now %v vs %v",
			bareFired, obsFired, bareNow, obsNow)
	}
}
