package des

import (
	"testing"
	"time"
)

var t0 = time.Date(2023, 4, 10, 0, 0, 0, 0, time.UTC)

func TestAfterOrdering(t *testing.T) {
	s := New(t0)
	var order []int
	if _, err := s.After(2*time.Second, func() { order = append(order, 2) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.After(1*time.Second, func() { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.After(3*time.Second, func() { order = append(order, 3) }); err != nil {
		t.Fatal(err)
	}
	s.Run(t0.Add(time.Minute))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	s := New(t0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if _, err := s.At(t0.Add(time.Second), func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(t0.Add(time.Minute))
	for i, v := range order {
		if v != i {
			t.Fatalf("tie break not FIFO: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New(t0)
	var seen time.Time
	if _, err := s.After(90*time.Second, func() { seen = s.Now() }); err != nil {
		t.Fatal(err)
	}
	s.Run(t0.Add(time.Hour))
	if !seen.Equal(t0.Add(90 * time.Second)) {
		t.Fatalf("handler saw clock %v", seen)
	}
	if !s.Now().Equal(t0.Add(time.Hour)) {
		t.Fatalf("final clock = %v, want horizon", s.Now())
	}
}

func TestSchedulePastRejected(t *testing.T) {
	s := New(t0)
	if _, err := s.At(t0.Add(-time.Second), func() {}); err == nil {
		t.Fatal("past scheduling accepted")
	}
	if _, err := s.After(-time.Second, func() {}); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestCancel(t *testing.T) {
	s := New(t0)
	fired := false
	e, err := s.After(time.Second, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	e.Cancel()
	s.Run(t0.Add(time.Minute))
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestHorizonStopsBeforeLaterEvents(t *testing.T) {
	s := New(t0)
	fired := false
	if _, err := s.After(2*time.Hour, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	s.Run(t0.Add(time.Hour))
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if !s.Now().Equal(t0.Add(time.Hour)) {
		t.Fatalf("clock = %v, want horizon", s.Now())
	}
	if len(s.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(s.queue))
	}
	// A later Run picks the event up.
	s.Run(t0.Add(3 * time.Hour))
	if !fired {
		t.Fatal("event not fired on resumed run")
	}
}

func TestEvery(t *testing.T) {
	s := New(t0)
	count := 0
	stop, err := s.Every(10*time.Minute, func() { count++ })
	if err != nil {
		t.Fatal(err)
	}
	s.Run(t0.Add(time.Hour))
	if count != 6 {
		t.Fatalf("ticks in 1 h at 10 min = %d, want 6", count)
	}
	stop()
	s.Run(t0.Add(2 * time.Hour))
	if count != 6 {
		t.Fatalf("ticks after stop = %d, want 6", count)
	}
}

func TestEveryStopFromHandler(t *testing.T) {
	s := New(t0)
	count := 0
	var stop func()
	var err error
	stop, err = s.Every(time.Minute, func() {
		count++
		if count == 3 {
			stop()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(t0.Add(time.Hour))
	if count != 3 {
		t.Fatalf("count = %d, want 3 (stop from handler)", count)
	}
}

func TestEveryRejectsBadPeriod(t *testing.T) {
	s := New(t0)
	if _, err := s.Every(0, func() {}); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestStepOnEmpty(t *testing.T) {
	s := New(t0)
	if s.Step() {
		t.Fatal("Step on empty calendar reported an event")
	}
}

func TestNestedScheduling(t *testing.T) {
	// A handler scheduling more events models routine chains.
	s := New(t0)
	var times []time.Duration
	if _, err := s.After(time.Second, func() {
		times = append(times, s.Now().Sub(t0))
		if _, err := s.After(2*time.Second, func() {
			times = append(times, s.Now().Sub(t0))
		}); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.Run(t0.Add(time.Minute))
	if len(times) != 2 || times[0] != time.Second || times[1] != 3*time.Second {
		t.Fatalf("times = %v", times)
	}
}

func TestManyEventsHeapStress(t *testing.T) {
	s := New(t0)
	const n = 10000
	count := 0
	// Insert in a scrambled deterministic order.
	for i := 0; i < n; i++ {
		d := time.Duration((i*7919)%n) * time.Millisecond
		if _, err := s.After(d, func() { count++ }); err != nil {
			t.Fatal(err)
		}
	}
	last := s.Now()
	for s.Step() {
		if s.Now().Before(last) {
			t.Fatal("clock went backwards")
		}
		last = s.Now()
	}
	if count != n {
		t.Fatalf("fired %d, want %d", count, n)
	}
}

// TestEverySteadyStateNoAlloc pins the event-arena win: once a
// recurring timer reaches steady state, each tick recycles its pooled
// event instead of allocating a new one, so a long Every loop runs
// allocation-free.
func TestEverySteadyStateNoAlloc(t *testing.T) {
	s := New(t0)
	ticks := 0
	if _, err := s.Every(time.Second, func() { ticks++ }); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now().Add(10 * time.Second)) // warm the free list
	if allocs := testing.AllocsPerRun(50, func() {
		s.Run(s.Now().Add(20 * time.Second))
	}); allocs != 0 {
		t.Fatalf("steady-state Every loop allocates %v per Run, want 0", allocs)
	}
	if ticks != 10+50*20+20 { // warmup + AllocsPerRun runs (incl. its one extra warmup run)
		t.Fatalf("ticks = %d", ticks)
	}
}

// TestEveryStopAfterRecycleIsNoOp is the recycle-safety property of
// the pooled recurrence: a stop handle whose event already fired (and
// whose arena slot now carries a different timer) must not cancel the
// new occupant. Loop A stops itself from inside its own handler — the
// exact window where its current event has been recycled — while loop
// B, scheduled into the reused slot, must keep ticking.
func TestEveryStopAfterRecycleIsNoOp(t *testing.T) {
	s := New(t0)
	ticksA, ticksB := 0, 0
	var stopA func()
	stopA, err := s.Every(time.Second, func() {
		ticksA++
		if ticksA == 3 {
			stopA()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Every(time.Second, func() { ticksB++ }); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now().Add(10 * time.Second))
	if ticksA != 3 {
		t.Fatalf("stopped loop ticked %d times, want 3", ticksA)
	}
	if ticksB != 10 {
		t.Fatalf("surviving loop ticked %d times, want 10 (stale cancel hit a recycled event)", ticksB)
	}
}

// TestEveryStopTwiceSafe checks a stop handle is idempotent and that
// stopping after many recycles cancels the right (current) event.
func TestEveryStopTwiceSafe(t *testing.T) {
	s := New(t0)
	ticks := 0
	stop, err := s.Every(time.Second, func() { ticks++ })
	if err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now().Add(5 * time.Second))
	stop()
	stop()
	s.Run(s.Now().Add(5 * time.Second))
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

// TestPublicEventNotPooled pins the API safety line: events handed out
// by At/After are never recycled, so a caller may hold the handle and
// Cancel it long after it fired without touching any later event.
func TestPublicEventNotPooled(t *testing.T) {
	s := New(t0)
	fired := 0
	e, err := s.After(time.Second, func() { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now().Add(2 * time.Second))
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	e.Cancel() // late cancel of an already-fired, never-pooled event
	// New work — including pooled recurrences — must be unaffected.
	later := 0
	if _, err := s.Every(time.Second, func() { later++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.After(time.Second, func() { later++ }); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now().Add(3 * time.Second))
	if later != 4 {
		t.Fatalf("later events fired %d times, want 4", later)
	}
}

// TestCancelledPooledEventRecycled checks that pooled events skipped by
// cancellation (not just fired ones) return to the arena: a stopped
// recurrence's pending event is reclaimed by the next pooled schedule.
func TestCancelledPooledEventRecycled(t *testing.T) {
	s := New(t0)
	stop, err := s.Every(time.Second, func() {})
	if err != nil {
		t.Fatal(err)
	}
	stop() // cancels the pending first tick
	ticks := 0
	if _, err := s.Every(time.Second, func() { ticks++ }); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now().Add(3 * time.Second))
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	if len(s.queue) != 1 { // only the live recurrence's next event
		t.Fatalf("pending = %d, want 1", len(s.queue))
	}
}
