// Package des is beesim's discrete-event simulation core.
//
// Every time-domain experiment in the paper runs on this engine: the
// week-long hive trace of Figure 2 (solar, battery, weather and routine
// processes interleaved), the 319-routine measurement campaign of Section
// IV, and the per-cycle scenario timelines behind Tables I and II.
//
// The engine is a classic event-calendar design: a binary heap of timed
// events and a virtual clock that jumps from event to event. Determinism
// is guaranteed by breaking timestamp ties with a monotonically
// increasing sequence number, so two events scheduled for the same
// instant always fire in scheduling order.
package des

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// Event is a scheduled callback.
type Event struct {
	at     time.Time
	seq    uint64
	fn     func()
	cancel bool
	index  int // heap index, -1 once popped

	// pooled events are engine-owned: scheduled by the recurring-timer
	// path, recycled into the simulation's free list once fired or
	// skipped. gen counts recycles so an internal cancel handle can
	// detect (and ignore) a stale reference; events handed out by the
	// public At/After API are never pooled, so a caller keeping an
	// *Event around stays safe.
	pooled bool
	gen    uint64
}

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired is a no-op.
func (e *Event) Cancel() { e.cancel = true }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Sim is a discrete-event simulation. Create one with New; the zero value
// is not usable.
type Sim struct {
	now   time.Time
	queue eventQueue
	seq   uint64
	o     *simObs  // nil unless Instrument was called
	free  []*Event // recycled pooled events (the event arena)
}

// maxFreeEvents caps the event free list so a burst of recurring
// timers cannot pin an unbounded arena.
const maxFreeEvents = 1024

// New creates a simulation whose clock starts at the given virtual time.
func New(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.now }

// At schedules fn at absolute virtual time t. Scheduling in the past is an
// error: the calendar cannot rewind.
func (s *Sim) At(t time.Time, fn func()) (*Event, error) {
	return s.schedule(t, fn, false)
}

// schedule is the shared scheduling path. Pooled events come from (and
// return to) the simulation's free list; only the engine-internal
// recurring path may request pooling, because it never leaks the *Event
// to code that could touch it after it fires.
func (s *Sim) schedule(t time.Time, fn func(), pooled bool) (*Event, error) {
	if t.Before(s.now) {
		return nil, fmt.Errorf("des: schedule at %v before now %v", t, s.now)
	}
	var e *Event
	if pooled && len(s.free) > 0 {
		e = s.free[len(s.free)-1]
		s.free[len(s.free)-1] = nil
		s.free = s.free[:len(s.free)-1]
		e.at, e.seq, e.fn, e.cancel = t, s.seq, fn, false
	} else {
		e = &Event{at: t, seq: s.seq, fn: fn, pooled: pooled}
	}
	s.seq++
	heap.Push(&s.queue, e)
	if s.o != nil {
		s.o.eventScheduled(s, e)
	}
	return e, nil
}

// recycle returns a fired or skipped pooled event to the free list,
// bumping its generation so stale internal cancel handles miss.
func (s *Sim) recycle(e *Event) {
	if !e.pooled {
		return
	}
	e.gen++
	e.fn = nil
	if len(s.free) < maxFreeEvents {
		s.free = append(s.free, e)
	}
}

// afterPooled schedules fn after delay d on a pooled event. Callers
// must not retain the returned event beyond its firing except through
// a generation-checked cancel (cancelIfGen).
func (s *Sim) afterPooled(d time.Duration, fn func()) (*Event, error) {
	if d < 0 {
		return nil, errors.New("des: negative delay")
	}
	return s.schedule(s.now.Add(d), fn, true)
}

// cancelIfGen cancels the event only if it still is the scheduling the
// caller took the handle from — a recycled (and possibly reused) event
// has a newer generation and is left untouched.
func (e *Event) cancelIfGen(gen uint64) {
	if e.gen == gen {
		e.cancel = true
	}
}

// After schedules fn after delay d from now. Negative delays are errors.
func (s *Sim) After(d time.Duration, fn func()) (*Event, error) {
	if d < 0 {
		return nil, errors.New("des: negative delay")
	}
	return s.At(s.now.Add(d), fn)
}

// Every schedules fn at period p, first firing after one period. The
// returned stop function cancels the recurrence. Periods must be positive.
func (s *Sim) Every(p time.Duration, fn func()) (stop func(), err error) {
	if p <= 0 {
		return nil, errors.New("des: non-positive period")
	}
	// The recurrence schedules on pooled events: each tick's event is
	// recycled right after it fires, so a steady-state Every loop
	// allocates nothing. The stop handle therefore pairs the latest
	// event with its generation — once the event fired and was
	// recycled (or reused elsewhere), the stale cancel is a no-op.
	var cur *Event
	var curGen uint64
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if stopped { // fn may call stop
			return
		}
		cur, _ = s.afterPooled(p, tick) // never fails in a handler: delay > 0
		curGen = cur.gen
	}
	cur, err = s.afterPooled(p, tick)
	if err != nil {
		return nil, err
	}
	curGen = cur.gen
	return func() {
		stopped = true
		if cur != nil {
			cur.cancelIfGen(curGen)
		}
	}, nil
}

// Step fires the single earliest pending event and advances the clock to
// it. It reports whether an event was fired.
func (s *Sim) Step() bool {
	for len(s.queue) > 0 {
		e := heap.Pop(&s.queue).(*Event)
		if e.cancel {
			if s.o != nil {
				s.o.eventCancelled(s, e)
			}
			s.recycle(e)
			continue
		}
		s.now = e.at
		if s.o != nil {
			s.o.eventFired(s, e)
		}
		fn := e.fn
		// Recycle before running the handler: e is already popped and
		// engine-owned, so the handler (which may schedule its own
		// successor — the Every recurrence) can reuse it immediately.
		s.recycle(e)
		fn()
		return true
	}
	return false
}

// Run executes events until the calendar is empty or the clock would
// pass the horizon. The clock finishes exactly at the horizon when it is
// the limiting factor.
func (s *Sim) Run(horizon time.Time) {
	for {
		// Peek: don't execute events beyond the horizon.
		next := s.peek()
		if next == nil {
			break
		}
		if next.at.After(horizon) {
			s.now = horizon
			return
		}
		s.Step()
	}
	if s.now.Before(horizon) {
		s.now = horizon
	}
}

// peek returns the earliest non-cancelled event without popping it.
func (s *Sim) peek() *Event {
	for len(s.queue) > 0 {
		e := s.queue[0]
		if !e.cancel {
			return e
		}
		heap.Pop(&s.queue)
		if s.o != nil {
			s.o.eventCancelled(s, e)
		}
		s.recycle(e)
	}
	return nil
}
