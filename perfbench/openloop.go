//beelint:allow gostmt each client session is served by its own goroutine over a real TCP connection; the open-loop generator must not block on replies

package main

import (
	"sync"
	"time"
)

// outcome is how one operation ended.
type outcome uint8

const (
	opOK outcome = iota
	opFailed
	opRejected
)

// opRecord times one open-loop operation on the harness clock. Due is
// when the schedule wanted it sent, Sent when the generator released
// it, Start when a session picked it up and Done when the last reply
// arrived. Latency runs from Due, so a stall in the generator or a busy
// session charges every operation queued behind it.
type opRecord struct {
	Due, Sent, Start, Done time.Duration
	Outcome                outcome
}

func (r opRecord) latency() time.Duration { return r.Done - r.Due }
func (r opRecord) lag() time.Duration     { return r.Sent - r.Due }

// constantSchedule returns due times at a constant rate per second
// over [from, from+span), the first one offset into its interval by
// phase (in [0, 1)). Evenly spaced arrivals, as constant-throughput load
// generators use, keep a low-rate phase free of self-inflicted
// queueing, so its latency is the service's own.
func constantSchedule(rate float64, from, span time.Duration, phase float64) []time.Duration {
	var out []time.Duration
	for k := 0; ; k++ {
		d := time.Duration((float64(k) + phase) / rate * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, from+d)
	}
}

// generate releases operation i at due[i]: it sleeps on clk until the
// due time, stamps Due and Sent, and hands the index to emit.
func generate(clk clock, due []time.Duration, recs []opRecord, emit func(i int)) {
	for i, d := range due {
		clk.SleepUntil(d)
		recs[i].Due = d
		recs[i].Sent = clk.Now()
		emit(i)
	}
}

// runOpenLoop drives one open-loop phase: the generator releases each
// operation at its due time into a queue that len(do) sessions drain,
// one goroutine per session. do[w](i) performs operation i on session
// w. It returns once every operation has finished.
func runOpenLoop(clk clock, due []time.Duration, do []func(i int) outcome) []opRecord {
	recs := make([]opRecord, len(due))
	queue := make(chan int, len(due))
	var wg sync.WaitGroup
	for _, fn := range do {
		wg.Add(1)
		go func(fn func(int) outcome) {
			defer wg.Done()
			for i := range queue {
				recs[i].Start = clk.Now()
				recs[i].Outcome = fn(i)
				recs[i].Done = clk.Now()
			}
		}(fn)
	}
	generate(clk, due, recs, func(i int) { queue <- i })
	close(queue)
	wg.Wait()
	return recs
}

// phase summarizes one open-loop phase at a fixed rate.
type phase struct {
	Rate    float64 // per second
	Tally   tally
	Latency []float64 // ms, completed operations only
	Lag     []float64 // ms, every released operation
	// Drain is how long the last reply came after the last operation
	// was due. A stable queue drains within a few service times once
	// arrivals stop; a growing backlog takes as long as it grew.
	Drain time.Duration
}

// summarize tallies a phase's records.
func summarize(recs []opRecord) phase {
	var p phase
	for _, r := range recs {
		p.Tally.Attempted++
		p.Lag = append(p.Lag, ms(r.lag()))
		switch r.Outcome {
		case opOK:
			p.Tally.Completed++
			p.Latency = append(p.Latency, ms(r.latency()))
		case opFailed:
			p.Tally.Failed++
		case opRejected:
			p.Tally.Rejected++
		}
	}
	if n := len(recs); n > 0 {
		for _, r := range recs {
			p.Drain = max(p.Drain, r.Done-recs[n-1].Due)
		}
	}
	return p
}

// within reports whether the phase's p99 latency is reportable and at
// most limit, no operation failed, and the queue drained within limit
// after the last arrival: the ladder's test for a sustainable rate.
func (p phase) within(limit time.Duration) bool {
	p99, ok := percentile(p.Latency, 0.99)
	return ok && p99 <= ms(limit) && p.Drain <= limit && p.Tally.errorFrac() == 0
}
