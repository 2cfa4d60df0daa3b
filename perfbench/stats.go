package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: p99 needs at least 1000 samples, p90 at least 100.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (q in (0, 1]).
// ok is false when fewer than minTail samples lie beyond it, so a p99
// from 200 samples is refused rather than reported as a number that is
// really the second-largest sample. The median (q <= 0.5) is always
// reportable from a non-empty sample.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	if q > 0.5 && float64(n)*(1-q) < minTail-1e-9 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], true
}

// tail returns the highest of p99.9, p99 and p90 that xs can report,
// with its name.
func tail(xs []float64) (name string, v float64, ok bool) {
	for _, t := range []struct {
		name string
		q    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if v, ok := percentile(xs, t.q); ok {
			return t.name, v, true
		}
	}
	return "", 0, false
}

// median is the middle value of xs (the mean of the middle two for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tally is the error accounting of one run: every attempted operation
// ends completed, failed (an I/O or protocol error) or rejected (a typed
// admission refusal such as over_capacity).
type tally struct {
	Attempted int
	Completed int
	Failed    int
	Rejected  int
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Completed += o.Completed
	t.Failed += o.Failed
	t.Rejected += o.Rejected
}

// errorFrac is the share of attempted operations that failed or were
// refused.
func (t tally) errorFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed+t.Rejected) / float64(t.Attempted)
}

// balanced checks offered = completed + failed + rejected.
func (t tally) balanced() error {
	if t.Attempted != t.Completed+t.Failed+t.Rejected {
		return fmt.Errorf("offered %d != completed %d + failed %d + rejected %d",
			t.Attempted, t.Completed, t.Failed, t.Rejected)
	}
	return nil
}
