// Package stats provides the descriptive statistics used to summarize
// beesim's measurement campaigns: online moments (Welford), compensated
// summation and series crossover detection.
//
// Section IV of the paper reports the 319-routine campaign through exactly
// these summaries (mean routine length 1 m 29 s, sigma 3.5 s; mean power
// 2.14 W, sigma 0.009 W), and Figure 7's analysis hinges on locating the
// client counts where the edge and edge+cloud energy series cross.
package stats

import (
	"errors"
	"math"
)

// Online accumulates count, mean and variance in one pass using Welford's
// algorithm. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// Mean returns the sample mean, or 0 with no observations.
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased sample variance (n-1 denominator).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Var()) }

// merge combines another accumulator into o (parallel Welford merge).
func (o *Online) merge(p *Online) {
	if p.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *p
		return
	}
	n := o.n + p.n
	delta := p.mean - o.mean
	m := o.mean + delta*float64(p.n)/float64(n)
	m2 := o.m2 + p.m2 + delta*delta*float64(o.n)*float64(p.n)/float64(n)
	o.n, o.mean, o.m2 = n, m, m2
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// stdDev returns the unbiased standard deviation of xs.
func stdDev(xs []float64) float64 {
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	return o.StdDev()
}

// Crossover is a point where series a overtakes series b (or vice versa).
type Crossover struct {
	Index int     // first index at or after which the sign flips
	X     float64 // interpolated x position of equality
}

// Crossovers returns every x position where (a - b) changes sign, with
// linear interpolation between samples. xs must be strictly increasing and
// all three slices the same length.
func Crossovers(xs, a, b []float64) ([]Crossover, error) {
	if len(xs) != len(a) || len(xs) != len(b) {
		return nil, errors.New("stats: mismatched crossover inputs")
	}
	var out []Crossover
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, errors.New("stats: x values not strictly increasing")
		}
		d0 := a[i-1] - b[i-1]
		d1 := a[i] - b[i]
		if d0 == 0 {
			continue // equality at a sample counts with the next interval
		}
		if (d0 < 0) != (d1 < 0) || d1 == 0 {
			t := d0 / (d0 - d1)
			out = append(out, Crossover{Index: i, X: xs[i-1] + t*(xs[i]-xs[i-1])})
		}
	}
	return out, nil
}
