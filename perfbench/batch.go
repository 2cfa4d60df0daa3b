package main

import (
	"math"
	"time"
)

// batchSetups is how many times a batch workload's set-up is timed;
// setup_s is the median. Batch set-ups take well under a millisecond,
// so one reading would be mostly timer and cache noise.
const batchSetups = 21

// repeat runs a batch workload's fixed work once, then as many more
// times as bring the total closest to span. Fixing the count after the
// first repetition keeps runs from mixing counts: with 10 s repetitions
// in a 20 s span, "repeat while time is left" ran two or three, and
// the runs split into two groups by CPU per repetition. Each
// repetition starts from a collected heap and a fresh resident
// high-water mark, so its CPU, wall time and peak memory are its own.
// The pass reports CPU per repetition and, for memory, the median over
// repetitions of each one's median one-second peak (see windowPeaks).
func repeat(clk clock, span time.Duration, rep func() error) (passResult, error) {
	var p passResult
	var peaks []float64
	mem := memNow()
	for n := 1; p.Tally.Attempted < n; {
		resetPeakRSS()
		p.Tally.Attempted++
		var err error
		c0, s := cpuTime(), clk.Now()
		windows := windowPeaks(func() { err = rep() })
		if err != nil {
			p.Tally.Failed++
			return p, err
		}
		d := clk.Now() - s
		if p.Tally.Attempted == 1 && d > 0 {
			n = max(1, int(math.Round(float64(span)/float64(d))))
		}
		p.OpMS = append(p.OpMS, ms(d))
		p.CPU += cpuTime() - c0
		peaks = append(peaks, median(windows))
		p.Tally.Completed++
	}
	p.PeakMB = median(peaks)
	p.Mem = memDelta(mem)
	return p, nil
}

// batchReport adds a batch workload's end-to-end metrics: wall and CPU
// seconds of one repetition of the fixed work.
func batchReport(p passResult, out *metrics) {
	reps := float64(max(p.Tally.Completed, 1))
	out.set("wall_s", median(p.OpMS)/1000, "s")
	out.set("cpu_s", p.CPU.Seconds()/reps, "s")
	out.set("repetitions", reps, "count")
}
