//beelint:allow walltime the benchmark harness measures real elapsed time on the host; nothing here feeds simulated state

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"beesim/internal/parallel"
)

// Fingerprint names the host and build a result was measured on. Two
// results are comparable only when their host fields agree; Commit and
// Seed are recorded so a reader knows what ran, and differ by design
// between the two sides of a comparison.
type Fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"parallel_workers"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

// maxProcs is the parallelism every run is pinned to: all the host's
// CPUs up to two, so a result measured on a larger machine still uses
// the same number of cores as the recorded one.
const maxProcs = 2

// pinParallelism sets GOMAXPROCS and the parallel package's default
// worker count to min(NumCPU, maxProcs) and returns that count.
func pinParallelism() int {
	n := runtime.NumCPU()
	if n > maxProcs {
		n = maxProcs
	}
	runtime.GOMAXPROCS(n)
	parallel.SetDefault(n)
	return n
}

// hostFingerprint records the pinned parallelism and the host it runs on.
func hostFingerprint(seed uint64) Fingerprint {
	return Fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    parallel.Default(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit("."),
		Seed:       seed,
	}
}

// SameHost reports whether two fingerprints describe the same host and
// pinning, with the first differing field when they do not.
func (f Fingerprint) SameHost(g Fingerprint) (bool, string) {
	switch {
	case f.NumCPU != g.NumCPU:
		return false, "num_cpu"
	case f.GOMAXPROCS != g.GOMAXPROCS:
		return false, "gomaxprocs"
	case f.Workers != g.Workers:
		return false, "parallel_workers"
	case f.CPUModel != g.CPUModel:
		return false, "cpu_model"
	case f.GoVersion != g.GoVersion:
		return false, "go_version"
	}
	return true, ""
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or
// returns the architecture when the file is unavailable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves HEAD of the git checkout at root without running
// git, or returns "unknown" outside a checkout (an exported source tree).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// clock is the harness's only source of time: an offset from the run's
// start. The open-loop generator takes one so its due-time and lag
// accounting can be tested against a fake.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func newWallClock() *wallClock { return &wallClock{start: time.Now()} }

func (c *wallClock) Now() time.Duration { return time.Since(c.start) }

// SleepUntil blocks in nanosleep(2) rather than time.Sleep. When every
// P is idle, the Go runtime waits for its next timer in epoll with
// millisecond resolution, so a time.Sleep-paced generator releases
// operations about half a millisecond late on average — a third of a
// fleet wake's latency, charged to the service. nanosleep wakes within
// the kernel's timer slack (50 µs by default). An interrupted sleep
// (SIGPROF in a traced run) simply sleeps again.
func (c *wallClock) SleepUntil(t time.Duration) {
	for {
		d := t - c.Now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}

// stopwatch times one call on the wall clock.
func stopwatch(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS collects the heap, returns the garbage to the OS and
// restarts the kernel's resident high-water mark (Linux clear_refs), so
// the next peakRSSMB is the peak of the work that follows, not of a
// GC-timing-dependent spike before it (set-up, an earlier repetition).
// Where the reset is unavailable, peakRSSMB stays the process's peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	restartPeakRSS()
}

// restartPeakRSS restarts the resident high-water mark at the current
// resident set, without collecting.
func restartPeakRSS() {
	//beelint:allow errdrop best effort: without the reset the peak covers earlier work too
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// windowPeaks runs work, reading the resident high-water mark at the
// end of each second and restarting it, and returns the peak of every
// whole second (or of the whole run, if it is shorter). Their median is
// the work's typical peak. The single highest peak depends on where GC
// cycles fall: among upload_10s's frames in flight it spread the peak
// by 0.09–0.11 of its median across seeds, and a one-second spike as
// Figure 5's training starts split fig5_sweep's peaks into 118–122 MB
// and 128–136 MB.
func windowPeaks(work func()) []float64 {
	restartPeakRSS()
	var peaks []float64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { //beelint:allow gostmt the sampler reads the peak while the measured work runs; it exits when done closes
		defer wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				peaks = append(peaks, peakRSSMB())
				restartPeakRSS()
			}
		}
	}()
	work()
	close(done)
	wg.Wait()
	if len(peaks) == 0 {
		peaks = append(peaks, peakRSSMB())
	}
	return peaks
}

// peakRSSMB is the resident high-water mark in MB: VmHWM from
// /proc/self/status, or getrusage's ru_maxrss where that is missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
