// Command perfbench is beesim's benchmark harness. It drives four
// workloads through the repository's public packages, checks their
// outputs, and prints end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs). See README.md in this directory.
//
//	perfbench --workload upload_10s --seed 1 --seconds 20 --trace 0
//	perfbench compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// workDir, relative to the repository root the harness runs from, holds
// everything a run writes: temporary archives, and a traced run's
// profile and spans. run.py builds the harness there too.
const workDir = ".bench_build"

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the gated metrics every untraced run reports, in order.
// Latency is reported, not gated: on a shared host, CPU steal moves a
// run's median latency by half while CPU time per operation moves by a
// tenth (README.md has the measurements).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports, in order. A layer
// a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"hivenet.wait_ms", "ms"}, {"hivenet.service_ms", "ms"},
		{"hivenet.rejects", "count"}, {"hivenet.shed", "count"},
		{"proto.encode_us", "us"}, {"proto.decode_us", "us"}, {"proto.pcm_decode_ms", "ms"},
		{"dsp.mel_ms", "ms"},
		{"queendetect.predict_ms", "ms"}, {"queendetect.vector_features_ms", "ms"},
		{"svm.decision_us", "us"}, {"svm.train_s", "s"},
		{"cnn.train_s", "s"}, {"cnn.forward_ms", "ms"}, {"cnn.mflops", "count"},
		{"audio.synth_s", "s"},
		{"store.append_us", "us"}, {"store.query_us", "us"},
		{"store.records", "count"}, {"store.evicted", "count"},
		{"obs.scrape_ms", "ms"}, {"obs.trace_events", "count"},
		{"ledger.entries", "count"}, {"ledger.audit_ms", "ms"},
		{"deployment.run_s", "s"}, {"deployment.wakeups", "count"},
		{"deployment.missed_wakeups", "count"}, {"des.ns_per_wakeup", "ns"},
		{"experiments.sweep_ms", "ms"}, {"loadgen.plan_ms", "ms"},
		{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"self_frac." + l, "frac"})
	}
	return append(defs,
		metricDef{"harness.lag_p99_ms", "ms"},
		metricDef{"harness.trace_overhead_frac", "frac"})
}()

// metrics is an insertion-ordered name -> value set.
type metrics struct {
	names []string
	vals  map[string]float64
	units map[string]string
}

func newMetrics() *metrics {
	return &metrics{vals: map[string]float64{}, units: map[string]string{}}
}

func (m *metrics) set(name string, v float64, unit string) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = v
	m.units[name] = unit
}

// bench is one workload. setup prepares it (timing each of its
// repeated set-ups), pass runs the measured work for about span on the
// harness clock, recording spans when sp is non-nil, and probes times
// the layers' public calls on the workload's own data in a traced run.
type bench interface {
	setup(rc *runConfig) (setups []time.Duration, err error)
	pass(span time.Duration, sp *spans) (passResult, error)
	probes(sp *spans, layer *metrics) error
	// report adds the workload's full end-to-end report (p50_ms.low,
	// wall_s, ...) from an untraced pass.
	report(p passResult, out *metrics)
	// check verifies everything the workload produced; each returned
	// string is one failed check.
	check() []string
	close() error
}

// passResult is what one measured pass produced.
type passResult struct {
	CPU   time.Duration
	Tally tally
	// OpMS is every completed operation's time: due-to-reply latency
	// for server workloads, wall time per repetition for batch ones.
	OpMS []float64
	Lag  []float64
	Mem  runtime.MemStats // delta over the pass
	// PeakMB is the pass's peak resident set.
	PeakMB float64
}

type runConfig struct {
	Workload string
	Seed     uint64
	Span     time.Duration
	Trace    bool
	Full     bool
	Workers  int
	Clk      clock
	TmpDir   string
}

// workloads are the benchmark's workloads, in BENCHMARK.json's order
// (its "why" lines say what each one is for).
var workloads = []struct {
	name string
	make func() bench
}{
	{"upload_10s", func() bench { return &uploadBench{} }},
	{"fleet_mix", func() bench { return &fleetBench{} }},
	{"fig5_sweep", func() bench { return &fig5Bench{} }},
	{"sim_campaign", func() bench { return &simBench{} }},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	full := fs.Bool("full", false, "run each server rate to at least 1000 samples and the rate ladder")
	out := fs.String("out", "", "also write the full result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	var mk func() bench
	for _, w := range workloads {
		if w.name == *workload {
			mk = w.make
		}
	}
	if mk == nil {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	rc := &runConfig{
		Workload: *workload, Seed: *seed, Trace: *trace == 1, Full: *full,
		Span:    time.Duration(*seconds * float64(time.Second)),
		Workers: pinParallelism(), Clk: newWallClock(), TmpDir: tmp,
	}
	res, err := measure(rc, mk())
	if rerr := os.RemoveAll(tmp); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	return emit(stdout, rc, res, *out)
}

// result is everything one run reports.
type result struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Trace       bool        `json:"trace"`
	Correct     bool        `json:"correct"`
	Failures    []string    `json:"failures,omitempty"`
	Tally       tally       `json:"tally"`
	// Metrics are the JSON line's: the gated end-to-end metrics of an
	// untraced run, or the per-layer metrics of a traced one, in
	// catalogue order.
	Metrics []namedValue `json:"metrics"`
	Report  []namedValue `json:"report"`
	Counts  []namedValue `json:"counts,omitempty"`
}

type namedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func listOf(m *metrics) []namedValue {
	out := make([]namedValue, 0, len(m.names))
	for _, n := range m.names {
		out = append(out, namedValue{n, m.vals[n], m.units[n]})
	}
	return out
}

// measure runs set-up, the measured pass(es) and the checks.
func measure(rc *runConfig, b bench) (res result, err error) {
	defer func() {
		if cerr := b.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	res = result{Fingerprint: hostFingerprint(rc.Seed), Workload: rc.Workload, Trace: rc.Trace}
	setups, err := b.setup(rc)
	if err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	setupS := median(secondsOf(setups))
	setupPeak := peakRSSMB()
	resetPeakRSS()
	vals, report := newMetrics(), newMetrics()
	defs := endToEnd
	if !rc.Trace {
		p, err := b.pass(rc.Span, nil)
		if err != nil {
			return res, err
		}
		res.Tally = p.Tally
		cpuPerOp := ms(p.CPU) / float64(max(p.Tally.Completed, 1))
		peak := p.PeakMB
		vals.set("setup_s", setupS, "s")
		vals.set("cpu_ms_per_op", cpuPerOp, "ms")
		vals.set("peak_rss_mb", peak, "MB")
		report.set("setup_s", setupS, "s")
		report.set("setup_peak_rss_mb", setupPeak, "MB")
		b.report(p, report)
		report.set("cpu_ms_per_op", cpuPerOp, "ms")
		report.set("error_frac", p.Tally.errorFrac(), "frac")
		report.set("peak_rss_mb", peak, "MB")
	} else {
		defs = perLayer
		if res.Tally, err = traced(rc, b, vals); err != nil {
			return res, err
		}
	}
	for _, d := range defs {
		res.Metrics = append(res.Metrics, namedValue{d.Name, vals.vals[d.Name], d.Unit})
	}
	res.Failures = b.check()
	if err := res.Tally.balanced(); err != nil {
		res.Failures = append(res.Failures, err.Error())
	}
	if res.Tally.Failed+res.Tally.Rejected > 0 {
		res.Failures = append(res.Failures, fmt.Sprintf("%d operations failed or were rejected", res.Tally.Failed+res.Tally.Rejected))
	}
	res.Correct = len(res.Failures) == 0
	res.Report = listOf(report)
	if c, ok := b.(interface{ counts() []namedValue }); ok {
		res.Counts = c.counts()
	}
	return res, nil
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// traced runs an untraced pass and a traced pass of half the span
// each, profiles the traced one, runs the probes and fills layer with
// every per-layer metric. It returns the two passes' combined tally.
func traced(rc *runConfig, b bench, layer *metrics) (tally, error) {
	var t tally
	base, err := b.pass(rc.Span/2, nil)
	if err != nil {
		return t, err
	}
	sp := newSpans(rc.Clk)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return t, err
	}
	tp, err := b.pass(rc.Span/2, sp)
	pprof.StopCPUProfile()
	if err != nil {
		return t, err
	}
	t.add(base.Tally)
	t.add(tp.Tally)
	if err := b.probes(sp, layer); err != nil {
		return t, fmt.Errorf("probes: %w", err)
	}
	// The profile and the spans stay on disk for a closer look
	// (go tool pprof <file>); the fold reads the profile from there.
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return t, err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", rc.Workload, rc.Seed))
	if err := os.WriteFile(stem+".pprof", prof.Bytes(), 0o644); err != nil {
		return t, err
	}
	fracs, err := foldProfile(stem + ".pprof")
	if err != nil {
		return t, err
	}
	for _, l := range layers {
		layer.set("self_frac."+l, fracs[l], "frac")
	}
	ops := float64(max(base.Tally.Completed, 1))
	layer.set("go.alloc_mb", float64(base.Mem.TotalAlloc)/(1<<20)/ops, "MB")
	layer.set("go.gc_cycles", float64(base.Mem.NumGC), "count")
	layer.set("go.gc_pause_ms", float64(base.Mem.PauseTotalNs)/1e6, "ms")
	lag := append(append([]float64(nil), base.Lag...), tp.Lag...)
	if v, ok := percentile(lag, 0.99); ok {
		layer.set("harness.lag_p99_ms", v, "ms")
	} else if len(lag) > 0 {
		// Too few samples for a p99: report the largest lag, an upper
		// bound on it.
		layer.set("harness.lag_p99_ms", slices.Max(lag), "ms")
	}
	// Medians, not means: one host stall in either pass would swamp a
	// mean of queueing latencies.
	if m := median(base.OpMS); m > 0 {
		layer.set("harness.trace_overhead_frac", median(tp.OpMS)/m-1, "frac")
	}
	return t, sp.WriteFile(stem + ".spans.json")
}

// memDelta returns the allocation and GC counters accrued since before.
func memDelta(before runtime.MemStats) runtime.MemStats {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return runtime.MemStats{
		TotalAlloc:   now.TotalAlloc - before.TotalAlloc,
		NumGC:        now.NumGC - before.NumGC,
		PauseTotalNs: now.PauseTotalNs - before.PauseTotalNs,
	}
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// emit prints the human report, the fingerprint, and as the last line
// the one-object JSON result: correct, attempted, failed and the gated
// (untraced) or per-layer (traced) metrics, each by name with its unit.
func emit(w io.Writer, rc *runConfig, res result, outPath string) error {
	mode := "untraced"
	if rc.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %.0f (%s)\n", rc.Workload, rc.Seed, rc.Span.Seconds(), mode)
	for _, m := range res.Report {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range res.Counts {
		fmt.Fprintf(w, "  count %-22s %14.0f\n", m.Name, m.Value)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
	fp, err := json.Marshal(res.Fingerprint)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fingerprint %s\n", fp)
	var sb strings.Builder
	for i, m := range res.Metrics {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%q: {\"value\": %s, \"unit\": %q}", m.Name, formatFloat(m.Value), m.Unit)
	}
	failed := res.Tally.Failed + res.Tally.Rejected
	fmt.Fprintf(w, "{\"correct\": %t, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
		res.Correct, max(res.Tally.Attempted, 1), failed, sb.String())
	if outPath == "" {
		return nil
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(b, '\n'), 0o644)
}

// formatFloat prints a value with all its digits, and 0 for NaN or
// infinities (which JSON cannot carry).
func formatFloat(v float64) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "0"
	}
	return string(b)
}

// compare prints two result files side by side, refusing when their
// host fingerprints differ: numbers from different machines or pinning
// are not comparable. It fails when two same-seed results carry
// different simulated counts.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare before.json after.json")
	}
	var rs [2]result
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if ok, field := rs[0].Fingerprint.SameHost(rs[1].Fingerprint); !ok {
		return fmt.Errorf("refusing to compare: fingerprints differ in %s", field)
	}
	if rs[0].Workload != rs[1].Workload || rs[0].Trace != rs[1].Trace {
		return errors.New("refusing to compare: different workloads or modes")
	}
	fmt.Fprintf(w, "%s: %s -> %s\n", rs[0].Workload, rs[0].Fingerprint.Commit, rs[1].Fingerprint.Commit)
	after := map[string]float64{}
	for _, m := range rs[1].Metrics {
		after[m.Name] = m.Value
	}
	for _, m := range rs[0].Metrics {
		a := after[m.Name]
		delta := 0.0
		if m.Value != 0 {
			delta = a/m.Value - 1
		}
		fmt.Fprintf(w, "  %-28s %14.4f %14.4f %+7.1f%% %s\n", m.Name, m.Value, a, 100*delta, m.Unit)
	}
	// Simulated counts must match exactly: a speed-only change leaves
	// them alone. They depend on the seed, so only same-seed results
	// are held to it.
	if len(rs[0].Counts) == 0 && len(rs[1].Counts) == 0 {
		return nil
	}
	if a, b := rs[0].Fingerprint.Seed, rs[1].Fingerprint.Seed; a != b {
		fmt.Fprintf(w, "  simulated counts not compared: seeds %d and %d differ\n", a, b)
		return nil
	}
	if !slices.Equal(rs[0].Counts, rs[1].Counts) {
		return fmt.Errorf("simulated counts differ: %v vs %v", rs[0].Counts, rs[1].Counts)
	}
	fmt.Fprintln(w, "  simulated counts: identical")
	return nil
}
