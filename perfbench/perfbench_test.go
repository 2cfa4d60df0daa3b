package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"beesim/internal/rng"
	"beesim/internal/store"
)

// fakeClock advances only when told to. stallAt makes the given
// SleepUntil call (0-based) overshoot by stall, standing in for a
// descheduled generator.
type fakeClock struct {
	now     time.Duration
	sleeps  int
	stallAt int
	stall   time.Duration
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
	if c.sleeps == c.stallAt {
		c.now += c.stall
	}
	c.sleeps++
}

func TestPercentileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{99, 0.90, false, 0},
		{100, 0.90, true, 90},
		{3, 0.5, true, 2},
		{1, 0.5, true, 1},
		{0, 0.5, false, 0},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if name, v, ok := tail(seq(150)); !ok || name != "p90" || v != 135 {
		t.Errorf("tail of 150 = %s %v %v, want p90 135", name, v, ok)
	}
	if name, _, _ := tail(seq(10000)); name != "p99.9" {
		t.Errorf("tail of 10000 = %s, want p99.9", name)
	}
	if _, _, ok := tail(seq(50)); ok {
		t.Error("tail of 50 samples reported")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestDueTimeLatencyChargesStalls drives the real generator on a fake
// clock with a synchronous 5 ms service. A 30 ms generator stall before
// the second operation shows up as lag, and every operation queued
// behind it is charged from its due time, not from when it was sent.
func TestDueTimeLatencyChargesStalls(t *testing.T) {
	clk := &fakeClock{stallAt: 1, stall: 30 * time.Millisecond}
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	recs := make([]opRecord, len(due))
	generate(clk, due, recs, func(i int) {
		recs[i].Start = clk.Now()
		clk.now += 5 * time.Millisecond
		recs[i].Done = clk.Now()
	})
	wantLag := []float64{0, 30, 25, 20}
	wantLat := []float64{5, 35, 30, 25}
	for i, r := range recs {
		if ms(r.lag()) != wantLag[i] || ms(r.latency()) != wantLat[i] {
			t.Errorf("op %d: lag %v latency %v; want %v, %v", i, ms(r.lag()), ms(r.latency()), wantLag[i], wantLat[i])
		}
	}
	p := summarize(recs)
	if len(p.Lag) != 4 || len(p.Latency) != 4 {
		t.Fatalf("summary kept %d lags, %d latencies", len(p.Lag), len(p.Latency))
	}
}

func TestRunOpenLoopServesEveryOperation(t *testing.T) {
	due := make([]time.Duration, 200)
	for i := range due {
		due[i] = time.Duration(i) * 50 * time.Microsecond
	}
	served := make([]int, 3)
	fns := make([]func(int) outcome, len(served))
	for w := range fns {
		fns[w] = func(i int) outcome { served[w]++; return opOK }
	}
	recs := runOpenLoop(newWallClock(), due, fns)
	total := 0
	for _, n := range served {
		total += n
	}
	if total != len(due) {
		t.Fatalf("served %d operations, want %d", total, len(due))
	}
	for i, r := range recs {
		if r.Due != due[i] || r.Sent < r.Due || r.Start < r.Sent || r.Done < r.Start {
			t.Fatalf("op %d: times out of order: %+v", i, r)
		}
	}
}

func TestErrorAccounting(t *testing.T) {
	recs := []opRecord{
		{Due: 0, Sent: 0, Start: 0, Done: 2 * time.Millisecond, Outcome: opOK},
		{Due: 1, Sent: 1, Start: 1, Done: 3 * time.Millisecond, Outcome: opFailed},
		{Due: 2, Sent: 2, Start: 2, Done: 4 * time.Millisecond, Outcome: opRejected},
		{Due: 3, Sent: 3, Start: 3, Done: 5 * time.Millisecond, Outcome: opOK},
	}
	p := summarize(recs)
	want := tally{Attempted: 4, Completed: 2, Failed: 1, Rejected: 1}
	if p.Tally != want {
		t.Fatalf("tally %+v, want %+v", p.Tally, want)
	}
	if err := p.Tally.balanced(); err != nil {
		t.Fatal(err)
	}
	if f := p.Tally.errorFrac(); f != 0.5 {
		t.Errorf("error_frac %v, want 0.5", f)
	}
	if len(p.Latency) != 2 {
		t.Errorf("latencies from %d operations, want only the 2 completed", len(p.Latency))
	}
	bad := tally{Attempted: 3, Completed: 1}
	if bad.balanced() == nil {
		t.Error("unbalanced tally passed")
	}
	if (tally{}).errorFrac() != 0 {
		t.Error("empty tally has non-zero error_frac")
	}
}

func TestLadderStep(t *testing.T) {
	// 1000 operations due every 10 ms. Steady: each done 5 ms after due.
	// Growing: each waits behind all before it at 11 ms apiece, so the
	// last reply comes a second after the last arrival.
	var steady, growing []opRecord
	for i := 0; i < 1000; i++ {
		d := 7*time.Second + time.Duration(i)*10*time.Millisecond
		steady = append(steady, opRecord{Due: d, Done: d + 5*time.Millisecond})
		growing = append(growing, opRecord{Due: d, Done: 7*time.Second + time.Duration(i+1)*11*time.Millisecond})
	}
	if p := summarize(steady); p.Drain != 5*time.Millisecond || !p.within(latencyLimit) {
		t.Errorf("steady phase: drain %v, within %v", p.Drain, p.within(latencyLimit))
	}
	if p := summarize(growing); p.within(latencyLimit) {
		t.Errorf("overloaded phase passed (drain %v)", p.Drain)
	}
	if summarize(steady[:999]).within(latencyLimit) {
		t.Error("a phase too short for a p99 passed")
	}
}

func TestRepeatFixesCount(t *testing.T) {
	clk := &fakeClock{stallAt: -1}
	p, err := repeat(clk, 10*time.Second, func() error { clk.now += 4 * time.Second; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if p.Tally.Completed != 3 || len(p.OpMS) != 3 || p.OpMS[0] != 4000 {
		t.Fatalf("repeat ran %d repetitions (%v); want 3 of 4000 ms", p.Tally.Completed, p.OpMS)
	}
	p, _ = repeat(clk, time.Second, func() error { clk.now += 4 * time.Second; return nil })
	if p.Tally.Completed != 1 {
		t.Fatalf("a span shorter than one repetition ran %d, want 1", p.Tally.Completed)
	}
	// Later repetitions running faster or slower do not change the count.
	d := 9400 * time.Millisecond
	p, _ = repeat(clk, 20*time.Second, func() error { clk.now += d; d /= 2; return nil })
	if p.Tally.Completed != 2 {
		t.Fatalf("20 s span of 9.4 s repetitions ran %d, want 2", p.Tally.Completed)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether a metric or workload name fits the result
// format: a letter or digit, then at most 63 letters, digits, '_', '.'
// and '-'.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether a unit is 1-16 letters, digits, '_', '/',
// '%', '.' and '-'.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// TestMetricCatalogue pins the metric names and units to the result
// format's charset and to BENCHMARK.json at the repository root.
func TestMetricCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if !validName(d.Name) || !validUnit(d.Unit) || seen[d.Name] {
				t.Errorf("bad or repeated metric %q (%q)", d.Name, d.Unit)
			}
			seen[d.Name] = true
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "p50/ms", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	if validUnit("") || validUnit("seconds per op!") {
		t.Error("validUnit accepted a bad unit")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside this module:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in harness", i, w.Name, workloads[i].name)
		}
	}
	same := func(what string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in harness", what, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.Name || file[i].Unit != d.Unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in harness", what, i, file[i].Name, file[i].Unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
}

func TestFuncPackageAndLayer(t *testing.T) {
	for _, tc := range []struct{ fn, pkg, layer string }{
		{"beesim/internal/dsp.(*Plan).MelSpectrogram", "beesim/internal/dsp", "dsp"},
		{"beesim/internal/ml/cnn.(*Conv2D).Forward.func1", "beesim/internal/ml/cnn", "cnn"},
		{"beesim/internal/parallel.Map[go.shape.struct { X beesim/internal/obs.T }].func1", "beesim/internal/parallel", "core"},
		{"beesim/internal/queendetect.VectorFeatures", "beesim/internal/queendetect", "svm"},
		{"beesim/internal/deployment.Run.func3", "beesim/internal/deployment", "des"},
		{"runtime.mallocgc", "runtime", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKey", "internal/runtime/maps", "runtime"},
		{"encoding/json.(*decodeState).object", "encoding/json", "stdlib"},
		{"main.main", "main", "harness"},
		{"aeshashbody", "runtime", "runtime"},
		{"beesim/perfbench.spin", "beesim/perfbench", "harness"},
	} {
		if got := funcPackage(tc.fn); got != tc.pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", tc.fn, got, tc.pkg)
		}
		if got := layerOf(tc.pkg); got != tc.layer {
			t.Errorf("layerOf(%q) = %q, want %q", tc.pkg, got, tc.layer)
		}
	}
}

func TestLayerOfSample(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		// math under audio synthesis
		{[]string{"math.cos", "beesim/internal/audio.(*Synth).Clip"}, "audio"},
		// allocation stays runtime
		{[]string{"runtime.mallocgc", "beesim/internal/dsp.(*Plan).MelSpectrogram"}, "runtime"},
		// stdlib, runtime, then proto
		{[]string{"encoding/json.Marshal", "runtime.mallocgc", "beesim/internal/proto.Encode"}, "proto"},
		// no repository frame
		{[]string{"encoding/json.Marshal", "runtime.goexit"}, "stdlib"},
		// a repository leaf wins
		{[]string{"beesim/internal/dsp.(*Plan).MelSpectrogram", "beesim/internal/audio.(*Synth).Clip"}, "dsp"},
	} {
		if got := layerOfSample(tc.frames); got != tc.want {
			t.Errorf("frames %v: %s, want %s", tc.frames, got, tc.want)
		}
	}
}

// TestFoldTraces folds hand-written `go tool pprof -traces` output:
// header lines are skipped, inlined frames count, and generic names
// with spaces stay whole.
func TestFoldTraces(t *testing.T) {
	text := `File: perfbench
Type: samples
Duration: 1s, Total samples = 10
-----------+-------------------------------------------------------
         6   math.pow
             math.Pow (inline)
             beesim/internal/audio.(*Synth).Clip
             main.main
-----------+-------------------------------------------------------
         3   beesim/internal/parallel.Map[go.shape.struct { X int }].func1
             runtime.goexit
-----------+-------------------------------------------------------
         1   runtime.mallocgc
             beesim/internal/audio.(*Synth).Clip
-----------+-------------------------------------------------------
`
	fracs, err := foldTraces([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	for l, want := range map[string]float64{"audio": 0.6, "core": 0.3, "runtime": 0.1, "dsp": 0} {
		if math.Abs(fracs[l]-want) > 1e-12 {
			t.Errorf("self_frac.%s = %v, want %v", l, fracs[l], want)
		}
	}
	if _, err := foldTraces([]byte("File: x\n-----------+---\n  x   main.main\n")); err == nil {
		t.Error("folded a stack without a sample count")
	}
	if _, err := foldTraces([]byte("File: x\n")); err == nil {
		t.Error("folded a profile without samples")
	}
}

//go:noinline
func spin(until time.Time) float64 {
	x := 0.0
	for i := 0; time.Now().Before(until); i++ {
		x += math.Sqrt(float64(i))
	}
	return x
}

// TestFoldProfile folds a real CPU profile of a busy loop in this
// package with the toolchain's pprof: the layer fractions sum to 1 and
// the harness holds samples.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fracs, err := foldProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range layers {
		sum += fracs[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("layer fractions sum to %v: %v", sum, fracs)
	}
	if fracs["harness"] == 0 {
		t.Errorf("no samples attributed to the busy loop: %v", fracs)
	}
	garbage := filepath.Join(t.TempDir(), "garbage.pprof")
	if err := os.WriteFile(garbage, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := foldProfile(garbage); err == nil {
		t.Error("folded garbage without error")
	}
}

// TestWindowPeaks: work shorter than a window still yields its peak.
func TestWindowPeaks(t *testing.T) {
	peaks := windowPeaks(func() {})
	if len(peaks) != 1 || peaks[0] <= 0 {
		t.Errorf("windowPeaks = %v, want one positive peak", peaks)
	}
}

func TestSameHost(t *testing.T) {
	a := Fingerprint{NumCPU: 2, GOMAXPROCS: 2, Workers: 2, CPUModel: "x", GoVersion: "go1", Commit: "a", Seed: 1}
	b := a
	b.Commit, b.Seed = "b", 2
	if ok, _ := a.SameHost(b); !ok {
		t.Error("commit and seed must not block a comparison")
	}
	b.CPUModel = "y"
	if ok, field := a.SameHost(b); ok || field != "cpu_model" {
		t.Errorf("SameHost = %v, %q; want false, cpu_model", ok, field)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r result) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	fp := Fingerprint{NumCPU: 2, GOMAXPROCS: 2, Workers: 2, CPUModel: "x", GoVersion: "go1", Seed: 1}
	counts := []namedValue{{"deployment.wakeups", 10, "count"}}
	a := write("a.json", result{Fingerprint: fp, Workload: "w", Counts: counts,
		Metrics: []namedValue{{"p50_ms", 10, "ms"}}})
	after := fp
	after.Commit = "next"
	b := write("b.json", result{Fingerprint: after, Workload: "w", Counts: counts,
		Metrics: []namedValue{{"p50_ms", 12, "ms"}}})
	var out bytes.Buffer
	if err := compare(&out, []string{a, b}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("+20.0%")) || !bytes.Contains(out.Bytes(), []byte("identical")) {
		t.Errorf("compare output:\n%s", out.String())
	}
	other := fp
	other.NumCPU = 8
	c := write("c.json", result{Fingerprint: other, Workload: "w"})
	if err := compare(&out, []string{a, c}); err == nil {
		t.Error("compared results from different hosts")
	}
	// A changed model: same seed, different simulated counts.
	changed := []namedValue{{"deployment.wakeups", 11, "count"}}
	d := write("d.json", result{Fingerprint: after, Workload: "w", Counts: changed})
	if err := compare(&out, []string{a, d}); err == nil {
		t.Error("passed different simulated counts at the same seed")
	}
	// Counts depend on the seed, so another seed's are not held to them.
	reseeded := after
	reseeded.Seed = 2
	e := write("e.json", result{Fingerprint: reseeded, Workload: "w", Counts: changed})
	out.Reset()
	if err := compare(&out, []string{a, e}); err != nil {
		t.Errorf("different seeds: %v", err)
	}
	if !bytes.Contains(out.Bytes(), []byte("not compared")) {
		t.Errorf("compare output across seeds:\n%s", out.String())
	}
}

func TestCheckReads(t *testing.T) {
	b := &fleetBench{hiveOf: rng.Stream(1, 5).Perm(fleetHives)}
	b.nextOp.Store(2)
	hive, _, at := b.wakeAt(0)
	other, _, otherAt := b.wakeAt(1)
	body := func(recs ...store.Record) []byte {
		out, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	own := []store.Record{{Hive: hive, Time: at}, {Hive: hive, Time: at.Add(uploadDelay)}}
	for _, tc := range []struct {
		name             string
		rd               recordsRead
		foreign, missing int
	}{
		{"own records", recordsRead{0, 1, body(own...)}, 0, 0},
		{"never sent", recordsRead{0, 1, body(append(own, store.Record{Hive: hive, Time: at.Add(time.Hour)})...)}, 1, 0},
		{"another hive's", recordsRead{1, 2, body(store.Record{Hive: hive, Time: at},
			store.Record{Hive: other, Time: otherAt}, store.Record{Hive: other, Time: otherAt.Add(uploadDelay)})}, 1, 0},
		{"empty", recordsRead{0, 1, body()}, 0, 1},
		{"upload missing", recordsRead{0, 1, body(own[0])}, 0, 1},
		{"unparsable", recordsRead{0, 1, []byte("{")}, 1, 0},
		// A whole archive's worth of appends since the wake may have
		// shed its records.
		{"shed", recordsRead{0, fleetArchive / 2, body()}, 0, 0},
	} {
		b.reads = [][]recordsRead{{tc.rd}}
		if f, m := b.checkReads(); f != tc.foreign || m != tc.missing {
			t.Errorf("%s: foreign, missing = %d, %d; want %d, %d", tc.name, f, m, tc.foreign, tc.missing)
		}
	}
}

func TestGitCommit(t *testing.T) {
	dir := t.TempDir()
	if got := gitCommit(dir); got != "unknown" {
		t.Errorf("outside a checkout: %q", got)
	}
	git := filepath.Join(dir, ".git")
	if err := os.MkdirAll(filepath.Join(git, "refs", "heads"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(git, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("HEAD", "ref: refs/heads/main\n")
	write("packed-refs", "# pack-refs\nabc123 refs/heads/main\n")
	if got := gitCommit(dir); got != "abc123" {
		t.Errorf("packed ref: %q", got)
	}
	write(filepath.Join("refs", "heads", "main"), "def456\n")
	if got := gitCommit(dir); got != "def456" {
		t.Errorf("loose ref: %q", got)
	}
	write("HEAD", "0123abcd\n")
	if got := gitCommit(dir); got != "0123abcd" {
		t.Errorf("detached HEAD: %q", got)
	}
}
