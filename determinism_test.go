package beesim

// The determinism suite: the parallel execution layer's contract is
// that the worker count changes wall-clock time and nothing else. For
// every wired hot path — the figure sweeps, the optimizer search, the
// DSP front end behind a queendetect clip classification, and the
// campaign/replica batching — these tests render the observable output
// (series CSV, ledger JSONL, metrics CSV, raw feature vectors) at
// workers 1, 2 and 8 and require the bytes to be identical.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"beesim/internal/audio"
	"beesim/internal/deployment"
	"beesim/internal/dsp"
	"beesim/internal/experiments"
	"beesim/internal/ledger"
	"beesim/internal/obs"
	"beesim/internal/optimizer"
	"beesim/internal/parallel"
	"beesim/internal/queendetect"
	"beesim/internal/report"
	"beesim/internal/services"
	"beesim/internal/swarm"
)

// determinismWorkers are the worker counts every hot path is checked
// at: the serial legacy path, a small pool, and an oversubscribed one.
var determinismWorkers = []int{1, 2, 8}

// renderSweep runs one instrumented sweep and flattens everything a
// caller can observe — points, series CSV, ledger JSONL, metrics CSV —
// into one byte slice.
func renderSweep(t *testing.T, cfg experiments.SweepConfig, workers int) []byte {
	t.Helper()
	cfg.Workers = workers
	cfg.Metrics = obs.NewRegistry()
	cfg.Ledger = ledger.New()
	pts, err := experiments.Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	edge, cloud, servers, err := experiments.SweepSeries(pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.WriteSeriesCSV(&buf, "clients", edge, cloud, servers); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Ledger.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteMetricsCSV(&buf, maskWorkers(cfg.Metrics.Snapshot())); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// maskWorkers drops the parallel_workers gauge from a snapshot: it is
// the one metric that legitimately names the worker count, so it is
// excluded before the byte comparison. Everything else must match.
func maskWorkers(s obs.Snapshot) obs.Snapshot {
	kept := s.Gauges[:0:0]
	for _, g := range s.Gauges {
		if g.Name != parallel.MetricWorkers {
			kept = append(kept, g)
		}
	}
	s.Gauges = kept
	return s
}

// TestSweepDeterministicAcrossWorkers is the tentpole invariant for
// the figure sweeps: workers 1, 2 and 8 produce byte-identical CSV,
// ledger JSONL and metrics CSV for every figure of the paper.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweeps are slow; run without -short")
	}
	cases := []struct {
		name string
		cfg  func() (experiments.SweepConfig, error)
	}{
		{"figure6", experiments.Figure6Config},
		{"figure7cap35", func() (experiments.SweepConfig, error) { return experiments.Figure7Config(35) }},
		{"figure8all", func() (experiments.SweepConfig, error) { return experiments.Figure8Config(experiments.LossAll) }},
		{"figure8lossC", func() (experiments.SweepConfig, error) { return experiments.Figure8Config(experiments.LossC) }},
		{"figure9", experiments.Figure9Config},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := tc.cfg()
			if err != nil {
				t.Fatal(err)
			}
			want := renderSweep(t, cfg, determinismWorkers[0])
			if len(want) == 0 {
				t.Fatal("empty render")
			}
			for _, w := range determinismWorkers[1:] {
				if got := renderSweep(t, cfg, w); !bytes.Equal(got, want) {
					t.Errorf("workers=%d output diverged from workers=1 (%d vs %d bytes)",
						w, len(got), len(want))
				}
			}
		})
	}
}

// TestOptimizeDeterministicAcrossWorkers pins the optimizer hot path:
// the full Result and the metrics snapshot CSV are identical for every
// worker count.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	req := optimizer.Requirements{
		Hives:        400,
		Services:     []services.Kind{services.QueenDetection, services.SwarmPrediction},
		MaxStaleness: 2 * time.Hour,
		Losses:       PaperLosses(true, true, false),
	}
	run := func(workers int) (optimizer.Result, []byte) {
		opts := optimizer.DefaultOptions()
		opts.Workers = workers
		opts.Metrics = obs.NewRegistry()
		res, err := optimizer.Optimize(req, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteMetricsCSV(&buf, maskWorkers(opts.Metrics.Snapshot())); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	wantRes, wantCSV := run(determinismWorkers[0])
	for _, w := range determinismWorkers[1:] {
		gotRes, gotCSV := run(w)
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("workers=%d optimizer result diverged from workers=1", w)
		}
		if !bytes.Equal(gotCSV, wantCSV) {
			t.Errorf("workers=%d optimizer metrics diverged from workers=1", w)
		}
	}
}

// TestQueendetectClipDeterministicAcrossWorkers drives the DSP hot
// path end to end: the mel front end and the derived piping score of
// one synthesized clip must not depend on the process-default worker
// count (which the internal STFT/mel chunking picks up), whether the
// precomputation caches are cold or warm.
func TestQueendetectClipDeterministicAcrossWorkers(t *testing.T) {
	defer parallel.SetDefault(0)
	corpus, err := SynthesizeCorpus(DefaultAudioConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	clip := corpus[0].Samples

	render := func(workers int) []byte {
		parallel.SetDefault(workers)
		dsp.ResetCaches() // cold caches must give the same bytes as warm
		vec, err := queendetect.VectorFeatures(clip, audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		img, err := queendetectImage(clip)
		if err != nil {
			t.Fatal(err)
		}
		scores := pipingScores(t, clip, corpus[1].Samples)
		out, err := json.Marshal(struct {
			Vec    []float64
			Img    []float64
			Scores []float64
		}{vec, img, scores})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := render(determinismWorkers[0])
	for _, w := range determinismWorkers[1:] {
		if got := render(w); !bytes.Equal(got, want) {
			t.Errorf("workers=%d clip features diverged from workers=1", w)
		}
	}
	// Warm-cache rerun at the last worker count: memoized twiddles,
	// windows and filterbanks must be bit-identical to the cold build.
	if got := func() []byte {
		vec, err := queendetect.VectorFeatures(clip, audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		img, err := queendetectImage(clip)
		if err != nil {
			t.Fatal(err)
		}
		scores := pipingScores(t, clip, corpus[1].Samples)
		out, err := json.Marshal(struct {
			Vec    []float64
			Img    []float64
			Scores []float64
		}{vec, img, scores})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}(); !bytes.Equal(got, want) {
		t.Error("warm-cache features diverged from cold-cache features")
	}
}

// queendetectImage renders the CNN-sized image features of a clip as a
// flat vector.
// pipingScores computes the swarm service's piping score of each clip.
func pipingScores(t *testing.T, clips ...[]float64) []float64 {
	t.Helper()
	scores := make([]float64, len(clips))
	for i, clip := range clips {
		score, err := swarm.PipingScore(clip, audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		scores[i] = score
	}
	return scores
}

func queendetectImage(clip []float64) ([]float64, error) {
	img, err := queendetect.ImageFeatures(clip, audio.SampleRate, 32)
	if err != nil {
		return nil, err
	}
	return img.Flatten(), nil
}

// TestCampaignAndReplicasDeterministicAcrossWorkers covers the batch
// hot path: the Section-IV campaign statistics and a deployment
// replica ensemble are identical for every worker count.
func TestCampaignAndReplicasDeterministicAcrossWorkers(t *testing.T) {
	wantStats, err := experiments.RoutineStatsWorkers(319, determinismWorkers[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg := deployment.DefaultConfig()
	cfg.Days = 1
	wantTraces, err := deployment.RunReplicas(cfg, 3, determinismWorkers[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range determinismWorkers[1:] {
		st, err := experiments.RoutineStatsWorkers(319, w)
		if err != nil {
			t.Fatal(err)
		}
		if st != wantStats {
			t.Errorf("workers=%d campaign stats diverged: %+v vs %+v", w, st, wantStats)
		}
		traces, err := deployment.RunReplicas(cfg, 3, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(traces, wantTraces) {
			t.Errorf("workers=%d replica traces diverged from workers=1", w)
		}
	}
}

// TestWorkersRecordedInMetrics pins the obs plumbing: an instrumented
// sweep snapshot names the worker count it ran at.
func TestWorkersRecordedInMetrics(t *testing.T) {
	cfg, err := experiments.Figure6Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.From, cfg.To = 10, 20
	cfg.Workers = 3
	cfg.Metrics = obs.NewRegistry()
	if _, err := experiments.Sweep(cfg); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Metrics.Gauge(parallel.MetricWorkers).Value(); got != 3 {
		t.Fatalf("%s = %v, want 3", parallel.MetricWorkers, got)
	}
}

// TestExampleSweepMatchesScalarRun guards against the parallel commit
// pass reordering points: client counts must ascend exactly as the
// serial loop produced them.
func TestExampleSweepMatchesScalarRun(t *testing.T) {
	cfg, err := experiments.Figure8Config(experiments.LossC)
	if err != nil {
		t.Fatal(err)
	}
	cfg.From, cfg.To, cfg.Workers = 10, 60, 8
	pts, err := experiments.Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if want := 10 + i; p.Clients != want {
			t.Fatalf("point %d: clients = %d, want %d", i, p.Clients, want)
		}
	}
}
