//beelint:allow walltime the live server under test keeps real uptime and dashboard windows; the harness measures real time

package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"beesim/internal/audio"
	"beesim/internal/hive"
	"beesim/internal/hivenet"
	"beesim/internal/proto"
	"beesim/internal/queendetect"
	"beesim/internal/rng"
	"beesim/internal/store"
)

// Constants shared by the server workloads. The latency limit is the
// paper's cloud SVM execution slot (Table II: 0.1 s).
const (
	setupRepeats = 3 // server constructions timed per run
	latencyLimit = 100 * time.Millisecond
	fullSamples  = 1050 // per rate with --full, so p99 is reportable
	warmUp       = time.Second
)

// serverRig is what both server workloads share: the server under
// test, its client sessions and the open-loop phases run against it.
type serverRig struct {
	rc       *runConfig
	srv      *hivenet.Server
	served   chan error
	sessions []*session
	passes   int
	low      phase
	high     phase
	ladder   []phase
	maxRate  float64
}

// startServers constructs the server setupRepeats times (timing each,
// closing all but the last), serves the last one and dials one session
// per pinned worker.
func (r *serverRig) startServers(rc *runConfig, cfgFor func(i int) hivenet.ServerConfig) ([]time.Duration, error) {
	r.rc = rc
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		var srv *hivenet.Server
		d, err := stopwatch(func() (err error) {
			srv, err = hivenet.NewServer("127.0.0.1:0", cfgFor(i))
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if i < setupRepeats-1 {
			if err := srv.Close(); err != nil {
				return nil, err
			}
			continue
		}
		r.srv = srv
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve() }() //beelint:allow gostmt the server under test accepts real TCP connections
	for w := 0; w < rc.Workers; w++ {
		s, err := dialSession(r.srv.Addr(), fmt.Sprintf("bench-session-%d", w))
		if err != nil {
			return nil, err
		}
		r.sessions = append(r.sessions, s)
	}
	return setups, nil
}

// runPhases runs the low and high phases, and with --full the ladder,
// each at a constant rate with a seeded phase. do(w, i) performs
// operation i of the phase on session w.
func (r *serverRig) runPhases(span time.Duration, sp *spans, lowRate, highRate float64, ladder []float64,
	do func(w, i int) outcome) passResult {
	r.passes++
	runPhase := func(rate float64, span time.Duration, stream uint64) phase {
		offset := rng.Stream(r.rc.Seed, uint64(r.passes)<<16|stream).Float64()
		due := constantSchedule(rate, r.rc.Clk.Now(), span, offset)
		fns := make([]func(int) outcome, len(r.sessions))
		for w := range fns {
			fns[w] = func(i int) outcome { return do(w, i) }
		}
		parent := sp.begin(fmt.Sprintf("phase.%g", rate), -1)
		recs := runOpenLoop(r.rc.Clk, due, fns)
		sp.end(parent)
		for _, rec := range recs {
			traceOp(sp, rec, parent)
		}
		ph := summarize(recs)
		ph.Rate = rate
		return ph
	}
	// fullSpan is how long a rate must run to reach fullSamples.
	fullSpan := func(rate float64) time.Duration {
		return time.Duration(fullSamples / rate * float64(time.Second))
	}
	phaseSpan := func(rate float64) time.Duration {
		if r.rc.Full {
			return max(span/2, fullSpan(rate))
		}
		return span / 2
	}
	// A short unrecorded warm-up at the low rate lets the heap and the
	// connections settle before anything is measured.
	runPhase(lowRate, warmUp, 0)
	before, mem := cpuTime(), memNow()
	r.low = runPhase(lowRate, phaseSpan(lowRate), 1)
	// The high rate holds the most frames in flight and comes last,
	// when a fleet's archive and recorders are fullest: its typical
	// one-second peak is the pass's peak.
	peaks := windowPeaks(func() { r.high = runPhase(highRate, phaseSpan(highRate), 2) })
	p := passResult{CPU: cpuTime() - before, Mem: memDelta(mem), PeakMB: median(peaks)}
	for _, ph := range []phase{r.low, r.high} {
		p.Tally.add(ph.Tally)
		p.OpMS = append(p.OpMS, ph.Latency...)
		p.Lag = append(p.Lag, ph.Lag...)
	}
	if r.rc.Full && sp == nil {
		r.ladder = nil
		for k, rate := range ladder {
			ph := runPhase(rate, max(2*time.Second, fullSpan(rate)), uint64(10+k))
			r.ladder = append(r.ladder, ph)
			if !ph.within(latencyLimit) {
				break
			}
			r.maxRate = rate
		}
	}
	return p
}

// report adds the server workloads' end-to-end metrics: per rate the
// median, the highest tail percentile with ten samples beyond it, and
// the sample count.
func (r *serverRig) report(_ passResult, out *metrics) {
	for _, ph := range []struct {
		name string
		p    phase
	}{{"low", r.low}, {"high", r.high}} {
		out.set("p50_ms."+ph.name, median(ph.p.Latency), "ms")
		if name, v, ok := tail(ph.p.Latency); ok {
			out.set(name+"_ms."+ph.name, v, "ms")
		}
		out.set("samples."+ph.name, float64(len(ph.p.Latency)), "count")
		out.set("lag_p50_ms."+ph.name, median(ph.p.Lag), "ms")
	}
	if r.rc.Full {
		for _, step := range r.ladder {
			if v, ok := percentile(step.Latency, 0.99); ok {
				out.set(fmt.Sprintf("ladder.%g.p99_ms", step.Rate), v, "ms")
			}
		}
		out.set("max_rate_per_s", r.maxRate, "1/s")
	}
}

// hivenetLayer fills the hivenet layer's metrics from the traced pass's
// spans and the server's counters.
func (r *serverRig) hivenetLayer(sp *spans, layer *metrics) {
	layer.set("hivenet.wait_ms", median(sp.durations("hivenet.wait")), "ms")
	layer.set("hivenet.service_ms", median(sp.durations("hivenet.service")), "ms")
	st := r.srv.Stats()
	layer.set("hivenet.rejects", float64(st.Rejects), "count")
	layer.set("hivenet.shed", float64(st.ArchiveShed), "count")
	layer.set("store.records", float64(r.srv.Archive().Len()), "count")
	layer.set("store.evicted", float64(r.srv.Archive().Evicted()), "count")
}

// traceOp records an operation's queue wait and service as spans under
// its phase's span.
func traceOp(sp *spans, rec opRecord, parent int) {
	if sp == nil {
		return
	}
	sp.add("hivenet.wait", rec.Due, rec.Start, parent)
	sp.add("hivenet.service", rec.Start, rec.Done, parent)
}

func (r *serverRig) close() error {
	var errs []error
	for _, s := range r.sessions {
		errs = append(errs, s.close())
	}
	if r.srv != nil {
		errs = append(errs, r.srv.Close())
		errs = append(errs, <-r.served)
	}
	return errors.Join(errs...)
}

// probeMedian times fn n times and returns the median in the unit
// conv gives, recording each call as a span named name.
func probeMedian(sp *spans, name string, n int, conv func(time.Duration) float64, fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		d, err := sp.time(name, -1, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, conv(d))
	}
	return median(xs), nil
}

// clipProbes times the cloud inference path's public calls on one of
// the workload's own clips: PCM decode, the mel front end, the SVM
// service's Predict, the feature vector and the decision function.
func clipProbes(sp *spans, layer *metrics, ref *queendetect.SVMResult, pcm []byte, n int) error {
	samples, err := proto.PCMDecode(pcm)
	if err != nil {
		return err
	}
	plan, err := queendetect.FrontEnd(audio.SampleRate)
	if err != nil {
		return err
	}
	vec, err := queendetect.VectorFeatures(samples, audio.SampleRate)
	if err != nil {
		return err
	}
	scaled := ref.Scaler.Transform(vec)
	probes := []struct {
		name string
		conv func(time.Duration) float64
		fn   func() error
	}{
		{"proto.pcm_decode_ms", ms, func() error { _, err := proto.PCMDecode(pcm); return err }},
		{"dsp.mel_ms", ms, func() error { _, err := plan.MelSpectrogram(samples); return err }},
		{"queendetect.predict_ms", ms, func() error { _, err := ref.Predict(samples, audio.SampleRate); return err }},
		{"queendetect.vector_features_ms", ms, func() error {
			_, err := queendetect.VectorFeatures(samples, audio.SampleRate)
			return err
		}},
		{"svm.decision_us", us, func() error { ref.Model.Decision(scaled); return nil }},
	}
	for _, p := range probes {
		v, err := probeMedian(sp, p.name, n, p.conv, p.fn)
		if err != nil {
			return err
		}
		layer.set(p.name, v, p.name[len(p.name)-2:])
	}
	return nil
}

// frameProbes times proto.Encode and proto.Decode of one of the
// workload's frames.
func frameProbes(sp *spans, layer *metrics, t proto.Type, body any, raw []byte, n int) error {
	var buf bytes.Buffer
	enc, err := probeMedian(sp, "proto.encode", n, us, func() error {
		buf.Reset()
		return proto.Encode(&buf, t, body, raw)
	})
	if err != nil {
		return err
	}
	wire := append([]byte(nil), buf.Bytes()...)
	dec, err := probeMedian(sp, "proto.decode", n, us, func() error {
		_, err := proto.Decode(bytes.NewReader(wire))
		return err
	})
	if err != nil {
		return err
	}
	layer.set("proto.encode_us", enc, "us")
	layer.set("proto.decode_us", dec, "us")
	return nil
}

// storeProbes times store.Append and store.Query on a fresh store
// holding the workload's own records.
func storeProbes(sp *spans, layer *metrics, st *store.Store, recs []store.Record) error {
	var appends []float64
	for _, rec := range recs {
		d, err := sp.time("store.append", -1, func() error { return st.Append(rec) })
		if err != nil {
			return err
		}
		appends = append(appends, us(d))
	}
	q, err := probeMedian(sp, "store.query", 50, us, func() error {
		_, err := st.Query(recs[0].Hive, baseTime.Add(-time.Hour), baseTime.Add(1000*time.Hour), 0)
		return err
	})
	if err != nil {
		return err
	}
	layer.set("store.append_us", median(appends), "us")
	layer.set("store.query_us", q, "us")
	return nil
}

// synthProbe times synthesis of the server's training corpus.
func synthProbe(sp *spans, layer *metrics, cfg hivenet.ServerConfig) error {
	d, err := sp.time("audio.synth", -1, func() error {
		_, err := audio.Corpus(audio.Config{SampleRate: audio.SampleRate, Seconds: cfg.ClipSeconds, Seed: cfg.Seed}, cfg.TrainCorpus)
		return err
	})
	layer.set("audio.synth_s", d.Seconds(), "s")
	return err
}

// trainReference trains the offline twin of the server's detector: the
// same corpus, seed and configuration NewServer uses.
func trainReference(cfg hivenet.ServerConfig) (*queendetect.SVMResult, error) {
	corpus, err := audio.Corpus(audio.Config{SampleRate: audio.SampleRate, Seconds: cfg.ClipSeconds, Seed: cfg.Seed}, cfg.TrainCorpus)
	if err != nil {
		return nil, err
	}
	return queendetect.TrainSVM(corpus, audio.SampleRate, cfg.Seed)
}

// synthClips synthesizes n distinct clips of secs seconds, alternating
// queen-present and queenless, with activity drawn from seed.
func synthClips(seed uint64, n int, secs float64) ([][]float64, error) {
	synth, err := audio.NewSynth(audio.Config{SampleRate: audio.SampleRate, Seconds: secs, Seed: seed})
	if err != nil {
		return nil, err
	}
	src := rng.Stream(seed, 7)
	var clips [][]float64
	for i := 0; i < n; i++ {
		state := hive.QueenPresent
		if i%2 == 1 {
			state = hive.QueenLost
		}
		clips = append(clips, synth.Clip(state, src.Range(0.2, 1)))
	}
	return clips, nil
}
