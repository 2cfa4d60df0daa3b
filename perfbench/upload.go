//beelint:allow walltime the live server under test keeps real uptime and dashboard windows; the harness measures real time

package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"beesim/internal/audio"
	"beesim/internal/hivenet"
	"beesim/internal/proto"
	"beesim/internal/queendetect"
	"beesim/internal/rng"
	"beesim/internal/store"
)

// upload_10s constants. The rates are fixed, so every commit is measured
// at the same offered load.
const (
	uploadClips    = 8    // distinct 10 s clips, half queen-present
	uploadClipSecs = 10.0 // the paper's clip length
	uploadLowRate  = 15.0 // uploads/s
	uploadHighRate = 35.0 // uploads/s
)

var uploadLadder = []float64{20, 25, 30, 35, 40, 45, 50}

// uploadBench is the upload_10s workload.
type uploadBench struct {
	serverRig
	cfg      hivenet.ServerConfig
	ref      *queendetect.SVMResult
	pcm      [][]byte
	expected []bool // the reference verdict per clip
	nextOp   atomic.Int64
	results  atomic.Int64
	wrong    atomic.Int64
}

func (b *uploadBench) setup(rc *runConfig) ([]time.Duration, error) {
	b.cfg = hivenet.DefaultServerConfig()
	b.cfg.Seed = rc.Seed
	setups, err := b.startServers(rc, func(int) hivenet.ServerConfig { return b.cfg })
	if err != nil {
		return nil, err
	}
	if b.ref, err = trainReference(b.cfg); err != nil {
		return nil, err
	}
	clips, err := synthClips(rc.Seed, uploadClips, uploadClipSecs)
	if err != nil {
		return nil, err
	}
	for _, c := range clips {
		pcm := proto.PCMEncode(c)
		// The server sees the PCM round trip, so the reference does too.
		samples, err := proto.PCMDecode(pcm)
		if err != nil {
			return nil, err
		}
		want, err := b.ref.Predict(samples, audio.SampleRate)
		if err != nil {
			return nil, err
		}
		b.pcm = append(b.pcm, pcm)
		b.expected = append(b.expected, want)
	}
	return setups, nil
}

// upload sends clip k as operation seq of the run and checks the verdict.
func (b *uploadBench) upload(s *session, seq int64, k int) outcome {
	up := proto.AudioUpload{
		HiveID:     fmt.Sprintf("hive-%02d", k),
		Time:       baseTime.Add(time.Duration(seq) * time.Second),
		SampleRate: audio.SampleRate,
		Samples:    len(b.pcm[k]) / 2,
	}
	f, err := s.roundTrip(proto.TypeAudioUpload, up, b.pcm[k])
	var res proto.Result
	if err == nil {
		err = expect(f, proto.TypeResult, &res)
	}
	if err == nil {
		b.results.Add(1)
		if res.QueenPresent != b.expected[k] {
			b.wrong.Add(1)
		}
	}
	return outcomeOf(err)
}

func (b *uploadBench) pass(span time.Duration, sp *spans) (passResult, error) {
	return b.runPhases(span, sp, uploadLowRate, uploadHighRate, uploadLadder, func(w, i int) outcome {
		seq := b.nextOp.Add(1)
		// A seeded pure function of seq picks the clip.
		return b.upload(b.sessions[w], seq, int(rng.StreamSeed(b.rc.Seed, uint64(seq))%uploadClips))
	}), nil
}

func (b *uploadBench) probes(sp *spans, layer *metrics) error {
	b.hivenetLayer(sp, layer)
	k := 0
	if err := clipProbes(sp, layer, b.ref, b.pcm[k], 10); err != nil {
		return err
	}
	up := proto.AudioUpload{HiveID: "hive-00", Time: baseTime, SampleRate: audio.SampleRate, Samples: len(b.pcm[k]) / 2}
	if err := frameProbes(sp, layer, proto.TypeAudioUpload, up, b.pcm[k], 20); err != nil {
		return err
	}
	d, err := sp.time("svm.train", -1, func() error { _, err := trainReference(b.cfg); return err })
	if err != nil {
		return err
	}
	layer.set("svm.train_s", d.Seconds(), "s")
	if err := synthProbe(sp, layer, b.cfg); err != nil {
		return err
	}
	var recs []store.Record
	for i := 0; i < 200; i++ {
		recs = append(recs, store.Record{
			Hive: fmt.Sprintf("hive-%02d", i%uploadClips), Time: baseTime.Add(time.Duration(i) * time.Second),
			Kind: store.KindResult, Fields: map[string]float64{"queen_present": 1, "confidence": 0.5},
			Text: map[string]string{"computed_at": "cloud"},
		})
	}
	return storeProbes(sp, layer, store.OpenMemory(), recs)
}

func (b *uploadBench) check() []string {
	var fails []string
	if n := b.wrong.Load(); n > 0 {
		fails = append(fails, fmt.Sprintf("%d verdicts differ from the offline detector", n))
	}
	if got, want := b.srv.Stats().Uploads, int(b.results.Load()); got != want {
		fails = append(fails, fmt.Sprintf("server counted %d uploads, client received %d results", got, want))
	}
	return fails
}
