package main

import (
	"fmt"
	"time"

	"beesim/internal/audio"
	"beesim/internal/experiments"
	"beesim/internal/ml/cnn"
	"beesim/internal/power"
	"beesim/internal/queendetect"
	"beesim/internal/units"
)

// fig5Sizes is the fixed subset of Figure 5's input sizes: the paper's
// optimum, 100x100. The full sweep (8 sizes) takes about 60 s, too long
// to repeat within one run.
var fig5Sizes = []int{100}

// fig5AccuracyFloor is the lowest held-out accuracy accepted at any
// size, well above chance (0.5). The default seed reaches 0.967 at
// 100x100.
const fig5AccuracyFloor = 0.75

// fig5Bench is the fig5_sweep workload: experiments.Figure5 with its
// default corpus, epochs and seed, so --seed does not change it. Other
// training seeds are not a fixed workload: some (308, 506) leave the
// 100x100 CNN at chance accuracy (README.md).
type fig5Bench struct {
	rc     *runConfig
	cfg    experiments.Figure5Config
	flops  map[int]float64 // the reference net's FLOPs per size
	energy map[int]units.Joules
	edgeS  map[int]float64
	first  []experiments.Figure5Point
	fails  []string
}

func (b *fig5Bench) setup(rc *runConfig) ([]time.Duration, error) {
	b.rc = rc
	var setups []time.Duration
	for i := 0; i < batchSetups; i++ {
		d, err := stopwatch(b.prepare)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	return setups, nil
}

// prepare builds the configuration and, per size, the reference
// network whose FLOPs price the expected edge energy.
func (b *fig5Bench) prepare() error {
	b.cfg = experiments.DefaultFigure5()
	b.cfg.Sizes = fig5Sizes
	b.flops = map[int]float64{}
	b.energy = map[int]units.Joules{}
	b.edgeS = map[int]float64{}
	for _, size := range b.cfg.Sizes {
		net, err := cnn.New(cnn.Config{InputSize: size, Classes: 2, BaseChannels: b.cfg.Channels, Seed: b.cfg.Seed})
		if err != nil {
			return err
		}
		b.flops[size] = net.FLOPs()
		e, d := power.DefaultEdgeInference().Cost(net.FLOPs())
		b.energy[size], b.edgeS[size] = e, d.Seconds()
	}
	return nil
}

func (b *fig5Bench) pass(span time.Duration, sp *spans) (passResult, error) {
	return repeat(b.rc.Clk, span, func() error {
		var pts []experiments.Figure5Point
		_, err := sp.time("experiments.Figure5", -1, func() (err error) {
			pts, err = experiments.Figure5(b.cfg)
			return err
		})
		if err != nil {
			return err
		}
		b.checkPoints(pts)
		return nil
	})
}

// checkPoints verifies one sweep: every size present, accuracy at or
// above the floor, edge cost equal to the power model at the net's
// FLOPs, and the same result as the run's first repetition.
func (b *fig5Bench) checkPoints(pts []experiments.Figure5Point) {
	if len(pts) != len(b.cfg.Sizes) {
		b.fails = append(b.fails, fmt.Sprintf("figure 5 returned %d points for %d sizes", len(pts), len(b.cfg.Sizes)))
		return
	}
	for i, p := range pts {
		switch {
		case p.Size != b.cfg.Sizes[i]:
			b.fails = append(b.fails, fmt.Sprintf("point %d has size %d, want %d", i, p.Size, b.cfg.Sizes[i]))
		case p.Accuracy < fig5AccuracyFloor:
			b.fails = append(b.fails, fmt.Sprintf("size %d accuracy %.4f below floor %.2f", p.Size, p.Accuracy, fig5AccuracyFloor))
		case p.FLOPs != b.flops[p.Size] || p.EdgeEnergy != b.energy[p.Size] || p.EdgeSeconds != b.edgeS[p.Size]:
			b.fails = append(b.fails, fmt.Sprintf("size %d edge cost (%g FLOPs, %g J) differs from the power model at the net's FLOPs (%g, %g J)",
				p.Size, p.FLOPs, float64(p.EdgeEnergy), b.flops[p.Size], float64(b.energy[p.Size])))
		}
	}
	if b.first == nil {
		b.first = pts
		return
	}
	for i := range pts {
		if pts[i] != b.first[i] {
			b.fails = append(b.fails, fmt.Sprintf("size %d: repetition differs from the first (%+v vs %+v)", pts[i].Size, pts[i], b.first[i]))
		}
	}
}

func (b *fig5Bench) report(p passResult, out *metrics) {
	batchReport(p, out)
	for _, pt := range b.first {
		out.set(fmt.Sprintf("accuracy.%d", pt.Size), pt.Accuracy, "frac")
	}
}

// probes times the sweep's stages on its own inputs: synthesizing the
// corpus, the mel front end on one clip, training the 100x100 CNN on
// the training share of the corpus, and one forward pass.
func (b *fig5Bench) probes(sp *spans, layer *metrics) error {
	layer.set("experiments.sweep_ms", median(sp.durations("experiments.Figure5")), "ms")
	var corpus []audio.LabeledClip
	d, err := sp.time("audio.synth", -1, func() (err error) {
		corpus, err = audio.Corpus(audio.Config{SampleRate: audio.SampleRate, Seconds: b.cfg.ClipSeconds, Seed: b.cfg.Seed}, b.cfg.CorpusSize)
		return err
	})
	if err != nil {
		return err
	}
	layer.set("audio.synth_s", d.Seconds(), "s")
	plan, err := queendetect.FrontEnd(audio.SampleRate)
	if err != nil {
		return err
	}
	mel, err := probeMedian(sp, "dsp.mel", 10, ms, func() error { _, err := plan.MelSpectrogram(corpus[0].Samples); return err })
	if err != nil {
		return err
	}
	layer.set("dsp.mel_ms", mel, "ms")
	const size = 100
	examples, _, err := queendetect.BuildImageDataset(corpus, audio.SampleRate, size)
	if err != nil {
		return err
	}
	net, err := cnn.New(cnn.Config{InputSize: size, Classes: 2, BaseChannels: b.cfg.Channels, Seed: b.cfg.Seed})
	if err != nil {
		return err
	}
	tc := cnn.PaperTrain()
	tc.Epochs, tc.LR, tc.Seed = b.cfg.Epochs, b.cfg.LearningRate, b.cfg.Seed
	d, err = sp.time("cnn.train", -1, func() error { return net.Train(examples[:len(examples)*3/4], tc) })
	if err != nil {
		return err
	}
	layer.set("cnn.train_s", d.Seconds(), "s")
	fwd, err := probeMedian(sp, "cnn.forward", 20, ms, func() error { net.Forward(examples[0].Image); return nil })
	if err != nil {
		return err
	}
	layer.set("cnn.forward_ms", fwd, "ms")
	layer.set("cnn.mflops", net.FLOPs()/1e6, "count")
	return nil
}

func (b *fig5Bench) check() []string { return b.fails }
func (b *fig5Bench) close() error    { return nil }
