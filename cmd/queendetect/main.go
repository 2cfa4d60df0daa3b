// Command queendetect trains and evaluates the queen-detection service
// of Section V on a synthetic corpus, and regenerates Figure 5's
// accuracy/energy-vs-input-size sweep.
//
// Usage:
//
//	queendetect train [-corpus 200] [-clip 2] [-model svm|cnn|both]
//	queendetect fig5  [-corpus 120] [-epochs 6] [-sizes 20,40,...,160] [-csv out.csv]
//	queendetect synth -out clip.wav [-state present|lost|piping]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"beesim/internal/audio"
	"beesim/internal/experiments"
	"beesim/internal/hive"
	"beesim/internal/queendetect"
	"beesim/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = train(os.Args[2:])
	case "fig5":
		err = fig5(os.Args[2:])
	case "synth":
		err = synth(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "queendetect: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "queendetect:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: queendetect <train|fig5|synth> [flags]`)
}

func corpusFor(n int, clipSeconds float64, seed uint64) ([]audio.LabeledClip, error) {
	return audio.Corpus(audio.Config{
		SampleRate: audio.SampleRate,
		Seconds:    clipSeconds,
		Seed:       seed,
	}, n)
}

func train(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	n := fs.Int("corpus", 200, "corpus size (the paper uses 1647)")
	clip := fs.Float64("clip", 2, "clip length in seconds (paper: 10)")
	model := fs.String("model", "both", "svm, cnn or both")
	size := fs.Int("size", 100, "CNN input size (paper optimum: 100)")
	epochs := fs.Int("epochs", 6, "CNN training epochs (paper: 4)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	corpus, err := corpusFor(*n, *clip, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("corpus: %d clips of %.0f s at %d Hz\n\n", *n, *clip, audio.SampleRate)

	if *model == "svm" || *model == "both" {
		res, err := queendetect.TrainSVM(corpus, audio.SampleRate, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("SVM (RBF, C=20):\n")
		fmt.Printf("  accuracy %.1f%%  precision %.1f%%  recall %.1f%%  F1 %.1f%%\n",
			100*res.Metrics.Accuracy, 100*res.Metrics.Precision,
			100*res.Metrics.Recall, 100*res.Metrics.F1)
		fmt.Printf("  support vectors: %d\n", res.Model.NumSupportVectors())
		fmt.Printf("  edge inference: %v in %v\n\n", res.EdgeEnergy, res.EdgeDuration.Round(0))
	}
	if *model == "cnn" || *model == "both" {
		opts := queendetect.DefaultCNNOptions()
		opts.Size = *size
		opts.Seed = *seed
		opts.Train.Epochs = *epochs
		opts.Train.LR = 0.01
		res, err := queendetect.TrainCNN(corpus, audio.SampleRate, opts)
		if err != nil {
			return err
		}
		fmt.Printf("CNN (%dx%d input, %d epochs):\n", *size, *size, *epochs)
		fmt.Printf("  accuracy %.1f%%  precision %.1f%%  recall %.1f%%  F1 %.1f%%\n",
			100*res.Metrics.Accuracy, 100*res.Metrics.Precision,
			100*res.Metrics.Recall, 100*res.Metrics.F1)
		fmt.Printf("  forward pass: %.1f MFLOPs\n", res.FLOPs/1e6)
		fmt.Printf("  edge inference: %v in %v\n", res.EdgeEnergy, res.EdgeDuration.Round(0))
	}
	return nil
}

func fig5(args []string) error {
	fs := flag.NewFlagSet("fig5", flag.ExitOnError)
	n := fs.Int("corpus", 120, "corpus size")
	epochs := fs.Int("epochs", 6, "CNN training epochs")
	sizesFlag := fs.String("sizes", "20,40,60,80,100,120,140,160", "comma-separated input sizes")
	csvPath := fs.String("csv", "", "write the series to this CSV file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sizes []int
	for _, tok := range strings.Split(*sizesFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("bad size %q: %w", tok, err)
		}
		sizes = append(sizes, v)
	}
	cfg := experiments.DefaultFigure5()
	cfg.Sizes = sizes
	cfg.CorpusSize = *n
	cfg.Epochs = *epochs
	fmt.Printf("Figure 5 sweep: sizes %v, corpus %d (training %d CNNs; this takes a while)\n\n",
		sizes, *n, len(sizes))
	pts, err := experiments.Figure5(cfg)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 5: accuracy and edge inference energy vs input size",
		"Input", "Accuracy", "Edge energy (J)", "Edge time (s)", "MFLOPs")
	for _, p := range pts {
		t.MustAddRow(
			fmt.Sprintf("%dx%d", p.Size, p.Size),
			fmt.Sprintf("%.1f%%", 100*p.Accuracy),
			fmt.Sprintf("%.1f", float64(p.EdgeEnergy)),
			fmt.Sprintf("%.1f", p.EdgeSeconds),
			fmt.Sprintf("%.1f", p.FLOPs/1e6))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	acc, energy, err := experiments.Figure5Series(pts)
	if err != nil {
		return err
	}
	if *csvPath != "" {
		err := report.WriteFile(*csvPath, func(w io.Writer) error {
			return report.WriteSeriesCSV(w, "input size", acc, energy)
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nseries written to %s\n", *csvPath)
	}
	return nil
}

func synth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	out := fs.String("out", "", "output WAV path (required)")
	state := fs.String("state", "present", "queen state: present, lost or piping")
	seconds := fs.Float64("seconds", 10, "clip length")
	activity := fs.Float64("activity", 0.7, "colony activity in [0,1]")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	var q hive.QueenState
	switch *state {
	case "present":
		q = hive.QueenPresent
	case "lost":
		q = hive.QueenLost
	case "piping":
		q = hive.QueenPiping
	default:
		return fmt.Errorf("unknown state %q", *state)
	}
	s, err := audio.NewSynth(audio.Config{
		SampleRate: audio.SampleRate, Seconds: *seconds, Seed: *seed})
	if err != nil {
		return err
	}
	clip := s.Clip(q, *activity)
	err = report.WriteFile(*out, func(w io.Writer) error {
		return audio.WriteWAV(w, clip, audio.SampleRate)
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %.0f s of %s hive sound to %s\n", *seconds, q, *out)
	return nil
}
