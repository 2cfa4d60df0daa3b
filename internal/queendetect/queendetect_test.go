package queendetect

import (
	"testing"

	"beesim/internal/audio"
	"beesim/internal/hive"
	"beesim/internal/ml/cnn"
)

// testCorpus builds a small corpus of short clips so the full pipeline
// stays fast under `go test`.
func testCorpus(t *testing.T, n int) []audio.LabeledClip {
	t.Helper()
	cfg := audio.Config{SampleRate: audio.SampleRate, Seconds: 1, Seed: 5}
	corpus, err := audio.Corpus(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func TestFeaturesShape(t *testing.T) {
	corpus := testCorpus(t, 2)
	mel, err := Features(corpus[0].Samples, audio.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if mel.Rows != 128 {
		t.Fatalf("mel rows = %d, want 128 (paper)", mel.Rows)
	}
	lo, hi := mel.MinMax()
	if lo < 0 || hi > 1 {
		t.Fatalf("normalized mel range = [%v,%v]", lo, hi)
	}
}

func TestVectorFeaturesLength(t *testing.T) {
	corpus := testCorpus(t, 2)
	v, err := VectorFeatures(corpus[0].Samples, audio.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 128 {
		t.Fatalf("vector features = %d dims, want 128", len(v))
	}
}

func TestImageFeaturesSizes(t *testing.T) {
	corpus := testCorpus(t, 2)
	for _, size := range []int{20, 60, 100} {
		img, err := ImageFeatures(corpus[0].Samples, audio.SampleRate, size)
		if err != nil {
			t.Fatal(err)
		}
		if img.Rows != size || img.Cols != size {
			t.Fatalf("image = %dx%d, want %dx%d", img.Rows, img.Cols, size, size)
		}
	}
}

func TestBuildDatasets(t *testing.T) {
	corpus := testCorpus(t, 8)
	d, err := BuildVectorDataset(corpus, audio.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 8 || d.Dim() != 128 || d.Classes() != 2 {
		t.Fatalf("vector dataset %d x %d, %d classes", d.Len(), d.Dim(), d.Classes())
	}
	examples, flat, err := BuildImageDataset(corpus, audio.SampleRate, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) != 8 || flat.Dim() != 24*24 {
		t.Fatalf("image dataset %d examples, dim %d", len(examples), flat.Dim())
	}
	if _, err := BuildVectorDataset(nil, audio.SampleRate); err == nil {
		t.Error("empty corpus accepted")
	}
	if _, _, err := BuildImageDataset(nil, audio.SampleRate, 24); err == nil {
		t.Error("empty corpus accepted (image)")
	}
}

func TestSVMEndToEnd(t *testing.T) {
	corpus := testCorpus(t, 60)
	res, err := TrainSVM(corpus, audio.SampleRate, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Accuracy < 0.9 {
		t.Fatalf("SVM accuracy = %v, want >= 0.9 on synthetic corpus", res.Metrics.Accuracy)
	}
	if res.EdgeEnergy <= 0 || res.EdgeDuration <= 0 {
		t.Fatal("SVM edge cost not estimated")
	}

	// Fresh clips classify correctly most of the time.
	synth, err := audio.NewSynth(audio.Config{SampleRate: audio.SampleRate, Seconds: 1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	const n = 10
	for i := 0; i < n; i++ {
		queen, err := res.Predict(synth.Clip(hive.QueenPresent, 0.7), audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		if queen {
			correct++
		}
		queen, err = res.Predict(synth.Clip(hive.QueenLost, 0.7), audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		if !queen {
			correct++
		}
	}
	if correct < 16 {
		t.Fatalf("fresh-clip accuracy = %d/20", correct)
	}
}

// TestDecisionMatchesPredict pins the one-pass contract over a
// synthesized corpus of both classes and several strengths: Predict is
// exactly Decision >= 0, and both agree with the model's own Predict on
// the scaled feature vector, the rule the one-pass path replaced.
func TestDecisionMatchesPredict(t *testing.T) {
	res, err := TrainSVM(testCorpus(t, 24), audio.SampleRate, 3)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := audio.NewSynth(audio.Config{SampleRate: audio.SampleRate, Seconds: 1, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	var clips [][]float64
	for _, strength := range []float64{0.1, 0.4, 0.7, 1} {
		clips = append(clips, synth.Clip(hive.QueenPresent, strength), synth.Clip(hive.QueenLost, strength))
	}
	seen := map[bool]bool{}
	for i, clip := range clips {
		d, err := res.Decision(clip, audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		queen, err := res.Predict(clip, audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		v, err := VectorFeatures(clip, audio.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		model := res.Model.Predict(res.Scaler.Transform(v)) == LabelQueen
		if (d >= 0) != queen || queen != model {
			t.Fatalf("clip %d: decision %v, Predict %v, model.Predict %v", i, d, queen, model)
		}
		seen[queen] = true
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("corpus exercised only one verdict: %v", seen)
	}
	if _, err := res.Decision(make([]float64, 10), audio.SampleRate); err == nil {
		t.Error("clip shorter than one window accepted")
	}
}

// cnnPredict classifies one clip with a trained CNN detector.
func cnnPredict(res *CNNResult, clip []float64) (bool, error) {
	img, err := ImageFeatures(clip, audio.SampleRate, res.Size)
	if err != nil {
		return false, err
	}
	return res.Network.PredictImage(cnn.ImageFromMatrix(img)) == LabelQueen, nil
}

func TestCNNEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training is slow")
	}
	corpus := testCorpus(t, 60)
	opts := DefaultCNNOptions()
	opts.Size = 24 // small input keeps the test quick
	opts.Channels = 4
	opts.Train.Epochs = 8
	opts.Train.LR = 0.01
	res, err := TrainCNN(corpus, audio.SampleRate, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Accuracy < 0.85 {
		t.Fatalf("CNN accuracy = %v, want >= 0.85", res.Metrics.Accuracy)
	}
	if res.FLOPs <= 0 || res.EdgeEnergy <= 0 {
		t.Fatal("CNN cost not estimated")
	}
	queen, err := cnnPredict(res, corpus[0].Samples)
	if err != nil {
		t.Fatal(err)
	}
	if queen != corpus[0].QueenPresent {
		t.Log("single fresh prediction missed (acceptable; accuracy checked above)")
	}
}

func TestCNNEnergyGrowsWithSize(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training is slow")
	}
	corpus := testCorpus(t, 20)
	var prev float64
	for _, size := range []int{16, 32, 64} {
		opts := DefaultCNNOptions()
		opts.Size = size
		opts.Channels = 2
		opts.Train.Epochs = 1
		res, err := TrainCNN(corpus, audio.SampleRate, opts)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.EdgeEnergy) <= prev {
			t.Fatalf("edge energy not increasing at size %d", size)
		}
		prev = float64(res.EdgeEnergy)
	}
}

func TestFeatureErrorPaths(t *testing.T) {
	// Clips shorter than one STFT window are rejected end to end.
	short := make([]float64, 100)
	if _, err := Features(short, audio.SampleRate); err == nil {
		t.Error("short clip accepted by Features")
	}
	if _, err := VectorFeatures(short, audio.SampleRate); err == nil {
		t.Error("short clip accepted by VectorFeatures")
	}
	if _, err := ImageFeatures(short, audio.SampleRate, 32); err == nil {
		t.Error("short clip accepted by ImageFeatures")
	}
	// Invalid resize target.
	ok := make([]float64, 4096)
	if _, err := ImageFeatures(ok, audio.SampleRate, 0); err == nil {
		t.Error("zero image size accepted")
	}
}

func TestTrainSVMErrorPaths(t *testing.T) {
	if _, err := TrainSVM(nil, audio.SampleRate, 1); err == nil {
		t.Error("empty corpus accepted")
	}
	// A corpus too small to split 75/25 both ways non-empty.
	tiny := testCorpus(t, 1)
	if _, err := TrainSVM(tiny, audio.SampleRate, 1); err == nil {
		t.Error("single-clip corpus accepted")
	}
}

func TestTrainCNNErrorPaths(t *testing.T) {
	corpus := testCorpus(t, 8)
	opts := DefaultCNNOptions()
	opts.Size = 4 // below the CNN's minimum input
	if _, err := TrainCNN(corpus, audio.SampleRate, opts); err == nil {
		t.Error("tiny CNN input accepted")
	}
}

func TestPredictErrorPaths(t *testing.T) {
	corpus := testCorpus(t, 40)
	res, err := TrainSVM(corpus, audio.SampleRate, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Predict(make([]float64, 10), audio.SampleRate); err == nil {
		t.Error("short clip accepted by SVM Predict")
	}
}
