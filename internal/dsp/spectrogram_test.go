package dsp

import (
	"math"
	"testing"

	"beesim/internal/rng"
)

func tone(freq float64, sr, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * freq * float64(i) / float64(sr))
	}
	return x
}

func TestPowerSpectrogramShape(t *testing.T) {
	sig := tone(440, 22050, 22050) // 1 s
	cfg := PaperSTFT()
	spec, err := PowerSpectrogram(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames := 1 + (22050-2048)/512
	if spec.Rows != 1025 || spec.Cols != wantFrames {
		t.Fatalf("shape = %dx%d, want 1025x%d", spec.Rows, spec.Cols, wantFrames)
	}
}

func TestPowerSpectrogramPeakAtTone(t *testing.T) {
	const sr = 22050
	const freq = 440.0
	spec, err := PowerSpectrogram(tone(freq, sr, sr), PaperSTFT())
	if err != nil {
		t.Fatal(err)
	}
	// Column 0's argmax bin must be at freq * fftSize / sr.
	wantBin := int(math.Round(freq * 2048 / float64(sr)))
	best, bestV := 0, -1.0
	for b := 0; b < spec.Rows; b++ {
		if v := spec.At(b, 0); v > bestV {
			best, bestV = b, v
		}
	}
	if best < wantBin-1 || best > wantBin+1 {
		t.Fatalf("peak bin = %d, want ~%d", best, wantBin)
	}
}

func TestPowerSpectrogramErrors(t *testing.T) {
	if _, err := PowerSpectrogram(make([]float64, 100), PaperSTFT()); err == nil {
		t.Error("short signal accepted")
	}
	if _, err := PowerSpectrogram(make([]float64, 4096), STFTConfig{FFTSize: 1000, Hop: 512}); err == nil {
		t.Error("non-power-of-two FFT size accepted")
	}
	if _, err := PowerSpectrogram(make([]float64, 4096), STFTConfig{FFTSize: 2048, Hop: 0}); err == nil {
		t.Error("zero hop accepted")
	}
}

func TestMelScaleRoundTrip(t *testing.T) {
	for _, hz := range []float64{0, 100, 440, 1000, 8000, 11025} {
		if got := MelToHz(HzToMel(hz)); math.Abs(got-hz) > 1e-6 {
			t.Fatalf("mel round trip %v -> %v", hz, got)
		}
	}
	if HzToMel(1000) < HzToMel(500) {
		t.Fatal("mel scale not monotone")
	}
}

func TestMelFilterbankShapeAndCoverage(t *testing.T) {
	fb, err := melFilterbank(128, 2048, 22050)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Rows != 128 || fb.Cols != 1025 {
		t.Fatalf("filterbank shape = %dx%d", fb.Rows, fb.Cols)
	}
	// Every filter has non-negative weights and a non-empty support.
	for m := 0; m < fb.Rows; m++ {
		var sum float64
		for b := 0; b < fb.Cols; b++ {
			w := fb.At(m, b)
			if w < 0 {
				t.Fatalf("negative filter weight at (%d,%d)", m, b)
			}
			sum += w
		}
		if sum == 0 {
			t.Fatalf("mel filter %d is empty", m)
		}
	}
}

func TestMelFilterbankErrors(t *testing.T) {
	if _, err := buildMelFilterbank(0, 2048, 22050); err == nil {
		t.Error("zero mel bands accepted")
	}
	if _, err := buildMelFilterbank(128, 0, 22050); err == nil {
		t.Error("zero FFT size accepted")
	}
	if _, err := buildMelFilterbank(128, 2048, 0); err == nil {
		t.Error("zero sample rate accepted")
	}
}

func TestMelSpectrogramPipeline(t *testing.T) {
	// The paper's exact front end on a 10 s clip at 22 050 Hz.
	sig := tone(250, 22050, 22050*2) // 2 s is enough for the shape check
	mel, err := MelSpectrogram(sig, PaperSTFT(), 128, 22050)
	if err != nil {
		t.Fatal(err)
	}
	if mel.Rows != 128 {
		t.Fatalf("mel rows = %d, want 128", mel.Rows)
	}
	// Energy must concentrate in the low bands for a 250 Hz tone.
	low, high := 0.0, 0.0
	for m := 0; m < 16; m++ {
		low += mel.At(m, 0)
	}
	for m := 112; m < 128; m++ {
		high += mel.At(m, 0)
	}
	if low <= high {
		t.Fatalf("250 Hz tone: low-band energy %v not above high-band %v", low, high)
	}
	// log1p keeps everything finite and non-negative.
	for _, v := range mel.Data {
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("bad mel value %v", v)
		}
	}
}

func TestResizeExactOnConstant(t *testing.T) {
	m := NewMatrix(13, 29)
	for i := range m.Data {
		m.Data[i] = 3.7
	}
	r, err := m.Resize(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Data {
		if math.Abs(v-3.7) > 1e-12 {
			t.Fatalf("constant image resize changed value: %v", v)
		}
	}
}

func TestResizeIdentity(t *testing.T) {
	r := rng.New(3)
	m := NewMatrix(8, 8)
	for i := range m.Data {
		m.Data[i] = r.Float64()
	}
	same, err := m.Resize(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-same.Data[i]) > 1e-12 {
			t.Fatalf("identity resize altered element %d", i)
		}
	}
}

func TestResizePreservesRange(t *testing.T) {
	r := rng.New(4)
	m := NewMatrix(128, 420)
	for i := range m.Data {
		m.Data[i] = r.Range(-2, 5)
	}
	lo, hi := m.MinMax()
	for _, size := range []int{20, 60, 100, 160} {
		out, err := m.Resize(size, size)
		if err != nil {
			t.Fatal(err)
		}
		olo, ohi := out.MinMax()
		if olo < lo-1e-9 || ohi > hi+1e-9 {
			t.Fatalf("resize to %d escaped range: [%v,%v] from [%v,%v]", size, olo, ohi, lo, hi)
		}
	}
}

func TestResizeErrors(t *testing.T) {
	m := NewMatrix(4, 4)
	if _, err := m.Resize(0, 4); err == nil {
		t.Error("zero rows accepted")
	}
	empty := NewMatrix(0, 0)
	if _, err := empty.Resize(4, 4); err == nil {
		t.Error("empty source accepted")
	}
}

func TestNormalize(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 3, 5})
	m.Normalize()
	if m.Data[0] != 0 || m.Data[3] != 1 {
		t.Fatalf("normalize endpoints = %v", m.Data)
	}
	flat := NewMatrix(2, 2)
	copy(flat.Data, []float64{7, 7, 7, 7})
	flat.Normalize()
	for _, v := range flat.Data {
		if v != 0 {
			t.Fatalf("constant normalize = %v, want 0", v)
		}
	}
}

func TestFlattenAndMeanPool(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	f := m.Flatten()
	f[0] = 99
	if m.Data[0] == 99 {
		t.Fatal("Flatten aliases the matrix")
	}
	pooled := m.MeanPool()
	if len(pooled) != 2 || pooled[0] != 2 || pooled[1] != 5 {
		t.Fatalf("mean pool = %v, want [2 5]", pooled)
	}
	emptyCols := NewMatrix(3, 0)
	if p := emptyCols.MeanPool(); len(p) != 3 {
		t.Fatal("mean pool of zero-column matrix must still size by rows")
	}
}
