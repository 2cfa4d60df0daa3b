package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"beesim/internal/rng"
)

// idctII inverts the orthonormal DCT-II (i.e. computes the DCT-III); it
// is the reference the round-trip test checks dctII against.
func idctII(c []float64) []float64 {
	n := len(c)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	scale0 := math.Sqrt(1 / float64(n))
	scale := math.Sqrt(2 / float64(n))
	for i := 0; i < n; i++ {
		sum := c[0] * scale0
		for k := 1; k < n; k++ {
			sum += c[k] * scale * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		out[i] = sum
	}
	return out
}

func TestDCTIIConstantSignal(t *testing.T) {
	x := []float64{3, 3, 3, 3}
	c := dctII(x)
	// All the energy of a constant lands in coefficient 0.
	if math.Abs(c[0]-6) > 1e-12 { // 3*4*sqrt(1/4)
		t.Fatalf("c0 = %v, want 6", c[0])
	}
	for k := 1; k < len(c); k++ {
		if math.Abs(c[k]) > 1e-12 {
			t.Fatalf("c%d = %v, want 0", k, c[k])
		}
	}
}

func TestDCTOrthonormalRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%32 + 1
		r := rng.New(seed)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Norm()
		}
		back := idctII(dctII(x))
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDCTParseval(t *testing.T) {
	// An orthonormal transform preserves the L2 norm.
	r := rng.New(7)
	x := make([]float64, 16)
	var before float64
	for i := range x {
		x[i] = r.Norm()
		before += x[i] * x[i]
	}
	c := dctII(x)
	var after float64
	for _, v := range c {
		after += v * v
	}
	if math.Abs(before-after) > 1e-9 {
		t.Fatalf("DCT energy %v != signal energy %v", after, before)
	}
}

func TestDCTEmpty(t *testing.T) {
	if out := dctII(nil); len(out) != 0 {
		t.Fatal("empty DCT produced output")
	}
	if out := idctII(nil); len(out) != 0 {
		t.Fatal("empty IDCT produced output")
	}
}

func TestMFCCShape(t *testing.T) {
	sig := tone(250, 22050, 22050)
	m, err := mfcc(sig, PaperSTFT(), 40, 13, 22050)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 13 {
		t.Fatalf("coefficients = %d, want 13", m.Rows)
	}
	if m.Cols != 1+(22050-2048)/512 {
		t.Fatalf("frames = %d", m.Cols)
	}
}

func TestMFCCValidation(t *testing.T) {
	sig := tone(250, 22050, 22050)
	if _, err := mfcc(sig, PaperSTFT(), 40, 0, 22050); err == nil {
		t.Error("zero coefficients accepted")
	}
	if _, err := mfcc(sig, PaperSTFT(), 40, 41, 22050); err == nil {
		t.Error("more coefficients than mel bands accepted")
	}
	if _, err := mfcc(make([]float64, 10), PaperSTFT(), 40, 13, 22050); err == nil {
		t.Error("short signal accepted")
	}
}

func TestMFCCDistinguishesTones(t *testing.T) {
	// Time-pooled MFCCs of a 250 Hz and a 2.5 kHz tone must differ clearly.
	pooled := func(freq float64) []float64 {
		m, err := mfcc(tone(freq, 22050, 22050), PaperSTFT(), 40, 13, 22050)
		if err != nil {
			t.Fatal(err)
		}
		return m.MeanPool()
	}
	a, b := pooled(250), pooled(2500)
	var dist float64
	for i := range a {
		d := a[i] - b[i]
		dist += d * d
	}
	if math.Sqrt(dist) < 1 {
		t.Fatalf("MFCC distance = %v, want clearly separated tones", math.Sqrt(dist))
	}
}
