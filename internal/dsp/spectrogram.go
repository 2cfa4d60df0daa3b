package dsp

import (
	"errors"
	"math"
)

// Matrix is a dense row-major 2D array (rows x cols).
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set stores v at (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// MinMax returns the smallest and largest elements.
func (m *Matrix) MinMax() (min, max float64) {
	if len(m.Data) == 0 {
		return 0, 0
	}
	min, max = m.Data[0], m.Data[0]
	for _, v := range m.Data[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Normalize rescales the matrix in place to [0, 1]; a constant matrix
// becomes all zeros.
func (m *Matrix) Normalize() {
	min, max := m.MinMax()
	span := max - min
	if span == 0 {
		for i := range m.Data {
			m.Data[i] = 0
		}
		return
	}
	for i, v := range m.Data {
		m.Data[i] = (v - min) / span
	}
}

// STFTConfig shapes the short-time Fourier transform.
type STFTConfig struct {
	// FFTSize is the analysis window length (a power of two).
	FFTSize int
	// Hop is the number of samples between adjacent frames.
	Hop int
}

// PaperSTFT is the paper's configuration: "the length of the fast-Fourier
// transform window is 2048, the number of audio samples between adjacent
// short-time Fourier transform columns is 512".
func PaperSTFT() STFTConfig { return STFTConfig{FFTSize: 2048, Hop: 512} }

// PowerSpectrogram computes |STFT|^2 of the signal with a Hann window.
// The result has FFTSize/2+1 rows (frequency bins) and one column per
// frame; signals shorter than one window are an error. The computation
// goes through the shared memoized Plan for the shape — packed real
// FFT, pooled scratch arenas — so repeated calls with the paper's fixed
// front end pay no precomputation.
func PowerSpectrogram(signal []float64, cfg STFTConfig) (*Matrix, error) {
	p, err := PlanFor(cfg, 0, 0)
	if err != nil {
		return nil, err
	}
	return p.PowerSpectrogram(signal)
}

// HzToMel converts frequency to the HTK mel scale.
func HzToMel(hz float64) float64 { return 2595 * math.Log10(1+hz/700) }

// MelToHz converts the HTK mel scale back to frequency.
func MelToHz(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

// buildMelFilterbank builds nMels triangular filters over FFT bins for
// the given sample rate, spanning 0 Hz to Nyquist. The returned matrix
// is nMels x (fftSize/2+1); each row sums the power bins of one mel
// band. melFilterbank memoizes it by shape.
func buildMelFilterbank(nMels, fftSize, sampleRate int) (*Matrix, error) {
	if nMels <= 0 || fftSize <= 0 || sampleRate <= 0 {
		return nil, errors.New("dsp: invalid filterbank shape")
	}
	bins := fftSize/2 + 1
	maxMel := HzToMel(float64(sampleRate) / 2)
	// nMels+2 edge points define nMels triangles.
	edges := make([]float64, nMels+2)
	for i := range edges {
		mel := maxMel * float64(i) / float64(nMels+1)
		edges[i] = MelToHz(mel) * float64(fftSize) / float64(sampleRate)
	}
	fb := NewMatrix(nMels, bins)
	for m := 0; m < nMels; m++ {
		lo, center, hi := edges[m], edges[m+1], edges[m+2]
		for b := 0; b < bins; b++ {
			f := float64(b)
			var w float64
			switch {
			case f < lo || f > hi:
				w = 0
			case f <= center:
				if center > lo {
					w = (f - lo) / (center - lo)
				}
			default:
				if hi > center {
					w = (hi - f) / (hi - center)
				}
			}
			fb.Set(m, b, w)
		}
	}
	return fb, nil
}

// MelSpectrogram computes the log-compressed mel spectrogram of a signal
// using the paper's front end: power STFT, mel filterbank, log(1+x).
// The result is nMels rows by frames columns. The computation goes
// through the shared memoized Plan for the shape: packed real FFT,
// fused frame-major sparse mel projection, pooled scratch — the full
// power spectrogram is never materialized.
func MelSpectrogram(signal []float64, cfg STFTConfig, nMels, sampleRate int) (*Matrix, error) {
	if nMels <= 0 {
		return nil, errors.New("dsp: invalid filterbank shape")
	}
	p, err := PlanFor(cfg, nMels, sampleRate)
	if err != nil {
		return nil, err
	}
	return p.MelSpectrogram(signal)
}

// Resize maps the matrix onto a rows x cols grid with bilinear
// interpolation — how the 128 x frames mel image becomes the CNN's
// square N x N input for Figure 5's size sweep.
func (m *Matrix) Resize(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, errors.New("dsp: non-positive resize target")
	}
	if m.Rows == 0 || m.Cols == 0 {
		return nil, errors.New("dsp: resize of empty matrix")
	}
	out := NewMatrix(rows, cols)
	// The column mapping (sc, c0, fc, c1) is identical for every output
	// row, so hoist it out of the row loop instead of redoing the
	// floor/clamp math rows times.
	c0s := make([]int, cols)
	c1s := make([]int, cols)
	fcs := make([]float64, cols)
	for c := 0; c < cols; c++ {
		sc := (float64(c)+0.5)*float64(m.Cols)/float64(cols) - 0.5
		c0 := int(math.Floor(sc))
		fcs[c] = sc - float64(c0)
		c0s[c] = clampInt(c0, 0, m.Cols-1)
		c1s[c] = clampInt(c0+1, 0, m.Cols-1)
	}
	for r := 0; r < rows; r++ {
		// Map output pixel centers onto the source grid.
		sr := (float64(r)+0.5)*float64(m.Rows)/float64(rows) - 0.5
		r0 := int(math.Floor(sr))
		fr := sr - float64(r0)
		r1 := r0 + 1
		r0 = clampInt(r0, 0, m.Rows-1)
		r1 = clampInt(r1, 0, m.Rows-1)
		row0 := m.Data[r0*m.Cols : (r0+1)*m.Cols]
		row1 := m.Data[r1*m.Cols : (r1+1)*m.Cols]
		dst := out.Data[r*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			c0, c1, fc := c0s[c], c1s[c], fcs[c]
			dst[c] = row0[c0]*(1-fr)*(1-fc) +
				row1[c0]*fr*(1-fc) +
				row0[c1]*(1-fr)*fc +
				row1[c1]*fr*fc
		}
	}
	return out, nil
}

// Flatten returns a copy of the matrix contents as a vector, the SVM's
// feature representation.
func (m *Matrix) Flatten() []float64 {
	return append([]float64(nil), m.Data...)
}

// MeanPool collapses the time axis, returning the per-mel-band mean — a
// compact fixed-size vector feature for classical models regardless of
// clip length.
func (m *Matrix) MeanPool() []float64 {
	out := make([]float64, m.Rows)
	if m.Cols == 0 {
		return out
	}
	for r := 0; r < m.Rows; r++ {
		// One contiguous row-major pass per band — the matrix is
		// row-major, so this is a straight streaming sum.
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		var sum float64
		for _, v := range row {
			sum += v
		}
		out[r] = sum / float64(m.Cols)
	}
	return out
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
