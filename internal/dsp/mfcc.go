package dsp

import (
	"errors"
	"math"
)

// This file completes the classical audio front end with mel-frequency
// cepstral coefficients: the DCT-II of the log-mel spectrum. The paper's
// classifiers use the mel spectrogram directly; MFCCs are the standard
// compact alternative for classical models.

// dctII computes the orthonormal type-II discrete cosine transform of x.
func dctII(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n == 0 {
		return out
	}
	scale0 := math.Sqrt(1 / float64(n))
	scale := math.Sqrt(2 / float64(n))
	for k := 0; k < n; k++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += x[i] * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		if k == 0 {
			out[k] = sum * scale0
		} else {
			out[k] = sum * scale
		}
	}
	return out
}

// mfcc computes nCoeffs mel-frequency cepstral coefficients per frame of
// the signal: power STFT -> mel filterbank (nMels bands) -> log ->
// DCT-II -> truncation. The result is nCoeffs rows by frames columns.
func mfcc(signal []float64, cfg STFTConfig, nMels, nCoeffs, sampleRate int) (*Matrix, error) {
	if nCoeffs <= 0 || nCoeffs > nMels {
		return nil, errors.New("dsp: coefficient count out of (0, nMels]")
	}
	mel, err := MelSpectrogram(signal, cfg, nMels, sampleRate)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(nCoeffs, mel.Cols)
	col := make([]float64, nMels)
	for f := 0; f < mel.Cols; f++ {
		for m := 0; m < nMels; m++ {
			col[m] = mel.At(m, f)
		}
		coeffs := dctII(col)
		for k := 0; k < nCoeffs; k++ {
			out.Set(k, f, coeffs[k])
		}
	}
	return out, nil
}
