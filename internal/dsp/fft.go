// Package dsp implements the signal-processing pipeline of Section V:
// radix-2 FFT, Hann-windowed STFT, power spectrograms, the mel filterbank
// (FFT window 2048, hop 512, 128 mel bands at 22 050 Hz) and the bilinear
// resize that converts spectrograms into the CNN's square inputs.
//
// Everything is implemented from scratch on float64/complex128; there is
// no external numerics dependency.
package dsp

import (
	"errors"
	"fmt"
	"math/bits"
)

// fft computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. The length must be a power of two.
func fft(x []complex128) error {
	n := len(x)
	if n == 0 {
		return errors.New("dsp: empty FFT input")
	}
	if n&(n-1) != 0 {
		return errors.New("dsp: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	if n == 1 {
		return nil
	}
	// Danielson-Lanczos butterflies over the memoized per-stage twiddle
	// tables (bit-identical to the former inline w *= wStep recurrence).
	tw := twiddles(n)
	for s, size := 0, 2; size <= n; s, size = s+1, size<<1 {
		half := size >> 1
		t := tw[s]
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * t[k]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
	return nil
}

// RFFTInto computes the FFT of a real signal into dst and returns the
// n/2+1 non-redundant bins as dst[:n/2+1]. The input length must be a
// power of two and dst must have capacity for the bins. The contents of
// dst are fully overwritten; no other scratch is used, so a caller
// looping over frames can reuse one buffer for a zero-allocation steady
// state.
//
// Unlike a complex transform of the zero-padded signal, RFFTInto
// exploits conjugate symmetry with the packed real-FFT algorithm: the n
// real samples fold into an n/2-point complex transform plus an O(n)
// untangling pass, halving the butterfly work. The low-order bits of
// the result therefore differ from a complex FFT of the widened signal;
// the agreement is pinned to a tight ulp bound by TestRFFTMatchesFFT.
func RFFTInto(dst []complex128, x []float64) ([]complex128, error) {
	n := len(x)
	if n == 0 {
		return nil, errors.New("dsp: empty FFT input")
	}
	if n&(n-1) != 0 {
		return nil, errors.New("dsp: FFT length must be a power of two")
	}
	bins := n/2 + 1
	if cap(dst) < bins {
		return nil, fmt.Errorf("dsp: RFFT destination capacity %d < %d bins", cap(dst), bins)
	}
	dst = dst[:bins]
	if n == 1 {
		dst[0] = complex(x[0], 0)
		return dst, nil
	}
	// Pack adjacent sample pairs into one half-length complex signal:
	// z[k] = x[2k] + i*x[2k+1].
	n2 := n / 2
	z := dst[:n2]
	for k := 0; k < n2; k++ {
		z[k] = complex(x[2*k], x[2*k+1])
	}
	if err := fft(z); err != nil {
		return nil, err
	}
	// Untangle the packed transform Z into the real signal's spectrum:
	//   X[k] = (Z[k] + conj(Z[n2-k]))/2 - i/2 * w^k * (Z[k] - conj(Z[n2-k]))
	// with w = exp(-2*pi*i/n) and Z[n2] === Z[0]. Bins 0 and n/2 are the
	// purely real DC and Nyquist terms; interior bins pair up as
	// (k, n2-k), so the pass runs in place over dst.
	z0 := z[0]
	dst[n2] = complex(real(z0)-imag(z0), 0)
	dst[0] = complex(real(z0)+imag(z0), 0)
	tw := rfftTwiddles(n)
	for k := 1; k <= n2/2; k++ {
		j := n2 - k
		a, b := z[k], z[j]
		sumR, sumI := real(a)+real(b), imag(a)-imag(b)   // Z[k] + conj(Z[j])
		diffR, diffI := real(a)-real(b), imag(a)+imag(b) // Z[k] - conj(Z[j])
		w := tw[k]
		mR := real(w)*diffR - imag(w)*diffI // m = w^k * diff
		mI := real(w)*diffI + imag(w)*diffR
		dst[k] = complex(0.5*(sumR+mI), 0.5*(sumI-mR))
		// X[j] follows from the same pair: w^j = -conj(w^k), so the
		// mirrored bin reuses m with conjugated signs.
		dst[j] = complex(0.5*(sumR-mI), 0.5*(-sumI-mR))
	}
	return dst, nil
}
