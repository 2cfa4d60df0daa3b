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
)

// fft computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. The length must be a power of two.
//
// The butterflies and their order are the textbook loop's, over the
// memoized per-stage twiddle tables; only the loop shape is tuned. The
// bit-reversal swaps come from a memoized table, stages 1 and 2 run
// fused on each 4-element block held in registers, and the later
// stages walk re-sliced lo/hi halves so the compiler drops the bounds
// checks. Every butterfly multiplies by its table twiddle, the unit
// ones too, so the output matches the textbook loop bit for bit,
// signed zeros included (TestFFTMatchesReference).
func fft(x []complex128) error {
	n := len(x)
	if n == 0 {
		return errors.New("dsp: empty FFT input")
	}
	if n&(n-1) != 0 {
		return errors.New("dsp: FFT length must be a power of two")
	}
	if n == 1 {
		return nil
	}
	swaps := bitReversalSwaps(n)
	for k := 0; k+1 < len(swaps); k += 2 {
		i, j := swaps[k], swaps[k+1]
		x[i], x[j] = x[j], x[i]
	}
	tw := twiddles(n)
	if n == 2 {
		a, b := x[0], x[1]*tw[0][0]
		x[0], x[1] = a+b, a-b
		return nil
	}
	// Stages 1 (size 2) and 2 (size 4), fused per 4-element block.
	w1, w20, w21 := tw[0][0], tw[1][0], tw[1][1]
	for start := 0; start+3 < n; start += 4 {
		blk := x[start : start+4 : start+4]
		x0, x1, x2, x3 := blk[0], blk[1], blk[2], blk[3]
		b := x1 * w1
		x0, x1 = x0+b, x0-b
		b = x3 * w1
		x2, x3 = x2+b, x2-b
		b = x2 * w20
		blk[0], blk[2] = x0+b, x0-b
		b = x3 * w21
		blk[1], blk[3] = x1+b, x1-b
	}
	laterStages(x, tw[2:])
	return nil
}

// laterStages runs the butterfly stages of size 8 and up, tw holding
// their twiddle tables in order. It is a function of its own so the
// register allocator sees only this loop nest: inlined into fft, the
// inner loop spilled its counter to the stack on every butterfly.
func laterStages(x []complex128, tw [][]complex128) {
	for _, t := range tw {
		half := len(t)
		for start := 0; start < len(x); start += 2 * half {
			lo := x[start : start+half]
			hi := x[start+half : start+2*half]
			hi = hi[:len(lo)]
			t := t[:len(lo)]
			for k, a := range lo {
				b := hi[k] * t[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
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
