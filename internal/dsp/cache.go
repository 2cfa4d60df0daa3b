package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// This file memoizes the shape-invariant precomputations of the
// pipeline — FFT twiddle factors and bit-reversal swaps, Hann windows,
// mel filterbanks — so repeated queendetect calls with the paper's
// fixed front end (FFT 2048, hop 512, 128 mels at 22 050 Hz) stop
// rebuilding them on every clip. All cached values are built once,
// stored immutable, and shared read-only across goroutines; sync.Map
// gives the lock-free read path the parallel spectrogram workers hit.
//
// Determinism note: the cached twiddle tables are generated with the
// exact incremental recurrence (w *= wStep from w = 1) the butterflies
// used inline before caching existed. Regenerating them with per-index
// cmplx.Exp calls would perturb the low bits of the transforms and
// break the byte-identical-output contract, so don't.

var (
	twiddleCache sync.Map // int -> [][]complex128
	revCache     sync.Map // int -> []int32
	rfftTwCache  sync.Map // int -> []complex128
	hannCache    sync.Map // int -> []float64
	melCache     sync.Map // melKey -> *Matrix
	planCache    sync.Map // planKey -> *Plan
)

// melKey identifies one filterbank shape.
type melKey struct {
	nMels, fftSize, sampleRate int
}

// ResetCaches drops every memoized table and plan. Benchmarks use it to
// measure the cold path; production code never needs it.
func ResetCaches() {
	twiddleCache = sync.Map{}
	revCache = sync.Map{}
	rfftTwCache = sync.Map{}
	hannCache = sync.Map{}
	melCache = sync.Map{}
	planCache = sync.Map{}
}

// twiddles returns the per-stage twiddle-factor tables of an n-point
// transform: tables[s][k] is the k-th factor of the stage with
// butterfly size 2<<s. n must be a power of two >= 2.
func twiddles(n int) [][]complex128 {
	if v, ok := twiddleCache.Load(n); ok {
		return v.([][]complex128)
	}
	// The stage tables (1, 2, ..., n/2 factors) share one backing array
	// of n-1, so a cold build costs two allocations, not one per stage.
	tables := make([][]complex128, 0, bits.TrailingZeros(uint(n)))
	backing := make([]complex128, n-1)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		wStep := cmplx.Exp(complex(0, -2*math.Pi/float64(size)))
		t := backing[:half:half]
		backing = backing[half:]
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			t[k] = w
			w *= wStep
		}
		tables = append(tables, t)
	}
	v, _ := twiddleCache.LoadOrStore(n, tables)
	return v.([][]complex128)
}

// bitReversalSwaps returns the bit-reversal permutation of an n-point
// transform as flattened (i, j) index pairs with i < j, in ascending i:
// exactly the swaps the per-index bits.Reverse64 scan performs. n must
// be a power of two >= 2.
func bitReversalSwaps(n int) []int32 {
	if v, ok := revCache.Load(n); ok {
		return v.([]int32)
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	// At most n indices take part in a swap: one allocation.
	swaps := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			swaps = append(swaps, int32(i), int32(j))
		}
	}
	v, _ := revCache.LoadOrStore(n, swaps)
	return v.([]int32)
}

// rfftTwiddles returns the untangling factors of an n-point packed real
// FFT: tw[k] = exp(-2*pi*i*k/n) for k = 0..n/4. Built with the same
// incremental recurrence as the butterfly tables so cold and warm
// builds are bit-identical.
func rfftTwiddles(n int) []complex128 {
	if v, ok := rfftTwCache.Load(n); ok {
		return v.([]complex128)
	}
	wStep := cmplx.Exp(complex(0, -2*math.Pi/float64(n)))
	t := make([]complex128, n/4+1)
	w := complex(1, 0)
	for k := range t {
		t[k] = w
		w *= wStep
	}
	v, _ := rfftTwCache.LoadOrStore(n, t)
	return v.([]complex128)
}

// hannWindow returns the shared n-point periodic Hann window used for
// STFT analysis. Callers must not mutate it.
func hannWindow(n int) []float64 {
	if v, ok := hannCache.Load(n); ok {
		return v.([]float64)
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n)))
	}
	v, _ := hannCache.LoadOrStore(n, w)
	return v.([]float64)
}

// melFilterbank returns the shared filterbank for the shape. Callers
// must not mutate it.
func melFilterbank(nMels, fftSize, sampleRate int) (*Matrix, error) {
	key := melKey{nMels: nMels, fftSize: fftSize, sampleRate: sampleRate}
	if v, ok := melCache.Load(key); ok {
		return v.(*Matrix), nil
	}
	fb, err := buildMelFilterbank(nMels, fftSize, sampleRate)
	if err != nil {
		return nil, err
	}
	v, _ := melCache.LoadOrStore(key, fb)
	return v.(*Matrix), nil
}
