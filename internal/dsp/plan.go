package dsp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"beesim/internal/parallel"
)

// This file is the DSP front end's plan/arena layer. A Plan freezes
// every per-shape precomputation of the paper's pipeline — the Hann
// window, the packed real-FFT twiddle tables, and the mel filterbank in
// sparse CSR form — and carries a pool of scratch arenas (windowed
// frame, spectrum, power row) so the steady-state hot path performs no
// per-frame allocations. Plans are immutable after construction and
// safe for concurrent use: every mutable buffer lives in the per-chunk
// scratch, never on the Plan itself.
//
// Two algorithmic wins over the legacy column-strided pipeline live
// here:
//
//  1. Frames go through RFFTInto — the packed real-input FFT — which
//     folds the 2048 real samples into a 1024-point complex transform,
//     halving the butterfly work per frame.
//  2. The mel projection uses the CSR filterbank: each triangle's
//     support is a small contiguous bin range, so band m reduces to a
//     short dot product over power[lo:hi] instead of a branchy scan of
//     all fftSize/2+1 bins. The projection runs frame-major: each
//     frame computes its contiguous power row once and feeds all
//     nMels bands from it while the row is hot in cache.

// melBand is one CSR row of the filterbank: the triangle's first
// supported FFT bin and its contiguous weights. Weights are the exact
// float64 values of the dense MelFilterbank row, so sparse and dense
// projections agree bit for bit (TestSparseBankMatchesDense).
type melBand struct {
	lo int
	w  []float64
}

// planKey identifies one memoized Plan shape.
type planKey struct {
	fftSize, hop, nMels, sampleRate int
}

// planScratch is one worker's arena: the windowed frame, the packed
// spectrum, and the power row. Every field is fully overwritten before
// use, so pooled reuse cannot leak state between frames or callers.
type planScratch struct {
	frame []float64    // fftSize windowed samples
	spec  []complex128 // fftSize/2+1 spectrum bins
	power []float64    // fftSize/2+1 power row
}

// Plan is a reusable, shape-specialized DSP pipeline: per-shape
// precomputed state plus pooled scratch arenas. Build one with NewPlan
// or fetch the shared memoized instance with PlanFor. The zero value is
// not usable.
//
// A Plan with nMels == 0 is a power-spectrogram plan; calling
// MelSpectrogram on it is an error.
type Plan struct {
	cfg        STFTConfig
	nMels      int
	sampleRate int
	bins       int

	window []float64 // shared read-only Hann window
	bands  []melBand // CSR filterbank; nil for power-only plans

	scratch sync.Pool // *planScratch
}

// NewPlan precomputes the pipeline state for one front-end shape.
// nMels == 0 builds a power-spectrogram-only plan (sampleRate is then
// ignored); nMels > 0 additionally builds the CSR mel filterbank and
// requires a positive sample rate.
func NewPlan(cfg STFTConfig, nMels, sampleRate int) (*Plan, error) {
	if cfg.FFTSize <= 0 || cfg.FFTSize&(cfg.FFTSize-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a power of two", cfg.FFTSize)
	}
	if cfg.Hop <= 0 {
		return nil, errors.New("dsp: non-positive hop")
	}
	if nMels < 0 {
		return nil, errors.New("dsp: negative mel band count")
	}
	p := &Plan{
		cfg:        cfg,
		nMels:      nMels,
		sampleRate: sampleRate,
		bins:       cfg.FFTSize/2 + 1,
		window:     hannWindow(cfg.FFTSize),
	}
	// Warm the shared twiddle tables once at plan build so the hot path
	// never takes the cache-miss branch.
	if cfg.FFTSize >= 2 {
		twiddles(cfg.FFTSize / 2)
		rfftTwiddles(cfg.FFTSize)
	}
	if nMels > 0 {
		fb, err := melFilterbank(nMels, cfg.FFTSize, sampleRate)
		if err != nil {
			return nil, err
		}
		p.bands = sparseBands(fb)
	}
	p.scratch.New = func() any {
		return &planScratch{
			frame: make([]float64, cfg.FFTSize),
			spec:  make([]complex128, p.bins),
			power: make([]float64, p.bins),
		}
	}
	return p, nil
}

// PlanFor returns the shared memoized Plan for a shape, building it on
// first use. The same instance is returned to every caller; Plans are
// immutable and concurrency-safe, so the whole process amortizes one
// precomputation per shape. ResetCaches drops the memo.
func PlanFor(cfg STFTConfig, nMels, sampleRate int) (*Plan, error) {
	key := planKey{fftSize: cfg.FFTSize, hop: cfg.Hop, nMels: nMels, sampleRate: sampleRate}
	if v, ok := planCache.Load(key); ok {
		return v.(*Plan), nil
	}
	p, err := NewPlan(cfg, nMels, sampleRate)
	if err != nil {
		return nil, err
	}
	v, _ := planCache.LoadOrStore(key, p)
	return v.(*Plan), nil
}

// sparseBands converts a dense filterbank matrix into CSR rows: each
// band keeps the contiguous [first, last] nonzero span of its row. The
// weight values are aliased, not copied — the memoized filterbank is
// immutable.
func sparseBands(fb *Matrix) []melBand {
	bands := make([]melBand, fb.Rows)
	for m := 0; m < fb.Rows; m++ {
		row := fb.Data[m*fb.Cols : (m+1)*fb.Cols]
		lo, hi := -1, -1
		for b, w := range row {
			if w != 0 {
				if lo < 0 {
					lo = b
				}
				hi = b
			}
		}
		if lo < 0 {
			// Degenerate empty triangle: keep a zero-length span so the
			// projection yields the same 0.0 the dense scan would.
			lo, hi = 0, -1
		}
		bands[m] = melBand{lo: lo, w: row[lo : hi+1]}
	}
	return bands
}

// Frames returns the number of STFT frames a signal of sigLen samples
// produces under the plan's configuration, or 0 when the signal is
// shorter than one analysis window.
func (p *Plan) Frames(sigLen int) int {
	if sigLen < p.cfg.FFTSize {
		return 0
	}
	return 1 + (sigLen-p.cfg.FFTSize)/p.cfg.Hop
}

// getScratch pops a pooled arena (or builds one on first use).
func (p *Plan) getScratch() *planScratch { return p.scratch.Get().(*planScratch) }

// putScratch returns an arena to the pool.
func (p *Plan) putScratch(s *planScratch) { p.scratch.Put(s) }

// checkSignal validates a signal against the plan shape and returns the
// frame count.
func (p *Plan) checkSignal(signal []float64) (int, error) {
	frames := p.Frames(len(signal))
	if frames == 0 {
		return 0, fmt.Errorf("dsp: signal (%d samples) shorter than one window (%d)",
			len(signal), p.cfg.FFTSize)
	}
	return frames, nil
}

// frameInto windows frame f of the signal into s.frame, transforms it
// with the packed real FFT, and fills s.power with the |X|^2 row.
func (p *Plan) frameInto(s *planScratch, signal []float64, f int) error {
	off := f * p.cfg.Hop
	src := signal[off : off+p.cfg.FFTSize]
	for i, w := range p.window {
		s.frame[i] = src[i] * w
	}
	spec, err := RFFTInto(s.spec, s.frame)
	if err != nil {
		return err
	}
	for b, v := range spec {
		re, im := real(v), imag(v)
		s.power[b] = re*re + im*im
	}
	return nil
}

// reuseMatrix shapes dst to rows x cols, reusing its backing array when
// the capacity suffices; dst == nil allocates a fresh matrix.
func reuseMatrix(dst *Matrix, rows, cols int) *Matrix {
	if dst == nil {
		return NewMatrix(rows, cols)
	}
	if cap(dst.Data) < rows*cols {
		dst.Data = make([]float64, rows*cols)
	}
	dst.Rows, dst.Cols, dst.Data = rows, cols, dst.Data[:rows*cols]
	return dst
}

// PowerSpectrogram computes |STFT|^2 with the plan's window, one
// frequency bin per row (fftSize/2+1 x frames) — the legacy layout of
// the package-level PowerSpectrogram, now via the packed real FFT.
func (p *Plan) PowerSpectrogram(signal []float64) (*Matrix, error) {
	return p.powerSpectrogram(nil, signal, false)
}

// PowerFrames computes the same power spectrogram in frame-major layout
// — one frame per contiguous row (frames x fftSize/2+1) — the
// cache-friendly orientation for per-frame band reductions.
func (p *Plan) PowerFrames(signal []float64) (*Matrix, error) {
	return p.powerSpectrogram(nil, signal, true)
}

func (p *Plan) powerSpectrogram(dst *Matrix, signal []float64, frameMajor bool) (*Matrix, error) {
	frames, err := p.checkSignal(signal)
	if err != nil {
		return nil, err
	}
	if frameMajor {
		dst = reuseMatrix(dst, frames, p.bins)
	} else {
		dst = reuseMatrix(dst, p.bins, frames)
	}
	// Frames are independent: each reads its own signal slice (plus the
	// shared read-only window/twiddles) and writes its own row or
	// column, so chunks fan out across the worker pool; per-frame math
	// never depends on the chunk boundaries.
	err = parallel.MapChunks(0, frames, func(lo, hi int) error {
		s := p.getScratch()
		defer p.putScratch(s)
		for f := lo; f < hi; f++ {
			if err := p.frameInto(s, signal, f); err != nil {
				return err
			}
			if frameMajor {
				copy(dst.Data[f*p.bins:(f+1)*p.bins], s.power)
			} else {
				for b, v := range s.power {
					dst.Data[b*frames+f] = v
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// MelSpectrogram computes the log-compressed mel spectrogram (nMels
// rows by frames columns) of a signal through the fused plan pipeline:
// windowed packed real FFT, per-frame power row, sparse CSR mel
// projection, log1p. The full power spectrogram is never materialized —
// the only allocation is the output matrix.
func (p *Plan) MelSpectrogram(signal []float64) (*Matrix, error) {
	return p.MelSpectrogramInto(nil, signal)
}

// MelSpectrogramInto is MelSpectrogram reusing dst's backing storage
// when its capacity suffices — the zero-allocation steady-state path
// for per-clip feature loops.
func (p *Plan) MelSpectrogramInto(dst *Matrix, signal []float64) (*Matrix, error) {
	if p.nMels == 0 {
		return nil, errors.New("dsp: power-only plan has no mel filterbank")
	}
	frames, err := p.checkSignal(signal)
	if err != nil {
		return nil, err
	}
	dst = reuseMatrix(dst, p.nMels, frames)
	// Frame-major fusion: each frame computes its contiguous power row
	// once, then every mel band takes its short dot product while the
	// row is cache-hot. Each frame writes only its own output column,
	// so frame chunks fan out across the pool without changing a bit.
	err = parallel.MapChunks(0, frames, func(lo, hi int) error {
		s := p.getScratch()
		defer p.putScratch(s)
		for f := lo; f < hi; f++ {
			if err := p.frameInto(s, signal, f); err != nil {
				return err
			}
			for m := range p.bands {
				band := &p.bands[m]
				pw := s.power[band.lo : band.lo+len(band.w)]
				var sum float64
				for i, w := range band.w {
					// Skip exact zeros like the dense scan does, so
					// sparse and dense projections are bit-identical.
					if w != 0 {
						sum += w * pw[i]
					}
				}
				dst.Data[m*frames+f] = math.Log1p(sum)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}
