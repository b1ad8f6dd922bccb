// Package predict provides the load predictors the BML scheduler consumes.
//
// The paper emulates prediction with a sliding look-ahead window: the
// predicted load at time t is the maximum trace value over the next W
// seconds, W being twice the longest power-on duration (378 s for the Table
// I machines, 2 × 189 s). That predictor is LookaheadMax. The package also
// implements the comparison predictors used by the ablation benchmarks and
// the paper's stated future work on prediction errors: an instantaneous
// oracle, a reactive last-value predictor, an exponentially weighted moving
// average over the past, and an error-injection wrapper.
package predict

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// Predictor forecasts the load the infrastructure must be dimensioned for
// at second t. Implementations are deterministic functions of t so that
// simulations are reproducible.
type Predictor interface {
	// Predict returns the load estimate for second t.
	Predict(t int) float64
	// Name identifies the predictor in reports.
	Name() string
}

// LookaheadMax is the paper's predictor: the maximum of the next Window
// seconds of the trace (perfect knowledge within the window, none beyond).
//
// It keeps the trace's block summary (trace.Blocks) and the window width.
// WindowMax and FirstExit answer from the block maxima, reading samples
// only at partial edge blocks and where a block cannot be decided whole,
// which is all the interval integrator's default path (sched.DecideSpan)
// asks. Predict, the per-second form, reads a sliding-max array that the
// first Predict call materializes (trace.SlidingMax, one float64 per
// sample): its consumers — the tick oracle, the live controller, the
// per-second decision scan of app-aware or overhead-aware schedulers, and
// wrapping predictors — pay for it, once per predictor. A LookaheadMax is
// safe for concurrent use, so one can be shared across the cells of a
// sweep.
type LookaheadMax struct {
	tr     *trace.Trace
	blocks *trace.Blocks
	window int
	name   string

	once  sync.Once
	maxes []float64 // trace.SlidingMax(window), built by the first Predict
	built atomic.Int64
}

// NewLookaheadMax returns the look-ahead predictor over tr for the given
// window width in seconds. It builds the trace's block summary.
func NewLookaheadMax(tr *trace.Trace, window int) (*LookaheadMax, error) {
	if tr == nil {
		return nil, fmt.Errorf("predict: look-ahead over an empty trace")
	}
	return NewLookaheadMaxOver(trace.NewBlocks(tr), window)
}

// NewLookaheadMaxOver returns the look-ahead predictor over the trace that
// b summarizes, sharing b rather than building a summary of its own.
func NewLookaheadMaxOver(b *trace.Blocks, window int) (*LookaheadMax, error) {
	if window <= 0 {
		return nil, fmt.Errorf("predict: invalid window %d", window)
	}
	if b == nil || b.Trace().Len() == 0 {
		return nil, fmt.Errorf("predict: look-ahead over an empty trace")
	}
	return &LookaheadMax{
		tr:     b.Trace(),
		blocks: b,
		window: window,
		name:   fmt.Sprintf("lookahead-max(%ds)", window),
	}, nil
}

// Blocks returns the block summary the predictor answers from.
func (p *LookaheadMax) Blocks() *trace.Blocks { return p.blocks }

// Predict implements Predictor. Out-of-range t clamps to the trace bounds.
func (p *LookaheadMax) Predict(t int) float64 {
	p.once.Do(func() {
		// The width was validated at construction, the only error
		// SlidingMax reports.
		p.maxes, _ = p.tr.SlidingMax(p.window)
		p.built.Store(int64(len(p.maxes)))
	})
	if t < 0 {
		t = 0
	}
	if t >= len(p.maxes) {
		t = len(p.maxes) - 1
	}
	return p.maxes[t]
}

// SamplesBuilt returns how many samples of the sliding-max array the
// predictor has materialized: zero until the first Predict call, the trace
// length after it.
func (p *LookaheadMax) SamplesBuilt() int { return int(p.built.Load()) }

// WindowMax returns Predict(t) without materializing the sliding-max
// array: the maximum of the window's partial edge blocks, read sample by
// sample, and of the block maxima between them.
func (p *LookaheadMax) WindowMax(t int) float64 {
	return p.blocks.MaxInWindow(t, p.window)
}

// FirstExit returns the first second u in [from, limit) whose prediction,
// scaled by h > 0, leaves the band [lo, hi): WindowMax(u)·h < lo or
// WindowMax(u)·h >= hi. It returns limit when no second in the range
// leaves the band. lo may be -Inf and hi +Inf. read is how many samples
// the query read one at a time.
//
// Floating-point multiplication by h > 0 is monotone, so the scaled
// window maximum is the maximum of the scaled samples, and a block whose
// max·h falls below a threshold holds no sample that reaches it. A window
// is in the band exactly when it holds a sample with v·h >= lo (a "lo
// sample") and none with v·h >= hi. One forward pass therefore decides
// every second: it checks the samples entering the window against hi and
// tracks last, a lower bound on the latest lo sample that has entered,
// which must not fall behind the window's start. The entering samples of
// one block whose max·h < hi are skipped without reading them as long as
// last covers every second they decide; when the block holds a lo sample,
// its start becomes the new bound. Otherwise the pass resolves the latest
// lo sample exactly (backwards, skipping blocks whose max·h < lo) and
// steps one sample at a time to the block's edge. Windows clamped at the
// trace end shrink toward the last sample, which every later second
// predicts alone, as Predict clamps.
func (p *LookaheadMax) FirstExit(from, limit int, h, lo, hi float64) (exit, read int) {
	if from >= limit {
		return limit, 0
	}
	n := p.tr.Len()
	if from < 0 {
		// Seconds before the trace predict as second 0 does.
		e, read := p.FirstExit(0, max(limit, 1), h, lo, hi)
		if e == 0 {
			return from, read
		}
		return min(e, limit), read
	}
	if from >= n {
		// Seconds past the trace predict as its last second does.
		if e, read := p.FirstExit(n-1, n, h, lo, hi); e == n-1 {
			return from, read
		}
		return limit, read
	}
	// The window of second u is [u, r] with r = min(u+window, n) - 1.
	r := min(from+p.window, n) - 1
	// The window of from reaches hi when it holds any sample that does.
	at, _, read := p.lastAtLeast(from, r, h, hi, false)
	if at >= from {
		return from, read
	}
	// last is exact when it is the latest lo sample below j itself, and
	// otherwise a lower bound on it: a lo sample lies in [last, j).
	last, exact, k := p.lastAtLeast(from, r, h, lo, false)
	read += k
	if last < from {
		return from, read
	}
	// Until the right edge reaches the trace end, second u = j-window+1
	// adds sample j to its window, for j in [r+1, end).
	vals := p.tr.Window(0, n)
	b := p.blocks
	end := r + 1 + min(n-1-r, limit-from-1)
	for j := r + 1; j < end; {
		// The samples [j, stop) lie in the block that starts at bs.
		bs := j / trace.BlockSize * trace.BlockSize
		blockEnd := min(bs+trace.BlockSize, n)
		stop := min(end, blockEnd)
		if m := b.BlockMax(j/trace.BlockSize) * h; m < hi {
			// None of them reaches hi. The seconds they decide, up to
			// stop-window, stay in the band if last covers them all.
			if last < stop-p.window && !exact {
				last, exact, k = p.lastAtLeast(last, j-1, h, lo, true)
				read += k
			}
			if last >= stop-p.window {
				if m >= lo {
					// The block holds a lo sample: once it has entered
					// whole, its start bounds the latest one.
					exact = false
					if stop == blockEnd {
						last = max(last, bs)
					}
				}
				j = stop
				continue
			}
		}
		// Step one sample at a time to the block edge.
		for ; j < stop; j++ {
			u := j - p.window + 1
			x := vals[j] * h
			read++
			if x >= hi {
				return u, read
			}
			if x >= lo {
				last, exact = j, true
				continue
			}
			if last < u && !exact {
				last, exact, k = p.lastAtLeast(last, j-1, h, lo, true)
				read += k
			}
			if last < u {
				return u, read
			}
		}
	}
	if end-r-1 == limit-from-1 {
		return limit, read
	}
	// The right edge has reached the trace end, and last is at least the
	// last second checked: later windows only lose samples, so the first
	// exit is the first second past the latest lo sample, unless that is
	// the final sample, which every later window keeps.
	if !exact {
		last, _, k = p.lastAtLeast(last, n-1, h, lo, true)
		read += k
	}
	if last < n-1 && last+1 < limit {
		return last + 1, read
	}
	return limit, read
}

// lastAtLeast finds the last index in [a, z] whose sample v has
// v·h >= thr, walking backwards and skipping every block whose max·h <
// thr, whole or in part. With exact set it returns that index; otherwise it may stop
// at a whole block whose max·h >= thr and return the block's start, a
// lower bound on the index, with exact false. It returns a-1 when there
// is no such sample, and how many samples it read.
func (p *LookaheadMax) lastAtLeast(a, z int, h, thr float64, exact bool) (idx int, isExact bool, read int) {
	vals := p.tr.Window(0, p.tr.Len())
	for j := z; j >= a; {
		k := j / trace.BlockSize
		start := k * trace.BlockSize
		if p.blocks.BlockMax(k)*h < thr {
			// No sample of the block, whole or in part, reaches thr.
			j = start - 1
			continue
		}
		if !exact && start >= a && (j == start+trace.BlockSize-1 || j == len(vals)-1) {
			return start, false, read
		}
		for stop := max(a, start); j >= stop; j-- {
			read++
			if vals[j]*h >= thr {
				return j, true, read
			}
		}
	}
	return a - 1, true, read
}

// Window returns the look-ahead width in seconds.
func (p *LookaheadMax) Window() int { return p.window }

// Name implements Predictor.
func (p *LookaheadMax) Name() string { return p.name }

// Oracle predicts the instantaneous true load — the predictor implied by
// the LowerBound Theoretical scenario, which re-dimensions every second
// with perfect knowledge.
type Oracle struct {
	tr *trace.Trace
}

// NewOracle wraps a trace.
func NewOracle(tr *trace.Trace) *Oracle { return &Oracle{tr: tr} }

// Predict implements Predictor.
func (p *Oracle) Predict(t int) float64 { return p.tr.At(t) }

// Name implements Predictor.
func (p *Oracle) Name() string { return "oracle" }

// LastValue is the naive reactive predictor: the forecast for t is the load
// observed one second earlier. It is the no-information baseline for the
// prediction ablation.
type LastValue struct {
	tr *trace.Trace
}

// NewLastValue wraps a trace.
func NewLastValue(tr *trace.Trace) *LastValue { return &LastValue{tr: tr} }

// Predict implements Predictor.
func (p *LastValue) Predict(t int) float64 { return p.tr.At(t - 1) }

// Name implements Predictor.
func (p *LastValue) Name() string { return "last-value" }

// EWMA forecasts with an exponentially weighted moving average of past
// samples: s(t) = α·x(t-1) + (1-α)·s(t-1). The average is precomputed for
// O(1) queries.
type EWMA struct {
	alpha  float64
	smooth []float64
}

// NewEWMA precomputes the average with smoothing factor alpha in (0, 1].
func NewEWMA(tr *trace.Trace, alpha float64) (*EWMA, error) {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("predict: invalid EWMA alpha %v", alpha)
	}
	vals := tr.Values()
	smooth := make([]float64, len(vals))
	if len(vals) > 0 {
		smooth[0] = vals[0]
		for i := 1; i < len(vals); i++ {
			smooth[i] = alpha*vals[i-1] + (1-alpha)*smooth[i-1]
		}
	}
	return &EWMA{alpha: alpha, smooth: smooth}, nil
}

// Predict implements Predictor.
func (p *EWMA) Predict(t int) float64 {
	if len(p.smooth) == 0 {
		return 0
	}
	if t < 0 {
		t = 0
	}
	if t >= len(p.smooth) {
		t = len(p.smooth) - 1
	}
	return p.smooth[t]
}

// Name implements Predictor.
func (p *EWMA) Name() string { return fmt.Sprintf("ewma(%.2f)", p.alpha) }

// ErrorInjector wraps a predictor with deterministic multiplicative
// Gaussian error — the instrument for the paper's future-work question
// ("investigate the impact of load prediction errors on reconfiguration
// decisions"). The error for a given second is a pure function of the seed
// and t, so repeated queries are consistent.
type ErrorInjector struct {
	inner Predictor
	rel   float64
	seed  int64
}

// NewErrorInjector wraps inner with relative 1-sigma error rel (e.g. 0.2
// for 20% error), clamped at 3 sigma and floored at zero.
func NewErrorInjector(inner Predictor, rel float64, seed int64) (*ErrorInjector, error) {
	if rel < 0 || rel > 1 || math.IsNaN(rel) {
		return nil, fmt.Errorf("predict: invalid error level %v", rel)
	}
	if inner == nil {
		return nil, fmt.Errorf("predict: nil inner predictor")
	}
	return &ErrorInjector{inner: inner, rel: rel, seed: seed}, nil
}

// Predict implements Predictor.
func (p *ErrorInjector) Predict(t int) float64 {
	v := p.inner.Predict(t)
	if p.rel == 0 {
		return v
	}
	// Derive a per-second deterministic error from (seed, t).
	const mix = int64(-0x61C8864680B583EB) // golden-ratio mixing constant
	rng := rand.New(rand.NewSource(p.seed ^ (int64(t)+1)*mix))
	g := rng.NormFloat64()
	if g > 3 {
		g = 3
	} else if g < -3 {
		g = -3
	}
	out := v * (1 + g*p.rel)
	if out < 0 {
		out = 0
	}
	return out
}

// Name implements Predictor.
func (p *ErrorInjector) Name() string {
	return fmt.Sprintf("%s+err(%.0f%%)", p.inner.Name(), p.rel*100)
}
