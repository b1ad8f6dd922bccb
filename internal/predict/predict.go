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
// It keeps only the trace and the window width. WindowMax and FirstExit
// answer from the trace's samples directly, which is all the interval
// integrator's default path (sched.DecideSpan) asks. Predict, the
// per-second form, reads a sliding-max array that the first Predict call
// materializes (trace.SlidingMax, one float64 per sample): its consumers —
// the tick oracle, the live controller, the per-second decision scan of
// app-aware or overhead-aware schedulers, and wrapping predictors — pay
// for it, once per predictor. A LookaheadMax is safe for concurrent use,
// so one can be shared across the cells of a sweep.
type LookaheadMax struct {
	tr     *trace.Trace
	window int
	name   string

	once  sync.Once
	maxes []float64 // trace.SlidingMax(window), built by the first Predict
	built atomic.Int64
}

// NewLookaheadMax returns the look-ahead predictor over tr for the given
// window width in seconds. It precomputes nothing.
func NewLookaheadMax(tr *trace.Trace, window int) (*LookaheadMax, error) {
	if window <= 0 {
		return nil, fmt.Errorf("predict: invalid window %d", window)
	}
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("predict: look-ahead over an empty trace")
	}
	return &LookaheadMax{
		tr:     tr,
		window: window,
		name:   fmt.Sprintf("lookahead-max(%ds)", window),
	}, nil
}

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

// WindowMax returns Predict(t), computed from the window's samples in
// O(Window) without materializing the sliding-max array.
func (p *LookaheadMax) WindowMax(t int) float64 {
	return p.tr.MaxInWindow(t, p.window)
}

// FirstExit returns the first second u in [from, limit) whose prediction,
// scaled by h > 0, leaves the band [lo, hi): WindowMax(u)·h < lo or
// WindowMax(u)·h >= hi. It returns limit when no second in the range
// leaves the band. lo may be -Inf and hi +Inf.
//
// Floating-point multiplication by h > 0 is monotone, so the scaled
// window maximum is the maximum of the scaled samples, and a window is in
// the band exactly when it holds a sample with v·h >= lo and none with
// v·h >= hi. One forward pass therefore decides every second: it checks
// each sample as it enters the window and tracks the last sample with
// v·h >= lo. Windows clamped at the trace end shrink toward the last
// sample, which every later second predicts alone, as Predict clamps.
// The pass costs O(Window + u - from).
func (p *LookaheadMax) FirstExit(from, limit int, h, lo, hi float64) int {
	if from >= limit {
		return limit
	}
	n := p.tr.Len()
	vals := p.tr.Window(0, n)
	if from < 0 {
		// Seconds before the trace predict as second 0 does.
		e := p.FirstExit(0, max(limit, 1), h, lo, hi)
		if e == 0 {
			return from
		}
		return min(e, limit)
	}
	if from >= n {
		// Seconds past the trace predict as its last second does.
		if p.FirstExit(n-1, n, h, lo, hi) == n-1 {
			return from
		}
		return limit
	}
	if p.WindowMax(from)*h >= hi {
		return from
	}
	// The window of second u is [u, r] with r = min(u+window, n) - 1.
	r := min(from+p.window, n) - 1
	win := vals[from : r+1]
	last := -1 // the last index <= r with vals·h >= lo
	for j := len(win) - 1; j >= 0; j-- {
		if win[j]*h >= lo {
			last = from + j
			break
		}
	}
	if last < 0 {
		return from
	}
	// Until the right edge reaches the trace end, second u = from+1+i
	// adds sample r+1+i to its window.
	added := vals[r+1 : r+1+min(n-1-r, limit-from-1)]
	for i, v := range added {
		u := from + 1 + i
		x := v * h
		if x >= hi {
			return u
		}
		if x >= lo {
			last = r + 1 + i
		}
		if last < u {
			return u
		}
	}
	if from+1+len(added) == limit {
		return limit
	}
	// The right edge has reached the trace end, and last is at least the
	// last second checked: later windows only lose samples, so the first
	// exit is the first second past last, unless last is the final sample,
	// which every later window keeps.
	if last < n-1 && last+1 < limit {
		return last + 1
	}
	return limit
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
