package predict

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/trace"
)

func mkTrace(t *testing.T, vals []float64) *trace.Trace {
	t.Helper()
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestLookaheadMaxMatchesWindowMax(t *testing.T) {
	tr := mkTrace(t, []float64{1, 9, 2, 7, 3, 8, 0})
	p, err := NewLookaheadMax(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		if got, want := p.Predict(i), tr.MaxInWindow(i, 3); got != want {
			t.Errorf("Predict(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestLookaheadMaxSeesAhead(t *testing.T) {
	// A spike 100 seconds out must be visible to a 378 s window — the
	// mechanism that lets the paper's scheduler boot Big machines in time.
	vals := make([]float64, 500)
	vals[300] = 1000
	tr := mkTrace(t, vals)
	p, err := NewLookaheadMax(tr, 378)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Predict(200); got != 1000 {
		t.Errorf("Predict(200) = %v, want spike 1000 visible", got)
	}
	if got := p.Predict(301); got != 0 {
		t.Errorf("Predict(301) = %v, want 0 after the spike", got)
	}
}

func TestLookaheadMaxClampsOutOfRange(t *testing.T) {
	tr := mkTrace(t, []float64{5, 6, 7})
	p, err := NewLookaheadMax(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Predict(-1) != p.Predict(0) {
		t.Error("negative t not clamped")
	}
	if p.Predict(99) != p.Predict(2) {
		t.Error("past-the-end t not clamped")
	}
}

func TestLookaheadMaxValidation(t *testing.T) {
	tr := mkTrace(t, []float64{1})
	if _, err := NewLookaheadMax(tr, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewLookaheadMax(tr, -5); err == nil {
		t.Error("negative window accepted")
	}
}

func TestLookaheadMaxAccessors(t *testing.T) {
	tr := mkTrace(t, []float64{1, 2})
	p, _ := NewLookaheadMax(tr, 378)
	if p.Window() != 378 {
		t.Errorf("Window = %d", p.Window())
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestOracle(t *testing.T) {
	tr := mkTrace(t, []float64{3, 1, 4})
	p := NewOracle(tr)
	for i, want := range []float64{3, 1, 4} {
		if got := p.Predict(i); got != want {
			t.Errorf("Predict(%d) = %v, want %v", i, got, want)
		}
	}
	if p.Name() != "oracle" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestLastValue(t *testing.T) {
	tr := mkTrace(t, []float64{3, 1, 4})
	p := NewLastValue(tr)
	if got := p.Predict(2); got != 1 {
		t.Errorf("Predict(2) = %v, want previous sample 1", got)
	}
	// t=0 clamps to the first sample.
	if got := p.Predict(0); got != 3 {
		t.Errorf("Predict(0) = %v, want 3", got)
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = 50
	}
	tr := mkTrace(t, vals)
	p, err := NewEWMA(tr, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Predict(150); math.Abs(got-50) > 1e-9 {
		t.Errorf("EWMA on constant trace = %v, want 50", got)
	}
}

func TestEWMALagsSteps(t *testing.T) {
	vals := make([]float64, 100)
	for i := 50; i < 100; i++ {
		vals[i] = 100
	}
	tr := mkTrace(t, vals)
	p, err := NewEWMA(tr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Right at the step the smoothed value is still near 0.
	if got := p.Predict(50); got > 10 {
		t.Errorf("EWMA at step = %v, want small (lagging)", got)
	}
	// Long after, it approaches 100 from below.
	after := p.Predict(99)
	if after < 90 || after > 100 {
		t.Errorf("EWMA long after step = %v, want ≈100", after)
	}
}

func TestEWMAValidation(t *testing.T) {
	tr := mkTrace(t, []float64{1})
	for _, a := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := NewEWMA(tr, a); err == nil {
			t.Errorf("alpha %v accepted", a)
		}
	}
	p, err := NewEWMA(tr, 1)
	if err != nil {
		t.Fatalf("alpha=1 rejected: %v", err)
	}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

func TestErrorInjectorZeroErrorIsIdentity(t *testing.T) {
	tr := mkTrace(t, []float64{10, 20, 30})
	inner := NewOracle(tr)
	p, err := NewErrorInjector(inner, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if p.Predict(i) != inner.Predict(i) {
			t.Errorf("zero-error injector altered prediction at %d", i)
		}
	}
}

func TestErrorInjectorDeterministicPerSecond(t *testing.T) {
	tr := mkTrace(t, []float64{100, 100, 100})
	inner := NewOracle(tr)
	p, err := NewErrorInjector(inner, 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Predict(1) != p.Predict(1) {
		t.Error("repeated query returned different values")
	}
	// Different seconds should (almost surely) differ.
	if p.Predict(0) == p.Predict(1) && p.Predict(1) == p.Predict(2) {
		t.Error("error injection constant across seconds")
	}
}

func TestErrorInjectorBoundsAndMean(t *testing.T) {
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = 100
	}
	tr := mkTrace(t, vals)
	p, err := NewErrorInjector(NewOracle(tr), 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < 5000; i++ {
		v := p.Predict(i)
		if v < 0 {
			t.Fatalf("negative prediction %v", v)
		}
		if v < 100*(1-0.31) || v > 100*(1+0.31) {
			t.Fatalf("prediction %v outside 3-sigma bound", v)
		}
		sum += v
	}
	mean := sum / 5000
	if math.Abs(mean-100) > 1 {
		t.Errorf("mean prediction %v drifted from 100", mean)
	}
}

func TestErrorInjectorValidation(t *testing.T) {
	tr := mkTrace(t, []float64{1})
	if _, err := NewErrorInjector(nil, 0.1, 1); err == nil {
		t.Error("nil inner accepted")
	}
	if _, err := NewErrorInjector(NewOracle(tr), -0.1, 1); err == nil {
		t.Error("negative error accepted")
	}
	if _, err := NewErrorInjector(NewOracle(tr), 1.5, 1); err == nil {
		t.Error("error > 1 accepted")
	}
}

func TestErrorInjectorName(t *testing.T) {
	tr := mkTrace(t, []float64{1})
	p, _ := NewErrorInjector(NewOracle(tr), 0.2, 1)
	if p.Name() != "oracle+err(20%)" {
		t.Errorf("Name = %q", p.Name())
	}
}

// firstExitOracle is FirstExit by definition: the first second in
// [from, limit) whose window maximum, scanned sample by sample by
// trace.MaxInWindow and scaled by h, leaves [lo, hi).
func firstExitOracle(p *LookaheadMax, from, limit int, h, lo, hi float64) int {
	for u := from; u < limit; u++ {
		if x := p.tr.MaxInWindow(u, p.window) * h; x < lo || x >= hi {
			return u
		}
	}
	return limit
}

// FirstExit agrees with the per-second oracle on random traces, windows
// and bands: windows clamped at the trace end and windows longer than the
// trace, starts before and past the trace, infinite band edges, band
// edges drawn from the trace's own scaled samples (so that exits land
// exactly on them), and headroom other than 1.
func TestFirstExitMatchesPerSecondOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(60)
		vals := make([]float64, n)
		for i := range vals {
			// Few distinct levels, so that ties and plateaus are common.
			vals[i] = float64(rng.Intn(8)) * 1.25
			if rng.Intn(4) == 0 {
				vals[i] += rng.Float64()
			}
		}
		tr := mkTrace(t, vals)
		window := 1 + rng.Intn(n+10) // sometimes longer than the trace
		p, err := NewLookaheadMax(tr, window)
		if err != nil {
			t.Fatal(err)
		}
		h := 1.0
		if rng.Intn(2) == 0 {
			h = 1 + rng.Float64()
		}
		edge := func() float64 {
			switch rng.Intn(5) {
			case 0:
				return math.Inf(-1)
			case 1:
				return math.Inf(1)
			case 2:
				return vals[rng.Intn(n)] * h
			default:
				return rng.Float64() * 12
			}
		}
		lo, hi := edge(), edge()
		if lo > hi {
			lo, hi = hi, lo
		}
		from := rng.Intn(n+8) - 4
		limit := from + rng.Intn(n+8) - 2
		got, _ := p.FirstExit(from, limit, h, lo, hi)
		if want := firstExitOracle(p, from, limit, h, lo, hi); got != want {
			t.Fatalf("vals %v window %d h %v band [%v, %v) from %d limit %d: FirstExit = %d, want %d",
				vals, window, h, lo, hi, from, limit, got, want)
		}
	}
}

// FirstExit agrees with the per-second oracle on traces long enough that
// whole blocks are skipped: 1 to 3000 samples, windows of 1 to 600
// seconds, slowly drifting loads (so that many blocks stay inside a band)
// with plateaus, spikes and zeros, and bands drawn from the scaled
// samples. The oracle reads the trace's sliding-max array, which
// trace.SlidingMax builds independently of the block summary.
func TestFirstExitSkipsBlocksLikeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries, skipped := 0, 0
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(3000)
		vals := make([]float64, n)
		level := rng.Float64() * 100
		for i := range vals {
			switch rng.Intn(50) {
			case 0:
				level = rng.Float64() * 100 // a jump
			case 1:
				vals[i] = level * 3 // a spike
				continue
			}
			level = math.Max(0, level+rng.NormFloat64())
			vals[i] = level
			if rng.Intn(200) == 0 {
				vals[i] = 0
			}
		}
		tr := mkTrace(t, vals)
		window := 1 + rng.Intn(600)
		p, err := NewLookaheadMax(tr, window)
		if err != nil {
			t.Fatal(err)
		}
		maxes, err := tr.SlidingMax(window)
		if err != nil {
			t.Fatal(err)
		}
		pred := func(u int) float64 { return maxes[min(max(u, 0), n-1)] }
		for q := 0; q < 300; q++ {
			h := 1.0
			if rng.Intn(2) == 0 {
				h = 1 + rng.Float64()
			}
			edge := func() float64 {
				switch rng.Intn(6) {
				case 0:
					return math.Inf(-1)
				case 1:
					return math.Inf(1)
				case 2, 3:
					return vals[rng.Intn(n)] * h
				default:
					return rng.Float64() * 150
				}
			}
			lo, hi := edge(), edge()
			if lo > hi {
				lo, hi = hi, lo
			}
			from := rng.Intn(n+8) - 4
			limit := from + rng.Intn(n+8) - 2
			want := limit
			for u := from; u < limit; u++ {
				if x := pred(u) * h; x < lo || x >= hi {
					want = u
					break
				}
			}
			got, read := p.FirstExit(from, limit, h, lo, hi)
			if got != want {
				t.Fatalf("n %d window %d h %v band [%v, %v) from %d limit %d: FirstExit = %d, want %d",
					n, window, h, lo, hi, from, limit, got, want)
			}
			queries++
			if span := got - from; span > 4*trace.BlockSize && read < span {
				skipped++
			}
		}
	}
	t.Logf("%d queries, %d long ones read fewer samples than seconds decided", queries, skipped)
	if skipped == 0 {
		t.Fatal("no query skipped a block")
	}
}

// WindowMax is Predict without the sliding-max array, second for second,
// and FirstExit and WindowMax leave the array unbuilt.
func TestWindowMaxMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	tr := mkTrace(t, vals)
	for _, window := range []int{1, 7, 378, 600} {
		p, err := NewLookaheadMax(tr, window)
		if err != nil {
			t.Fatal(err)
		}
		for u := -3; u < tr.Len()+3; u++ {
			p.WindowMax(u)
			p.FirstExit(u, u+50, 1.2, 30, 90)
		}
		if got := p.SamplesBuilt(); got != 0 {
			t.Fatalf("window %d: %d samples built before any Predict call", window, got)
		}
		for u := -3; u < tr.Len()+3; u++ {
			if got, want := p.WindowMax(u), p.Predict(u); got != want {
				t.Fatalf("window %d: WindowMax(%d) = %v, Predict = %v", window, u, got, want)
			}
		}
		if got := p.SamplesBuilt(); got != tr.Len() {
			t.Fatalf("window %d: %d samples built after Predict, want %d", window, got, tr.Len())
		}
	}
}

// The first Predict calls on a shared predictor may come from several
// goroutines at once, as the cells of a sweep share one; the array is
// built once and every caller reads it whole (run under -race).
func TestLookaheadMaxConcurrentFirstPredict(t *testing.T) {
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = float64((i * 7919) % 313)
	}
	tr := mkTrace(t, vals)
	p, err := NewLookaheadMax(tr, 50)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for u := g; u < tr.Len(); u += 97 {
				if got, want := p.Predict(u), tr.MaxInWindow(u, 50); got != want {
					errs <- fmt.Errorf("Predict(%d) = %v, want %v", u, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := p.SamplesBuilt(); got != tr.Len() {
		t.Errorf("%d samples built, want %d", got, tr.Len())
	}
}
