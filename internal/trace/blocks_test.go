package trace

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/power"
)

// randomTrace draws a trace of n samples with plateaus, zeros and -0
// samples, so that blocks hit every case: constant, all-zero, mixed signs
// of zero, and noisy.
func randomTrace(rng *rand.Rand, n int) *Trace {
	vals := make([]float64, n)
	level := rng.Float64() * 100
	for i := range vals {
		switch rng.Intn(20) {
		case 0:
			level = rng.Float64() * 100
		case 1:
			vals[i] = math.Copysign(0, -1)
			continue
		case 2:
			vals[i] = 0
			continue
		}
		if rng.Intn(3) > 0 {
			level = math.Max(0, level+rng.NormFloat64())
		}
		vals[i] = level
	}
	if rng.Intn(5) == 0 {
		for i := range vals {
			vals[i] = math.Copysign(0, -1) // an all -0 trace
		}
	}
	return MustNew(vals)
}

// Every block's min, max and sum match its samples: min and max exactly
// (compared as values, so -0 equals 0), the sum to a Neumaier sum's
// rounding. Lengths cover traces shorter than one block and traces that
// are not a multiple of BlockSize.
func TestBlocksMatchSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(5*BlockSize)
		if iter%4 == 0 {
			n = 1 + rng.Intn(BlockSize-1)
		}
		tr := randomTrace(rng, n)
		b := NewBlocks(tr)
		if want := (n + BlockSize - 1) / BlockSize; len(b.max) != want || b.Trace() != tr {
			t.Fatalf("n %d: %d blocks, want %d", n, len(b.max), want)
		}
		for k := range b.max {
			w := tr.values[k*BlockSize : min((k+1)*BlockSize, n)]
			lo, hi := math.Inf(1), math.Inf(-1)
			var sum power.Accumulator
			for _, v := range w {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				sum.Add(v)
			}
			gotLo, gotHi, gotSum := b.Block(k)
			if gotLo != lo || gotHi != hi || b.BlockMax(k) != hi {
				t.Fatalf("n %d block %d: min/max %v/%v, want %v/%v", n, k, gotLo, gotHi, lo, hi)
			}
			if d := math.Abs(gotSum - sum.Sum()); d > 1e-13*math.Max(1, math.Abs(sum.Sum())) {
				t.Fatalf("n %d block %d: sum %v, want %v", n, k, gotSum, sum.Sum())
			}
		}
		if got, want := b.Max(), tr.Max(); got != want || math.Signbit(got) != math.Signbit(want) {
			t.Fatalf("n %d: Max %v, want %v", n, got, want)
		}
	}
}

// The summary's MaxInWindow is Trace.MaxInWindow bit for bit, -0 included,
// for every window position and width, clamped ones too; RangeMax reads
// no more samples than the range's two partial edge blocks hold.
func TestBlocksMaxInWindowMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(6*BlockSize)
		if iter%4 == 0 {
			n = 1 + rng.Intn(BlockSize-1)
		}
		tr := randomTrace(rng, n)
		b := NewBlocks(tr)
		for q := 0; q < 200; q++ {
			from := rng.Intn(n+10) - 5
			width := rng.Intn(3*BlockSize) - 2
			got, want := b.MaxInWindow(from, width), tr.MaxInWindow(from, width)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n %d: MaxInWindow(%d, %d) = %v, want %v", n, from, width, got, want)
			}
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			m, read := b.RangeMax(lo, hi)
			if want := tr.MaxInWindow(lo, hi-lo); m != want {
				t.Fatalf("n %d: RangeMax(%d, %d) = %v, want %v", n, lo, hi, m, want)
			}
			if read > 2*(BlockSize-1) || read > hi-lo {
				t.Fatalf("n %d: RangeMax(%d, %d) read %d samples", n, lo, hi, read)
			}
		}
	}
}

// A day-aligned range is whole blocks: its max reads no sample.
func TestBlocksDayRangeReadsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng, 2*SecondsPerDay+1000)
	b := NewBlocks(tr)
	for d := 0; d < 3; d++ {
		from, to := d*SecondsPerDay, min((d+1)*SecondsPerDay, tr.Len())
		m, read := b.RangeMax(from, to)
		if read != 0 || m != tr.MaxInWindow(from, to-from) {
			t.Fatalf("day %d: max %v after reading %d samples, want %v after none", d, m, read, tr.MaxInWindow(from, to-from))
		}
	}
}
