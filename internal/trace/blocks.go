package trace

import "math"

// BlockSize is how many samples one block of a Blocks summary covers. A day
// at 1 Hz is exactly 1350 blocks, so day windows are block-aligned.
const BlockSize = 64

// Blocks summarizes a trace in absolute-aligned blocks: block k covers
// samples [k·BlockSize, (k+1)·BlockSize), the last block possibly shorter,
// and holds their min, max and sum. It is built in one O(n) pass and is
// immutable afterwards, so one summary can be shared by every leg of an
// evaluation and every cell of a sweep over the same trace.
//
// Every per-sample quantity the simulator folds is a function of a block's
// min, max and sum as long as no threshold of interest falls inside the
// block's [min, max] range: range maxima, first-exit queries against a
// band, and closed-form demand folds read whole blocks from here and touch
// samples only at partial edges and at blocks that straddle a threshold.
//
// A summary is not memoized on its Trace: each evaluation builds its own
// (or shares one explicitly), so the cost of the pass is paid where it is
// used.
type Blocks struct {
	tr            *Trace
	min, max, sum []float64
}

// NewBlocks builds the block summary of t in one pass over its samples.
func NewBlocks(t *Trace) *Blocks {
	n := len(t.values)
	nb := (n + BlockSize - 1) / BlockSize
	buf := make([]float64, 3*nb)
	b := &Blocks{tr: t, min: buf[:nb:nb], max: buf[nb : 2*nb : 2*nb], sum: buf[2*nb:]}
	for k := 0; k < nb; k++ {
		b.min[k], b.max[k], b.sum[k] = Summarize(t.values[k*BlockSize : min((k+1)*BlockSize, n)])
	}
	return b
}

// Summarize returns the min, max and sum of a non-empty run of samples,
// computed as Blocks computes them for one block. The samples must be
// non-negative (a -0 counts as the lowest value), as every Trace's are:
// their bit patterns as int64 then order like their values, which lets
// the min and max compile without branches. The sum runs in four plain
// lanes, (s0+s1)+(s2+s3).
func Summarize(w []float64) (lo, hi, sum float64) {
	loBits := int64(math.Float64bits(w[0]))
	hiBits := loBits
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(w); i += 4 {
		v := w[i : i+4 : i+4]
		s0 += v[0]
		s1 += v[1]
		s2 += v[2]
		s3 += v[3]
		b0, b1 := int64(math.Float64bits(v[0])), int64(math.Float64bits(v[1]))
		b2, b3 := int64(math.Float64bits(v[2])), int64(math.Float64bits(v[3]))
		loBits = min(loBits, min(b0, b1), min(b2, b3))
		hiBits = max(hiBits, max(b0, b1), max(b2, b3))
	}
	for ; i < len(w); i++ {
		s0 += w[i]
		bits := int64(math.Float64bits(w[i]))
		loBits = min(loBits, bits)
		hiBits = max(hiBits, bits)
	}
	return math.Float64frombits(uint64(loBits)), math.Float64frombits(uint64(hiBits)), (s0 + s1) + (s2 + s3)
}

// Trace returns the summarized trace.
func (b *Blocks) Trace() *Trace { return b.tr }

// Block returns block k's min, max and sum.
func (b *Blocks) Block(k int) (lo, hi, sum float64) { return b.min[k], b.max[k], b.sum[k] }

// BlockMax returns block k's max.
func (b *Blocks) BlockMax(k int) float64 { return b.max[k] }

// Max returns the trace's global maximum, Trace.Max, from the block maxima
// alone.
func (b *Blocks) Max() float64 {
	m := 0.0
	for _, v := range b.max {
		if v > m {
			m = v
		}
	}
	return m
}

// MaxInWindow returns Trace.MaxInWindow(from, width), bit for bit: the
// maximum over samples [from, from+width), clamped to the trace.
func (b *Blocks) MaxInWindow(from, width int) float64 {
	n := len(b.tr.values)
	if width <= 0 || n == 0 {
		return 0
	}
	from = max(from, 0)
	to := min(from+width, n)
	if from >= n {
		from, to = n-1, n
	}
	m, _ := b.RangeMax(from, to)
	return m
}

// RangeMax returns the maximum over samples [from, to), which must lie in
// the trace, or 0 for an empty range; read is how many samples it read one
// at a time. Whole blocks inside the range contribute their block max. A
// partial block at an edge of the range is read only when its block max
// exceeds the maximum found so far: otherwise no sample of it can.
func (b *Blocks) RangeMax(from, to int) (m float64, read int) {
	if from >= to {
		return 0, 0
	}
	vals := b.tr.values
	first, last := from/BlockSize, (to-1)/BlockSize
	// [wFirst, wLast] are the blocks the range covers whole.
	wFirst, wLast := first, last
	if from > first*BlockSize {
		wFirst++
	}
	if to < min((last+1)*BlockSize, len(vals)) {
		wLast--
	}
	for _, v := range b.max[wFirst:max(wFirst, wLast+1)] {
		if v > m {
			m = v
		}
	}
	scan := func(w []float64) {
		for _, v := range w {
			if v > m {
				m = v
			}
		}
		read += len(w)
	}
	if wFirst > first && b.max[first] > m {
		scan(vals[from:min(to, wFirst*BlockSize)])
	}
	if wLast < last && last >= wFirst && b.max[last] > m {
		scan(vals[max(from, last*BlockSize):to])
	}
	return m, read
}
