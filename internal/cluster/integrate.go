package cluster

import (
	"repro/internal/power"
	"repro/internal/qos"
	"repro/internal/trace"
)

// DemandFold integrates the On fleet's energy over a span of demand samples
// without materializing per-machine loads per sample. Between two scheduler
// events the machine configuration is fixed, and profile.Arch.PowerAt is
// affine in load, so under fill-first dispatch a pool of n On machines
// draws n·IdlePower + slope·served, where slope = (MaxPower −
// IdlePower)/MaxPerf and served is the demand clamped to the pool's band of
// cumulative capacity: pool k, in dispatch order, serves
// clamp(d − lo_k, 0, cap_k) with cap_k = n_k·MaxPerf and lo_k the capacity
// of the pools before it. A span's On energy is therefore
//
//	Σ_k n_k·IdlePower·T + slope_k·Σ_t clamp(d_t − lo_k, 0, cap_k)
//
// and Fold only has to accumulate the per-pool clamp sums. It reads them
// from the trace's block summary (trace.Blocks: each absolute-aligned
// 64-sample block's min, max and sum, built once per trace): a whole block
// whose [min, max] range contains no band edge strictly inside adds 0,
// cap·len or sum − lo·len to every pool without touching its samples.
// Only the span's partial edge blocks are read (and summarized on the
// spot), and only blocks that straddle an edge are folded one sample at a
// time; FoldSamplesRead counts the samples read, SlowFoldSamples those
// folded one at a time. Commit then materializes the end-of-span state
// once (dispatch is memoryless: the final loads depend only on the last
// sample), charges the pools' idle and dynamic energies, and ticks only
// the transitioning machines, whose automata charge exact transition
// energies over the whole span. The result differs from per-sample
// Distribute+Tick only by rounding; the differential suites hold it to
// ≤1e-6 J of the tick oracle.
//
// The contract mirrors the engine's event bounds: no transition may
// complete strictly before the span's final second (the caller bounds spans
// by NextTransitionEnd), so deferring completion folding to Commit observes
// completions at exactly the second the per-interval oracles do.
//
// A fold is single-use per span and reused across spans via
// Cluster.StartFold; like the Cluster itself it is not safe for concurrent
// use.
type DemandFold struct {
	c     *Cluster
	pools []foldPool
	// active indexes the pools with On machines, in dispatch order: the
	// only pools that serve demand and draw power.
	active []int
	// capacity is the On fleet's total capacity, the top band edge.
	capacity float64
	energy   power.Accumulator
	// read counts the samples read one at a time, and slow the samples
	// folded one at a time, over every span the fold has served:
	// deterministic cost counters (see FoldSamplesRead, SlowFoldSamples).
	read, slow int
}

// foldPool is one pool's span-constant band and slope, cached by StartFold,
// and its clamp sum over the span.
type foldPool struct {
	n      int
	lo, hi float64 // the pool's demand band [lo, hi), hi = lo + cap
	cap    float64 // n·MaxPerf
	slope  float64 // (MaxPower − IdlePower)/MaxPerf, W per unit of load
	idleW  float64 // n·IdlePower
	// served is Σ_t clamp(d_t − lo, 0, cap) over the span.
	served power.Accumulator
}

// StartFold begins a demand fold over the cluster's current configuration.
// The returned fold is owned by the cluster and recycled on the next call.
func (c *Cluster) StartFold() *DemandFold {
	if c.fold == nil {
		c.fold = &DemandFold{c: c, pools: make([]foldPool, len(c.poolList))}
	}
	f := c.fold
	f.active = f.active[:0]
	lo := 0.0
	for i, p := range c.poolList {
		n := len(p.on)
		capacity := float64(n) * p.arch.MaxPerf
		f.pools[i] = foldPool{
			n:     n,
			lo:    lo,
			hi:    lo + capacity,
			cap:   capacity,
			slope: float64(p.arch.MaxPower-p.arch.IdlePower) / p.arch.MaxPerf,
			idleW: float64(n) * float64(p.arch.IdlePower),
		}
		if n > 0 {
			f.active = append(f.active, i)
			lo += capacity
		}
	}
	f.capacity = lo
	f.energy.Reset()
	return f
}

// FoldSamplesRead returns how many samples the cluster's demand folds have
// read one at a time, over every span since the cluster was built: the
// samples of partial blocks at span edges and of whole blocks that
// straddle a band edge. Every other sample is folded in closed form from
// its block's summary.
func (c *Cluster) FoldSamplesRead() int {
	if c.fold == nil {
		return 0
	}
	return c.fold.read
}

// SlowFoldSamples returns how many samples the cluster's demand folds have
// folded one at a time, because their block (or a span's partial edge
// block) straddled a band edge, over every span since the cluster was
// built.
func (c *Cluster) SlowFoldSamples() int {
	if c.fold == nil {
		return 0
	}
	return c.fold.slow
}

// Fold folds the demand samples [from, to) of the trace that b summarizes
// into the pools' clamp sums. It returns the span's compensated demand and
// served integrals (served is Σ min(d, capacity)) and its QoS violation
// seconds, the seconds whose demand exceeds the capacity by more than
// qos.Slack. Machines are not touched.
//
// Whole blocks of the summary inside the span fold from their min, max
// and sum; the span's partial edge blocks are summarized from their
// samples first. A block that straddles a band edge is folded one sample
// at a time.
func (f *DemandFold) Fold(b *trace.Blocks, from, to int) (demand, served, violation float64) {
	var acc foldSums
	vals := b.Trace().Window(0, b.Trace().Len())
	for from < to {
		k := from / trace.BlockSize
		end := min((k+1)*trace.BlockSize, len(vals))
		w := vals[from:min(end, to)]
		whole := from == k*trace.BlockSize && end <= to
		var lo, hi, sum float64
		if whole {
			lo, hi, sum = b.Block(k)
		} else {
			lo, hi, sum = trace.Summarize(w)
			f.read += len(w)
		}
		if f.uniform(lo, hi) {
			f.foldUniform(&acc, len(w), lo, hi, sum)
		} else {
			if whole {
				f.read += len(w)
			}
			f.foldSamples(&acc, w, sum)
		}
		from += len(w)
	}
	return acc.demand.Sum(), acc.served.Sum(), acc.violation
}

// foldSums are a span's demand and served integrals and violation seconds.
type foldSums struct {
	demand, served power.Accumulator
	violation      float64
}

// foldUniform folds n samples with range [lo, hi] and sum sum, no band
// edge lying strictly inside (lo, hi): every sample sits in the same band
// of every pool.
func (f *DemandFold) foldUniform(acc *foldSums, n int, lo, hi, sum float64) {
	fn := float64(n)
	acc.demand.Add(sum)
	for _, k := range f.active {
		fp := &f.pools[k]
		switch {
		case hi <= fp.lo:
		case lo >= fp.hi:
			fp.served.Add(fp.cap * fn)
		default:
			fp.served.Add(sum - fp.lo*fn)
		}
	}
	if hi <= f.capacity {
		acc.served.Add(sum)
	} else {
		acc.served.Add(f.capacity * fn)
	}
	if hi-f.capacity > qos.Slack {
		acc.violation += fn
	}
}

// foldSamples folds the samples w, whose sum is sum, one at a time.
func (f *DemandFold) foldSamples(acc *foldSums, w []float64, sum float64) {
	f.slow += len(w)
	capacity := f.capacity
	acc.demand.Add(sum)
	for _, d := range w {
		for _, k := range f.active {
			fp := &f.pools[k]
			fp.served.Add(min(max(d-fp.lo, 0), fp.cap))
		}
		acc.served.Add(min(d, capacity))
		if d-capacity > qos.Slack {
			acc.violation++
		}
	}
}

// uniform reports whether a block with sample range [lo, hi] can be folded
// in closed form: no pool's band edge lies strictly inside (lo, hi), and
// the violation test d − capacity > qos.Slack, which is monotone in d,
// gives the same answer at both ends.
func (f *DemandFold) uniform(lo, hi float64) bool {
	if lo == hi {
		return true
	}
	for _, k := range f.active {
		fp := &f.pools[k]
		if (lo < fp.lo && fp.lo < hi) || (lo < fp.hi && fp.hi < hi) {
			return false
		}
	}
	return lo-f.capacity > qos.Slack == (hi-f.capacity > qos.Slack)
}

// Commit closes the span: it materializes the end-of-span machine state by
// dispatching the span's final demand sample (per-machine loads, cached
// aggregates, and the dispatch shape all become exactly what per-sample
// integration would have left behind), advances the clock by the whole span,
// merges the folded pool energy splits, ticks the transitioning machines,
// and folds any transition completions. It returns the span's total energy:
// the folded On-fleet energy plus the exact transition energies.
func (f *DemandFold) Commit(lastDemand, dt float64) (power.Joules, error) {
	c := f.c
	if _, err := c.Distribute(lastDemand); err != nil {
		return 0, err
	}
	c.now += dt
	for i, p := range c.poolList {
		fp := &f.pools[i]
		if fp.n > 0 {
			// The On count is frozen for the whole span, so the idle floor
			// integrates in closed form; the dynamic component is the
			// pool's slope times its served load.
			idle := fp.idleW * dt
			dyn := fp.slope * fp.served.Sum()
			f.energy.Add(idle)
			f.energy.Add(dyn)
			p.aggIdle, p.aggIdleComp = power.NeumaierAdd(p.aggIdle, p.aggIdleComp, idle)
			p.aggDyn, p.aggDynComp = power.NeumaierAdd(p.aggDyn, p.aggDynComp, dyn)
		}
		for _, nd := range p.trans {
			e, err := nd.m.Tick(dt)
			if err != nil {
				return 0, err
			}
			f.energy.Add(float64(e))
		}
		c.foldCompletions(p)
	}
	c.pruneTransitions()
	return power.Joules(f.energy.Sum()), nil
}
