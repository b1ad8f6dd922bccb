package sim

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/trace"
)

// This file implements the dispatch-aware interval integrator, the default
// BML engine.
//
// The tick loop (engine.go) pays one scheduler step per simulated second.
// The integrator iterates only on scheduler events: between two of them
// the machine configuration is fixed, and profile.Arch.PowerAt is affine
// in load, so under fill-first dispatch each pool draws
// n·IdlePower + slope·served, where served is the demand clamped to the
// pool's band of cumulative capacity (cluster.DemandFold). The engine only
// iterates on
//
//   - decisions that act (found by sched.DecideSpan's first-exit query),
//   - transition completions and migration-lock expiries (NextWake),
//   - day boundaries, telemetry bucket boundaries (RunBMLRecorded only)
//     and the trace end.
//
// Inside each span the raw samples are folded in closed form
// (cluster.DemandFold.Fold): span energy needs only each pool's sum of
// clamped demand, which a 64-sample block of the trace's summary
// (trace.Blocks) yields from its min, max and sum unless a band edge falls
// inside the block. The result differs from the tick oracle only by
// rounding — the differential suites hold the two to ≤1e-6 J and exact
// counters, on raw traces too. The engine's cost is one O(samples) build
// of the block summary, shared with the span search and the bounds, plus
// O(scheduler events) iterations, each of which reads the samples of its
// span's partial edge blocks and of the blocks that straddle a band edge
// or cannot be skipped by sched's first-exit query (Result.Cost counts
// them) — which is what makes raw traces as cheap per simulated second as
// quantized ones.

// runBMLIntegrator is the interval-integrator BML engine loop. A positive
// bucketSeconds also ends spans at multiples of it, so that each span lies
// inside one telemetry bucket. obs, when non-nil, sees every span [t, next)
// with its demand integral (request-seconds) and the total energy charged
// to it: fleet integration plus any decision-instant migration energy.
// Plain runs pass 0 and nil.
func runBMLIntegrator(b *trace.Blocks, sc *sched.Scheduler, res *Result, bucketSeconds int, obs func(t, next int, demandInt float64, e power.Joules)) error {
	tr := b.Trace()
	n := tr.Len()
	for t := 0; t < n; {
		// Spans never cross day (or bucket) boundaries, so addEnergy's day
		// bucketing is exact without splitting energies after the fact.
		limit := (t/trace.SecondsPerDay + 1) * trace.SecondsPerDay
		if bucketSeconds > 0 {
			limit = min(limit, (t/bucketSeconds+1)*bucketSeconds)
		}
		if limit > n {
			limit = n
		}
		rep, next, err := sc.DecideSpan(t, limit)
		if err != nil {
			return fmt.Errorf("sim: decide span at %d: %w", t, err)
		}
		// Transitions and migration locks wake the scheduler mid-span.
		if w := sc.NextWake(); w > 0 {
			if s := t + wakeCeil(w); s < next {
				next = s
			}
		}
		if next <= t {
			next = t + 1
		}

		fold := sc.StartDemandFold()
		demandInt, servedInt, violation := fold.Fold(b, t, next)
		e, err := sc.FinishDemandFold(fold, tr.At(next-1), float64(next-t))
		if err != nil {
			return fmt.Errorf("sim: integrate [%d,%d): %w", t, next, err)
		}
		res.addEnergy(t, e+rep.Energy)
		if obs != nil {
			obs(t, next, demandInt, e+rep.Energy)
		}
		if err := res.QoS.ObserveSpan(float64(next-t), demandInt, servedInt, violation); err != nil {
			return err
		}
		res.Cost.Spans++
		t = next
	}
	return nil
}
