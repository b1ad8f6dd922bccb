package sched

import (
	"math"

	"repro/internal/bml"
	"repro/internal/cluster"
	"repro/internal/power"
)

// This file is the interval integrator's scheduler interface. DecideSpan
// discovers how many seconds a decision outcome repeats for: it executes
// the decision at the span start, then finds the first later second whose
// would-be outcome acts. The search touches no fleet state, so an engine
// can integrate the whole quiescent span in one demand fold instead of
// one step per second.
//
// On the default path (no application, not overhead-aware, the
// look-ahead predictor and a dense table) an outcome is no-op exactly
// while the prediction stays in a band of the table, so the search is a
// first-exit query over the trace's block summary (firstActing). Other
// configurations scan predictions one second at a time, classifying each
// second as no-op, overhead-aware skip or action.

// DecideSpan runs the decision logic at second t, then returns the first
// second in (t, limit] at which the engine must call DecideSpan again:
// either the first second whose decision would reconfigure the fleet, or
// limit. Seconds t..next-1 have their decision outcome fully accounted
// (counters the 1 Hz loop would bump each second — skipped
// reconfigurations, malleability adjustments — are advanced by the scan);
// the acting second itself is NOT executed, so the next DecideSpan call at
// next performs it exactly as the tick oracle would.
//
// Busy spans (transitions in flight, a pending retire phase, or an active
// migration lock) return limit immediately: the scheduler takes no decision
// until its timers fire, and the caller already bounds the span by
// NextWake, which is guaranteed positive while busy.
func (s *Scheduler) DecideSpan(t, limit int) (StepReport, int, error) {
	var rep StepReport
	if limit <= t {
		limit = t + 1
	}
	if err := s.decide(t, &rep, true); err != nil {
		return rep, 0, err
	}
	if s.reconfiguring() || s.pending != nil {
		// Busy: no decision can fire before a timer does, and NextWake > 0
		// bounds the caller's span.
		return rep, limit, nil
	}
	if rep.Decided {
		// The decision acted but resolved instantly (zero-duration
		// transitions): stay conservative and re-decide next second.
		return rep, t + 1, nil
	}
	if s.window != nil {
		return rep, s.firstActing(t+1, limit, rep.Predicted), nil
	}
	// Quiescent scan. Fleet counts cannot change without a decision acting,
	// so the current counts are computed once for the whole span.
	var cur map[string]int
	if s.app != nil {
		cur = s.cl.Counts()
	}
	// The outcome of a scanned second is a pure function of its prediction
	// (the fleet is frozen during the scan), so a second whose prediction
	// equals the previous one repeats the previous classification — only
	// its per-second counter effects are replayed. Look-ahead predictions
	// hold for long stretches, which makes this the scan's common case.
	prevP := math.NaN() // never equal on the first iteration
	prevSkip, prevAdjusted := false, false
	for u := t + 1; u < limit; u++ {
		p := s.pred.Predict(u) * s.headroom
		if p == prevP {
			if prevAdjusted {
				s.adjustments++
			}
			if prevSkip {
				s.skipped++
			}
			continue
		}
		prevP, prevSkip, prevAdjusted = p, false, false
		target := s.table.At(p)
		if s.app == nil {
			// No malleability adjustment is possible, so the no-op test
			// is a positional slot-vs-fleet compare with no allocation.
			if s.fleetMatches(target) {
				continue
			}
			if s.overheadAware && !s.reconfigurationWorthIt(target.Counts(), p) {
				s.skipped++
				prevSkip = true
				continue
			}
			return rep, u, nil
		}
		// Application path: mirror decide's per-second derivation exactly,
		// including its counter side effects on non-acting seconds.
		counts, adjusted := s.adjustForMalleability(target, p)
		prevAdjusted = adjusted
		switch {
		case sameCounts(counts, cur):
			if adjusted {
				s.adjustments++
			}
		case s.overheadAware && !s.reconfigurationWorthIt(counts, p):
			if adjusted {
				s.adjustments++
			}
			s.skipped++
			prevSkip = true
		default:
			return rep, u, nil
		}
	}
	return rep, limit, nil
}

// firstActing returns the first second in [from, limit) whose decision
// would act on the default path, or limit; p is the (headroom-scaled)
// prediction of the quiescent decision just taken at from-1. On that path
// a second acts exactly when At of its prediction differs in node counts
// from the fleet, and no counter moves on the seconds that do not act.
// While the prediction stays in the band of the table around p, the
// counts are those of At(p), which the quiescent decision found equal to
// the fleet's; FirstExit finds the first second that leaves the band.
// There the counts may still match — the same counts recurring in
// another band — and the query continues from the next second with the
// new prediction's band. The second returned is the one the per-second
// scan would return.
func (s *Scheduler) firstActing(from, limit int, p float64) int {
	for u := from; u < limit; u++ {
		lo, hi := s.dense.Band(p)
		var read int
		u, read = s.window.FirstExit(u, limit, s.headroom, lo, hi)
		s.exitRead += read
		if u >= limit {
			break
		}
		p = s.window.WindowMax(u) * s.headroom
		if !s.fleetMatches(s.dense.At(p)) {
			return u
		}
	}
	return limit
}

// ExitSamplesRead returns how many samples DecideSpan's first-exit queries
// have read one at a time (predict.LookaheadMax.FirstExit), over the
// scheduler's lifetime.
func (s *Scheduler) ExitSamplesRead() int { return s.exitRead }

// fleetMatches reports whether the combination's node counts equal the
// fleet's active counts — sameCounts(target.Counts(), s.cl.Counts())
// without building either map: every slot must match, and the fleet may
// hold no active architecture beyond the combination's positive slots.
func (s *Scheduler) fleetMatches(target bml.Combination) bool {
	nonzero := 0
	for _, sl := range target.Slots {
		want := sl.Nodes()
		if s.cl.ActiveCount(sl.Arch.Name) != want {
			return false
		}
		if want > 0 {
			nonzero++
		}
	}
	return nonzero == s.cl.ActiveArchs()
}

// StartDemandFold begins a demand fold over the cluster's current
// configuration (see cluster.DemandFold). The fold integrates the On
// fleet's energy over runs of constant demand; FinishDemandFold commits it.
func (s *Scheduler) StartDemandFold() *cluster.DemandFold {
	return s.cl.StartFold()
}

// FinishDemandFold commits a demand fold over dt seconds ending on
// lastDemand and drains the application migration lock, mirroring what a
// sequence of Step calls over the span would have done to the scheduler's
// timers.
func (s *Scheduler) FinishDemandFold(f *cluster.DemandFold, lastDemand, dt float64) (power.Joules, error) {
	e, err := f.Commit(lastDemand, dt)
	s.drainMigrationLock(dt)
	return e, err
}
