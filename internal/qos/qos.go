// Package qos accounts for quality-of-service during simulation: whenever
// the powered-on capacity falls short of the offered load (for example
// while big machines are still booting), the shortfall is recorded as lost
// request-seconds and the second counts as a violation. The paper's
// scheduler is designed to avoid such violations by provisioning for the
// predicted window maximum; this package is how the evaluation verifies it.
//
// The demand and served integrals are Neumaier-compensated so that engines
// integrating the same trace in different interval decompositions (the 1 Hz
// tick oracle and the interval integrator) agree on availability to well
// below the differential-test tolerance.
package qos

import (
	"fmt"
	"math"

	"repro/internal/power"
)

// Slack is the rate tolerance of every QoS verdict: served may exceed
// offered by at most Slack (float noise), and an interval violates QoS
// when offered exceeds served by more than Slack.
const Slack = 1e-9

// Tracker accumulates QoS statistics over a simulation run. The zero value
// is ready to use.
type Tracker struct {
	sums Fold
}

// Fold is a copy of a Tracker's running sums. A simulation kernel that
// accounts many intervals of a fresh tracker in a tight loop keeps the sums
// in locals and writes them back with CommitFold, instead of paying a
// validated Observe call per interval. To leave the tracker exactly as
// per-interval Observe calls would, the kernel must uphold Observe's
// preconditions and make Observe's additions, in order:
//
//	f.Seconds += dt
//	f.Demand.Add(offered * dt)
//	f.Served.Add(served * dt)
//	if offered-served > Slack { f.ViolationSeconds += dt }
type Fold struct {
	Seconds          float64
	ViolationSeconds float64
	Demand           power.Accumulator // integral of offered load (request count)
	Served           power.Accumulator // integral of served load
}

// CommitFold sets the tracker's running sums to a kernel's fold.
func (t *Tracker) CommitFold(f Fold) { t.sums = f }

// Observe records one interval of dt seconds with the given offered and
// served rates.
func (t *Tracker) Observe(offered, served, dt float64) error {
	if dt < 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return fmt.Errorf("qos: invalid duration %v", dt)
	}
	if offered < 0 || served < 0 || math.IsNaN(offered) || math.IsNaN(served) {
		return fmt.Errorf("qos: invalid rates offered=%v served=%v", offered, served)
	}
	if served > offered+Slack {
		return fmt.Errorf("qos: served %v exceeds offered %v", served, offered)
	}
	t.sums.Seconds += dt
	t.sums.Demand.Add(offered * dt)
	t.sums.Served.Add(served * dt)
	if offered-served > Slack {
		t.sums.ViolationSeconds += dt
	}
	return nil
}

// ObserveSpan records a whole span at once from pre-folded integrals: the
// interval integrator classifies violations and integrates demand/served
// while folding runs of constant demand, then commits the span here in one
// call instead of one Observe per run. The violation verdict (a pure
// function of the per-second rates) must already be folded into
// violationSeconds by the caller.
func (t *Tracker) ObserveSpan(seconds, demandIntegral, servedIntegral, violationSeconds float64) error {
	if seconds < 0 || math.IsNaN(seconds) || math.IsInf(seconds, 0) {
		return fmt.Errorf("qos: invalid duration %v", seconds)
	}
	if violationSeconds < 0 || violationSeconds > seconds {
		return fmt.Errorf("qos: violation seconds %v outside span of %v seconds", violationSeconds, seconds)
	}
	if demandIntegral < 0 || servedIntegral < 0 || math.IsNaN(demandIntegral) || math.IsNaN(servedIntegral) {
		return fmt.Errorf("qos: invalid integrals demand=%v served=%v", demandIntegral, servedIntegral)
	}
	t.sums.Seconds += seconds
	t.sums.Demand.Add(demandIntegral)
	t.sums.Served.Add(servedIntegral)
	t.sums.ViolationSeconds += violationSeconds
	return nil
}

// Seconds returns the observed duration.
func (t *Tracker) Seconds() float64 { return t.sums.Seconds }

// ViolationSeconds returns the time during which demand exceeded capacity.
func (t *Tracker) ViolationSeconds() float64 { return t.sums.ViolationSeconds }

// LostRequests returns the integral of unserved load (requests dropped by
// the stateless web application when capacity was short).
func (t *Tracker) LostRequests() float64 { return t.sums.Demand.Sum() - t.sums.Served.Sum() }

// TotalRequests returns the integral of offered load.
func (t *Tracker) TotalRequests() float64 { return t.sums.Demand.Sum() }

// Availability returns the served fraction of demand in [0, 1]; a run with
// zero demand is fully available.
func (t *Tracker) Availability() float64 {
	d := t.sums.Demand.Sum()
	if d == 0 {
		return 1
	}
	return t.sums.Served.Sum() / d
}

// ViolationRatio returns the violating fraction of observed time.
func (t *Tracker) ViolationRatio() float64 {
	if t.sums.Seconds == 0 {
		return 0
	}
	return t.sums.ViolationSeconds / t.sums.Seconds
}

// Merge folds another tracker's observations into t.
func (t *Tracker) Merge(o *Tracker) {
	t.sums.Seconds += o.sums.Seconds
	t.sums.ViolationSeconds += o.sums.ViolationSeconds
	t.sums.Demand.Add(o.sums.Demand.Sum())
	t.sums.Served.Add(o.sums.Served.Sum())
}

// String summarizes the tracker.
func (t *Tracker) String() string {
	return fmt.Sprintf("qos: availability=%.4f%% violations=%.0fs lost=%.0f requests",
		t.Availability()*100, t.sums.ViolationSeconds, t.LostRequests())
}
