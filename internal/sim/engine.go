package sim

import (
	"fmt"
	"math"

	"repro/internal/bml"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Option configures how the Run functions execute a scenario.
type Option func(*options)

// engineKind selects one of the three BML execution engines. The static
// scenarios (upper/lower bounds) only distinguish tick from non-tick: every
// non-tick engine runs them through the day-span kernels below
// (foldHomogeneous, foldLowerBound).
type engineKind int

const (
	// engineIntegrator is the default: scheduler-event spans with a demand
	// fold over the raw samples inside each span.
	engineIntegrator engineKind = iota
	// engineEvent is the per-sample event engine: one interval per load or
	// prediction change.
	engineEvent
	// engineTick is the legacy 1 Hz loop.
	engineTick
)

type options struct {
	engine engineKind
}

// WithTickEngine selects the legacy 1 Hz tick loop: one scheduler step and
// one joule-sample per simulated second. It is kept as the differential-
// testing oracle for the faster engines and for exact replication of the
// paper's original integration scheme.
func WithTickEngine() Option { return func(o *options) { o.engine = engineTick } }

// WithEventEngine selects the per-sample event engine: the simulation skips
// directly from one event (load change, prediction change, transition
// completion, day boundary) to the next and integrates energy analytically
// over each interval. On raw 1 Hz traces every second is a load-change
// event, which is what the interval integrator improves on; the event
// engine is retained as the second differential oracle and as the engine of
// telemetry-recording runs.
func WithEventEngine() Option { return func(o *options) { o.engine = engineEvent } }

// WithIntegratorEngine selects the dispatch-aware interval integrator (the
// default): the simulation jumps between scheduler events only (decisions
// that act, transition completions, lock expiries, day boundaries) and
// folds the raw demand samples inside each span through the closed-form
// fill-first dispatch arithmetic, so raw un-quantized traces cost
// O(scheduler events) engine iterations rather than one per sample.
func WithIntegratorEngine() Option { return func(o *options) { o.engine = engineIntegrator } }

func buildOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// wakeCeil converts a scheduler wake-up delay in (possibly fractional)
// seconds into the first whole second at which the 1 Hz decision loop
// would observe the change.
func wakeCeil(w float64) int {
	return int(math.Ceil(w - 1e-9))
}

// intervalObserver sees every integrated interval of an event-engine BML
// run: [t, next) with the constant offered demand and the total energy
// charged to the interval (fleet integration plus any decision-instant
// migration energy). The recorder uses it to fold per-bucket telemetry
// into the event stream instead of re-running a 1 Hz loop.
type intervalObserver func(t, next int, demand float64, energy power.Joules)

// runBMLEvent is the event-driven BML scenario: decisions are evaluated
// only at event seconds and the fleet energy is integrated in closed form
// over each interval.
func runBMLEvent(tr *trace.Trace, sc *sched.Scheduler, pred predict.Predictor, res *Result) error {
	return runBMLEventObserved(tr, sc, res, newTimeline(tr, pred), nil)
}

// runBMLEventObserved is runBMLEvent with a caller-supplied timeline (which
// may include telemetry bucket boundaries) and an optional per-interval
// observer.
func runBMLEventObserved(tr *trace.Trace, sc *sched.Scheduler, res *Result, tl *timeline, obs intervalObserver) error {
	n := tr.Len()
	for t := 0; t < n; {
		// Static events (load, prediction, day, bucket, end) bound the
		// interval the decision outcome provably repeats over.
		static := tl.next(t)
		rep, err := sc.DecideInterval(t, static-t)
		if err != nil {
			return fmt.Errorf("sim: decide at %d: %w", t, err)
		}
		// The decision may have started transitions or a migration lock;
		// pre-existing ones also wake the scheduler mid-interval.
		next := static
		if w := sc.NextWake(); w > 0 {
			if s := t + wakeCeil(w); s < next {
				next = s
			}
		}
		if next <= t {
			next = t + 1
		}
		demand := tr.At(t)
		served, e, err := sc.IntegrateInterval(demand, float64(next-t))
		if err != nil {
			return fmt.Errorf("sim: integrate [%d,%d): %w", t, next, err)
		}
		res.addEnergy(t, e+rep.Energy)
		if obs != nil {
			obs(t, next, demand, e+rep.Energy)
		}
		if err := res.QoS.Observe(demand, served, float64(next-t)); err != nil {
			return err
		}
		t = next
	}
	return nil
}

// runBMLTick is the legacy 1 Hz loop retained as the differential oracle.
func runBMLTick(tr *trace.Trace, sc *sched.Scheduler, res *Result) error {
	for t := 0; t < tr.Len(); t++ {
		demand := tr.At(t)
		rep, err := sc.Step(t, demand, 1)
		if err != nil {
			return fmt.Errorf("sim: step %d: %w", t, err)
		}
		res.addEnergy(t, rep.Energy)
		if err := res.QoS.Observe(demand, rep.Served, 1); err != nil {
			return err
		}
	}
	return nil
}

// The bound scenarios' fast path is a day-span fold in the integrator's
// shape. Their model changes only at day edges (the fleet size) and at
// load changes (the draw), so each day computes its sizing once and walks
// tr.Window(day) one run of equal samples at a time. A run is one
// closed-form evaluation (draw × run length) and makes one addition to
// each running sum, in run order: total and daily energy as Neumaier
// pairs, the breakdown, and the QoS sums. The sums live in locals and are
// written back once per day, which leaves them exactly as per-run writes
// would. TestResultBitsPinned pins the resulting bits; the differential
// suites hold them within 1e-6 J of the tick oracle.

// daySums is one day's slice of a Result's running sums, held in locals by
// the day-span kernels: the total and daily energy as Neumaier pairs and
// the QoS sums.
type daySums struct {
	total, totalComp float64
	daily, dailyComp float64
	qos              qos.Fold
}

// startDay copies the running sums the kernels fold into out of r.
func (r *Result) startDay() daySums {
	return daySums{total: float64(r.TotalEnergy), totalComp: r.totalComp, qos: r.QoS.StartFold()}
}

// commitDay writes day d's sums back: the total and QoS always, the daily
// bucket only for complete days (a trailing partial day has none, exactly
// as addEnergy leaves it uncredited).
func (r *Result) commitDay(d int, s daySums) {
	r.TotalEnergy, r.totalComp = power.Joules(s.total), s.totalComp
	if d < len(r.DailyEnergy) {
		r.DailyEnergy[d], r.dailyComp[d] = power.Joules(s.daily), s.dailyComp
	}
	r.QoS.CommitFold(s.qos)
}

// foldHomogeneous integrates a homogeneous fleet whose size is a per-day
// constant: per run, the served load is the demand clamped to the day's
// capacity and the draw is fleetPowerN's fill-first packing.
func foldHomogeneous(tr *trace.Trace, arch profile.Arch, sizeForDay func(day int) int, res *Result) {
	idleW := float64(arch.IdlePower)
	for d, start := 0, 0; start < tr.Len(); d, start = d+1, start+trace.SecondsPerDay {
		nodes := sizeForDay(d)
		capacity := float64(nodes) * arch.MaxPerf
		idle := float64(nodes) * idleW
		bIdle, bDyn := float64(res.Breakdown.Idle), float64(res.Breakdown.Dynamic)
		s := res.startDay()
		w := tr.Window(start, start+trace.SecondsPerDay)
		for i := 0; i < len(w); {
			demand := w[i]
			j := trace.RunEnd(w, i)
			dt := float64(j - i)
			served := min(demand, capacity)
			total := fleetPowerN(&arch, nodes, served)
			bIdle += idle * dt
			bDyn += (total - idle) * dt
			e := total * dt
			s.total, s.totalComp = power.NeumaierAdd(s.total, s.totalComp, e)
			s.daily, s.dailyComp = power.NeumaierAdd(s.daily, s.dailyComp, e)
			s.qos.Seconds += dt
			s.qos.Demand.Add(demand * dt)
			s.qos.Served.Add(served * dt)
			if demand-served > qos.Slack {
				s.qos.ViolationSeconds += dt
			}
			i = j
		}
		res.Breakdown.Idle, res.Breakdown.Dynamic = power.Joules(bIdle), power.Joules(bDyn)
		res.commitDay(d, s)
	}
}

// foldLowerBound integrates the theoretical optimum: the ideal
// combination's power is a pure function of the instantaneous load, and
// the ideal fleet serves all of it. A load the solver cannot cover (an
// infinite optimum) is an error.
func foldLowerBound(tr *trace.Trace, solver *bml.ExactSolver, res *Result) error {
	for d, start := 0, 0; start < tr.Len(); d, start = d+1, start+trace.SecondsPerDay {
		s := res.startDay()
		w := tr.Window(start, start+trace.SecondsPerDay)
		for i := 0; i < len(w); {
			demand := w[i]
			j := trace.RunEnd(w, i)
			dt := float64(j - i)
			p := solver.PowerAt(demand)
			if !p.IsValid() {
				return power.ErrNegativePower
			}
			e := float64(p) * dt
			s.total, s.totalComp = power.NeumaierAdd(s.total, s.totalComp, e)
			s.daily, s.dailyComp = power.NeumaierAdd(s.daily, s.dailyComp, e)
			// The ideal fleet serves every request: the run never violates
			// QoS, and the served integral receives exactly the demand
			// integral's additions, so it is copied rather than re-summed.
			s.qos.Seconds += dt
			s.qos.Demand.Add(demand * dt)
			i = j
		}
		s.qos.Served = s.qos.Demand
		res.commitDay(d, s)
	}
	return nil
}
