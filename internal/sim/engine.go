package sim

import (
	"fmt"
	"math"

	"repro/internal/bml"
	"repro/internal/power"
	"repro/internal/profile"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Option configures how the Run functions execute a scenario.
type Option func(*options)

type options struct {
	// tick selects the legacy 1 Hz loop instead of the default engines.
	tick bool
}

// WithTickEngine selects the legacy 1 Hz tick loop: one scheduler step and
// one joule-sample per simulated second. It is kept as the differential-
// testing oracle for the default engines and for exact replication of the
// paper's original integration scheme.
func WithTickEngine() Option { return func(o *options) { o.tick = true } }

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

// The bound scenarios' fast path is one day-span fold in the integrator's
// shape, shared by every bound leg a call asks for. Their models change
// only at day edges (the fleet size) and at load changes (the draw), so
// each day sizes every leg once and walks tr.Window(day) one run of equal
// samples at a time, folding the QoS seconds and demand sums every leg
// shares and the day's own demand integral D_day. The sums live in locals
// while a leg folds a chunk of runs and are written back to the Result
// once per day.
//
// A homogeneous leg whose day peak fits its capacity serves every run in
// full, and profile.Arch.PowerAt is affine, so its fill-first draw on n
// nodes is n·IdlePower + slope·demand with slope = (MaxPower −
// IdlePower)/MaxPerf: the day's energy is n·IdlePower·T_day + slope·D_day,
// charged once at the end of the day with no per-run work at all. Only a
// day that clamps (UB PerDay's trailing partial day, whose fallback sizing
// can under-provision) packs each run with fleetPowerN. The LowerBound leg
// looks its powers up one chunk of runs at a time. TestResultBitsPinned
// pins the resulting bits; TestRunAllMatchesSequentialRuns holds the fused
// legs to the single-leg calls bit for bit; the differential suites hold
// them within 1e-6 J of the tick oracle.

// energySums is one leg's energy for the day, held in locals: the total and
// daily energy as Neumaier pairs.
type energySums struct {
	total, totalComp float64
	daily, dailyComp float64
}

// startDay copies the energy sums the kernel folds into out of r.
func (r *Result) startDay() energySums {
	return energySums{total: float64(r.TotalEnergy), totalComp: r.totalComp}
}

// commitDay writes day d's sums back: the total and QoS always, the daily
// bucket only for complete days (a trailing partial day has none, exactly
// as addEnergy leaves it uncredited).
func (r *Result) commitDay(d int, s energySums, q qos.Fold) {
	r.TotalEnergy, r.totalComp = power.Joules(s.total), s.totalComp
	if d < len(r.DailyEnergy) {
		r.DailyEnergy[d], r.dailyComp[d] = power.Joules(s.daily), s.dailyComp
	}
	r.QoS.CommitFold(q)
}

// runChunk holds up to chunkRuns consecutive runs of equal samples as the
// bound legs see them, one array per field: the demand, the run length,
// and the LowerBound's optimal power for the demand.
type runChunk struct {
	n      int
	demand [chunkRuns]float64
	dt     [chunkRuns]float64
	power  [chunkRuns]power.Watts
}

// chunkRuns is how many runs the kernel detects before the legs fold them:
// small enough for a buffer that stays in cache, large enough that each
// leg's loop runs long with its sums in registers.
const chunkRuns = 256

// homLeg is one homogeneous bound scenario (UB Global or UB PerDay) inside
// a bounds fold: a fleet of always-on nodes whose size is a per-day
// constant. On a day that clamps, per run, the served load is the demand
// clamped to the day's capacity and the draw is fleetPowerN's fill-first
// packing; every other day folds in closed form in commitDay.
type homLeg struct {
	res  *Result
	size func(day int) int
	// q is the leg's QoS fold. Its seconds and demand sums are the
	// kernel's shared ones; its served sum is too while servedIsDemand
	// holds, that is while no day's peak has exceeded the leg's capacity,
	// so that every run has served exactly its demand.
	q              qos.Fold
	servedIsDemand bool

	// The day's sizing and sums.
	n              int
	capacity, idle float64
	clamps         bool // the day's peak exceeds capacity
	bIdle, bDyn    float64
	e              energySums
}

func (l *homLeg) startDay(arch *profile.Arch, d int, peak float64) {
	l.n = l.size(d)
	l.capacity = float64(l.n) * arch.MaxPerf
	l.idle = float64(l.n) * float64(arch.IdlePower)
	// On a day whose peak fits the capacity, min(demand, capacity) is the
	// demand itself, bit for bit: every run is served in full, and the day
	// folds in closed form.
	l.clamps = peak > l.capacity
	if l.clamps {
		l.servedIsDemand = false
	}
	l.bIdle, l.bDyn = float64(l.res.Breakdown.Idle), float64(l.res.Breakdown.Dynamic)
	l.e = l.res.startDay()
}

// fold folds a chunk of runs into the leg, in run order, on a day that
// clamps: per run, the served load is the demand clamped to the day's
// capacity and the draw is fleetPowerN's fill-first packing of it.
func (l *homLeg) fold(arch *profile.Arch, c *runChunk) {
	n, capacity, idle := l.n, l.capacity, l.idle
	bIdle, bDyn, e, served, violation := l.bIdle, l.bDyn, l.e, l.q.Served, l.q.ViolationSeconds
	dts := c.dt[:c.n]
	for r, demand := range c.demand[:c.n] {
		dt := dts[r]
		s := min(demand, capacity)
		total := fleetPowerN(arch, n, s)
		served = served.Plus(s * dt)
		if demand-s > qos.Slack {
			violation += dt
		}
		bIdle += idle * dt
		bDyn += (total - idle) * dt
		en := total * dt
		e.total, e.totalComp = power.NeumaierAdd(e.total, e.totalComp, en)
		e.daily, e.dailyComp = power.NeumaierAdd(e.daily, e.dailyComp, en)
	}
	l.bIdle, l.bDyn, l.e, l.q.Served, l.q.ViolationSeconds = bIdle, bDyn, e, served, violation
}

// commitDay writes day d back to the leg's Result, taking the seconds and
// demand sums from the kernel's shared fold. On a day that does not clamp
// it first charges the day in closed form: seconds long, with demand
// integral demand.
func (l *homLeg) commitDay(arch *profile.Arch, d int, shared qos.Fold, seconds float64, demand power.Accumulator) {
	if !l.clamps {
		idle := l.idle * seconds
		dyn := float64(arch.MaxPower-arch.IdlePower) / arch.MaxPerf * demand.Sum()
		l.bIdle += idle
		l.bDyn += dyn
		for _, en := range [2]float64{idle, dyn} {
			l.e.total, l.e.totalComp = power.NeumaierAdd(l.e.total, l.e.totalComp, en)
			l.e.daily, l.e.dailyComp = power.NeumaierAdd(l.e.daily, l.e.dailyComp, en)
		}
		if !l.servedIsDemand {
			l.q.Served = l.q.Served.Plus(demand.Sum())
		}
	}
	l.q.Seconds, l.q.Demand = shared.Seconds, shared.Demand
	if l.servedIsDemand {
		l.q.Served = shared.Demand
	}
	l.res.Breakdown.Idle, l.res.Breakdown.Dynamic = power.Joules(l.bIdle), power.Joules(l.bDyn)
	l.res.commitDay(d, l.e, l.q)
}

// foldLowerBound folds a chunk of runs into the LowerBound leg's energy,
// whose power the chunk already holds. A load the solver cannot cover (an
// infinite optimum) is an error; valid says the solver's table was found
// to cover every load when it was built (bml.ExactSolver.AlwaysValid), so
// that no power needs checking.
func foldLowerBound(c *runChunk, e *energySums, valid bool) error {
	s := *e
	dts := c.dt[:c.n]
	for r, p := range c.power[:c.n] {
		if !valid && !p.IsValid() {
			return power.ErrNegativePower
		}
		en := float64(p) * dts[r]
		s.total, s.totalComp = power.NeumaierAdd(s.total, s.totalComp, en)
		s.daily, s.dailyComp = power.NeumaierAdd(s.daily, s.dailyComp, en)
	}
	*e = s
	return nil
}

// boundsFold folds any subset of the three bound scenarios over one walk
// of a trace. Its Results must be fresh: the shared QoS sums start at zero.
type boundsFold struct {
	arch profile.Arch // the homogeneous legs' class
	hom  []homLeg
	// lower is the LowerBound leg, nil when not folded. The ideal fleet
	// serves every request, so the leg's QoS is the shared fold.
	lower  *Result
	solver *bml.ExactSolver
}

// run walks tr day by day; peaks[d] is the peak of day window d (the
// trailing partial day included). Each day's runs are detected a chunk at
// a time, with the shared sums and the day's demand integral folded on the
// way; then the legs that need per-run work (a clamping homogeneous leg,
// the LowerBound) fold the chunk in their own loops.
func (k *boundsFold) run(tr *trace.Trace, peaks []float64) error {
	arch := &k.arch
	var (
		// The QoS seconds and demand sums every leg shares, as plain
		// locals so that they stay in registers.
		seconds   float64
		demandSum power.Accumulator
		lower     energySums
		c         runChunk
	)
	lowerValid := k.solver != nil && k.solver.AlwaysValid()
	for d, start := 0, 0; start < tr.Len(); d, start = d+1, start+trace.SecondsPerDay {
		clamps := false
		for h := range k.hom {
			k.hom[h].startDay(arch, d, peaks[d])
			clamps = clamps || k.hom[h].clamps
		}
		if k.lower != nil {
			lower = k.lower.startDay()
		}
		var dayDemand power.Accumulator
		w := tr.Window(start, start+trace.SecondsPerDay)
		for i := 0; i < len(w); {
			n := 0
			for ; i < len(w) && n < chunkRuns; n++ {
				j := trace.RunEnd(w, i)
				dt := float64(j - i)
				seconds += dt
				demandSum = demandSum.Plus(w[i] * dt)
				dayDemand = dayDemand.Plus(w[i] * dt)
				c.demand[n], c.dt[n] = w[i], dt
				i = j
			}
			c.n = n
			if clamps {
				for h := range k.hom {
					if k.hom[h].clamps {
						k.hom[h].fold(arch, &c)
					}
				}
			}
			if k.lower != nil {
				k.solver.PowersAt(c.demand[:c.n], c.power[:])
				if err := foldLowerBound(&c, &lower, lowerValid); err != nil {
					return err
				}
			}
		}
		q := qos.Fold{Seconds: seconds, Demand: demandSum}
		for h := range k.hom {
			k.hom[h].commitDay(arch, d, q, float64(len(w)), dayDemand)
		}
		if k.lower != nil {
			lq := q
			lq.Served = q.Demand
			k.lower.commitDay(d, lower, lq)
		}
	}
	return nil
}
