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
// only at day edges (the fleet size) and at load changes (the draw). Each
// day sizes every leg once from the day's peak, and takes the QoS seconds
// and demand sums every leg shares, and the day's own demand integral
// D_day, from the trace's block summary (trace.Blocks: a day is exactly
// 1350 blocks).
//
// A homogeneous leg whose day peak fits its capacity serves every second
// in full, and profile.Arch.PowerAt is affine, so its fill-first draw on n
// nodes is n·IdlePower + slope·demand with slope = (MaxPower −
// IdlePower)/MaxPerf: the day's energy is n·IdlePower·T_day + slope·D_day,
// charged once at the end of the day from the summary, reading no sample.
// Only a day that clamps (UB PerDay's trailing partial day, whose
// fallback sizing can under-provision) is walked for its leg, packing
// each second with fleetPowerN. The LowerBound leg walks every day, one
// block of the summary at a time: a constant block is one run, looked up
// once, and any other block's samples are looked up together — its cost
// is not affine within a block on raw traces. Its sums live in locals
// while it folds a day, and every leg writes back to its Result once per
// day. TestResultBitsPinned pins the resulting bits;
// TestRunAllMatchesSequentialRuns holds the fused legs to the single-leg
// calls bit for bit; the differential suites hold them within 1e-6 J of
// the tick oracle.

// energySums is one leg's energy for the day as a Neumaier pair.
type energySums struct {
	daily, dailyComp float64
}

// commitDay writes day d's sums back: it adds the day's energy to the
// total, and the QoS always, the daily bucket only for complete days (a
// trailing partial day has none, exactly as addEnergy leaves it
// uncredited).
func (r *Result) commitDay(d int, s energySums, q qos.Fold) {
	total, comp := power.NeumaierAdd(float64(r.TotalEnergy), r.totalComp, s.daily)
	r.TotalEnergy, r.totalComp = power.Joules(total), comp+s.dailyComp
	if d < len(r.DailyEnergy) {
		r.DailyEnergy[d], r.dailyComp[d] = power.Joules(s.daily), s.dailyComp
	}
	r.QoS.CommitFold(q)
}

// homLeg is one homogeneous bound scenario (UB Global or UB PerDay) inside
// a bounds fold: a fleet of always-on nodes whose size is a per-day
// constant. On a day that clamps, per second, the served load is the
// demand clamped to the day's capacity and the draw is fleetPowerN's
// fill-first packing; every other day folds in closed form in commitDay.
type homLeg struct {
	res  *Result
	size func(day int) int
	// q is the leg's QoS fold. Its seconds and demand sums are the
	// kernel's shared ones; its served sum is too while servedIsDemand
	// holds, that is while no day's peak has exceeded the leg's capacity,
	// so that every second has served exactly its demand.
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
	// demand itself, bit for bit: every second is served in full, and the
	// day folds in closed form.
	l.clamps = peak > l.capacity
	if l.clamps {
		l.servedIsDemand = false
	}
	l.bIdle, l.bDyn = float64(l.res.Breakdown.Idle), float64(l.res.Breakdown.Dynamic)
	l.e = energySums{}
}

// fold folds dt seconds of constant demand into the leg on a day that
// clamps: the served load is the demand clamped to the day's capacity and
// the draw is fleetPowerN's fill-first packing of it.
func (l *homLeg) fold(arch *profile.Arch, demand, dt float64) {
	s := min(demand, l.capacity)
	total := fleetPowerN(arch, l.n, s)
	l.q.Served = l.q.Served.Plus(s * dt)
	if demand-s > qos.Slack {
		l.q.ViolationSeconds += dt
	}
	l.bIdle += l.idle * dt
	l.bDyn += (total - l.idle) * dt
	l.e.daily, l.e.dailyComp = power.NeumaierAdd(l.e.daily, l.e.dailyComp, total*dt)
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

// foldLowerBound folds per-second powers into the LowerBound leg's
// energy. A load the solver cannot cover (an infinite optimum) is an
// error; valid says the solver's table was found to cover every load when
// it was built (bml.ExactSolver.AlwaysValid), so that no power needs
// checking.
func foldLowerBound(powers []power.Watts, e *energySums, valid bool) error {
	s := *e
	for _, p := range powers {
		if !valid && !p.IsValid() {
			return power.ErrNegativePower
		}
		s.daily, s.dailyComp = power.NeumaierAdd(s.daily, s.dailyComp, float64(p))
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

// run walks the trace that b summarizes day by day; peaks[d] is the peak
// of day window d (the trailing partial day included). The shared QoS
// demand sum and each day's demand integral come from the day's block
// sums. Only a day on which some leg needs per-second work (a clamping
// homogeneous leg, the LowerBound) is walked, one block of the summary at
// a time: a constant block (min = max) folds as one run of its length,
// and only the samples of the other blocks are read, each once. read is
// how many samples the walk read.
func (k *boundsFold) run(b *trace.Blocks, peaks []float64) (read int, err error) {
	arch := &k.arch
	tr := b.Trace()
	vals := tr.Window(0, tr.Len())
	var (
		// The QoS seconds and demand sums every leg shares.
		seconds   float64
		demandSum power.Accumulator
		lower     energySums
		powers    [trace.BlockSize]power.Watts
	)
	lowerValid := k.solver != nil && k.solver.AlwaysValid()
	for d, start := 0, 0; start < tr.Len(); d, start = d+1, start+trace.SecondsPerDay {
		clamps := false
		for h := range k.hom {
			k.hom[h].startDay(arch, d, peaks[d])
			clamps = clamps || k.hom[h].clamps
		}
		lower = energySums{}
		end := min(start+trace.SecondsPerDay, tr.Len())
		var dayDemand power.Accumulator
		for kb := start / trace.BlockSize; kb*trace.BlockSize < end; kb++ {
			lo, hi, sum := b.Block(kb)
			dayDemand.Add(sum)
			demandSum.Add(sum)
			if !clamps && k.lower == nil {
				continue
			}
			w := vals[kb*trace.BlockSize : min((kb+1)*trace.BlockSize, end)]
			if lo == hi {
				// One run of len(w) seconds at demand lo.
				dt := float64(len(w))
				for h := range k.hom {
					if k.hom[h].clamps {
						k.hom[h].fold(arch, lo, dt)
					}
				}
				if k.lower != nil {
					p := k.solver.PowerAt(lo)
					if !lowerValid && !p.IsValid() {
						return read, power.ErrNegativePower
					}
					lower.daily, lower.dailyComp = power.NeumaierAdd(lower.daily, lower.dailyComp, float64(p)*dt)
				}
				continue
			}
			read += len(w)
			for h := range k.hom {
				if k.hom[h].clamps {
					for _, v := range w {
						k.hom[h].fold(arch, v, 1)
					}
				}
			}
			if k.lower != nil {
				k.solver.PowersAt(w, powers[:])
				if err := foldLowerBound(powers[:len(w)], &lower, lowerValid); err != nil {
					return read, err
				}
			}
		}
		seconds += float64(end - start)
		q := qos.Fold{Seconds: seconds, Demand: demandSum}
		for h := range k.hom {
			k.hom[h].commitDay(arch, d, q, float64(end-start), dayDemand)
		}
		if k.lower != nil {
			lq := q
			lq.Served = q.Demand
			k.lower.commitDay(d, lower, lq)
		}
	}
	return read, nil
}
