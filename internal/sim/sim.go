// Package sim is the simulator behind the paper's evaluation. It replays a
// load trace against four scenarios:
//
//   - UpperBound Global: a homogeneous data center sized once for the
//     global peak (4 Big machines for the paper's trace), always on — the
//     classical over-provisioned design;
//   - UpperBound PerDay: a homogeneous data center re-dimensioned each day
//     for that day's peak — coarse-grain capacity planning;
//   - BML: the heterogeneous infrastructure driven by the proactive
//     reconfiguration scheduler, including On/Off time and energy
//     overheads;
//   - LowerBound Theoretical: the unreachable bound where the ideal
//     combination is re-established every second at zero switching cost.
//
// Two engines execute the scenarios, producing the same results to
// rounding. The default engines read one per-trace summary rather than
// the samples: trace.Blocks, the min, max and sum of each absolute-aligned
// 64-sample block, built in one pass per evaluation and shared by every
// leg (RunAll builds one for both of its legs; a sweep builds one per
// trace and fleet scale). The interval integrator (integrator.go) iterates
// only on scheduler events — decisions that act (found by
// sched.DecideSpan's first-exit query over the block maxima), transition
// completions and lock expiries, day boundaries — and folds the span's
// demand in closed form (cluster.DemandFold: PowerAt is affine, so a
// span's energy needs only each pool's sum of clamped demand, which whole
// blocks give from their min, max and sum), so un-quantized 1 Hz traces
// simulate as cheaply per second as quantized ones. Per-bucket telemetry
// (RunBMLRecorded, recorder.go) runs on the same loop, with bucket edges
// as extra span boundaries. Per-span cost is independent of fleet size:
// the cluster indexes pending transitions in a min-heap and integrates
// each pool's On fleet in closed form from its fill-first load shape, so
// thousand-node runs pay per span for the architectures and the machines
// mid-transition, not for the fleet. The three bound scenarios need no
// scheduler: outside the tick oracle they run one day-span kernel
// (engine.go) that sizes each fleet once per day from the block maxima,
// for one bound or for all three at once (RunBounds); an upper-bound
// fleet whose day peak fits its capacity charges the day in closed form
// from the day's block sums, and only the LowerBound reads the samples,
// block by block. Result.Cost counts the samples each leg read one at a
// time, so tests assert these bounds on operation counts.
//
// The legacy 1 Hz tick loop — one scheduler step and one joule-sample per
// simulated second, the paper's original integration scheme — survives
// behind WithTickEngine() as the differential-testing oracle ONLY; it is
// no longer a supported production path. The differential suites
// (differential_test.go, recorder_differential_test.go,
// integrator_differential_test.go) hold the two engines to ≤1e-6 J and
// exactly equal counters on randomized traces, fleets, fault schedules,
// and raw un-quantized World Cup segments.
//
// Results report total and per-day energy (the series of Figure 5) plus
// QoS and reconfiguration statistics. RunAll (parallel.go) runs one
// evaluation as two concurrent legs, the fused bounds and BML; Sweep fans
// scenario × trace × fleet grids out across cores; SweepJob.FleetScale
// multiplies a job's offered load so grids can exercise thousand-node
// clusters. Beyond one process, grids shard deterministically across
// workers by canonical cell ID (shard.go) and stream each completed cell
// as a self-describing JSONL record (stream.go) that a coordinator
// (cmd/bmlsweep) merges, deduplicates, and validates for completeness —
// peak memory is one shard's working set, not the grid. Cells of the same
// sweep share the block summary, per-trace predictor precomputation and
// fleet-scaled trace copies.
package sim

import (
	"errors"
	"math"

	"repro/internal/app"
	"repro/internal/bml"
	"repro/internal/cluster"
	"repro/internal/power"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Result is the outcome of one scenario run.
type Result struct {
	// Name identifies the scenario.
	Name string
	// DailyEnergy holds the energy of each complete day (index 0 = day 1).
	DailyEnergy []power.Joules
	// TotalEnergy is the energy over the whole trace, including any
	// trailing partial day.
	TotalEnergy power.Joules
	// QoS aggregates served-versus-offered statistics.
	QoS qos.Tracker
	// Decisions, SwitchOns, SwitchOffs describe scheduler activity (zero
	// for the static scenarios). Skipped counts reconfigurations rejected
	// by the overhead-aware policy; MigrationEnergy is the application-
	// level migration overhead charged (both zero unless enabled).
	Decisions       int
	SwitchOns       int
	SwitchOffs      int
	Skipped         int
	MigrationEnergy power.Joules
	// Breakdown splits the energy into transition/idle/dynamic components
	// (zero-valued for the LowerBound scenario, whose solver reports only
	// total optimal power).
	Breakdown power.Breakdown
	// Cost counts the work the run did. It describes how a result was
	// computed, not the result, so it stays out of cell records, summaries
	// and bit pins.
	Cost Cost

	// Neumaier compensation terms for the energy accumulators. The tick
	// engine performs one addition per simulated second while the
	// integrator performs one per span; compensated summation keeps both
	// orderings exact to well below the 1e-6 J differential-test bound
	// even on month-long traces. finalize folds them into the totals.
	totalComp float64
	dailyComp []float64
}

// Cost is a run's deterministic operation counts: the same on every host,
// so tests can assert the engines' complexity bounds on them. The tick
// oracle leaves them zero.
type Cost struct {
	// Spans is how many spans the BML integrator folded.
	Spans int
	// FoldSamples is how many samples the BML demand fold read one at a
	// time: partial blocks at span edges and blocks straddling a band
	// edge (cluster.Cluster.FoldSamplesRead).
	FoldSamples int
	// ExitSamples is how many samples the BML span search's first-exit
	// queries read one at a time (sched.Scheduler.ExitSamplesRead).
	ExitSamples int
	// BoundSamples is how many samples the bounds walk that produced the
	// result read: the samples of every non-constant block on a day that
	// some leg walks (the LowerBound's lookup, or an upper-bound fleet
	// that clamps). The legs of one fused walk share its count.
	BoundSamples int
}

// newResult allocates a Result with day buckets and compensation terms.
func newResult(name string, days int) *Result {
	return &Result{
		Name:        name,
		DailyEnergy: make([]power.Joules, days),
		dailyComp:   make([]float64, days),
	}
}

// addEnergy accumulates e into the run totals, crediting the day that
// second t belongs to.
func (r *Result) addEnergy(t int, e power.Joules) {
	var s float64
	s, r.totalComp = power.NeumaierAdd(float64(r.TotalEnergy), r.totalComp, float64(e))
	r.TotalEnergy = power.Joules(s)
	if d := t / trace.SecondsPerDay; d < len(r.DailyEnergy) {
		if r.dailyComp == nil {
			r.dailyComp = make([]float64, len(r.DailyEnergy))
		}
		s, r.dailyComp[d] = power.NeumaierAdd(float64(r.DailyEnergy[d]), r.dailyComp[d], float64(e))
		r.DailyEnergy[d] = power.Joules(s)
	}
}

// finalize folds the summation compensation terms into the reported
// energies. Run functions call it once before returning.
func (r *Result) finalize() {
	r.TotalEnergy += power.Joules(r.totalComp)
	r.totalComp = 0
	for d := range r.DailyEnergy {
		r.DailyEnergy[d] += power.Joules(r.dailyComp[d])
		r.dailyComp[d] = 0
	}
}

// BMLConfig parameterizes the BML scenario.
type BMLConfig struct {
	// WindowFactor sizes the look-ahead window as a multiple of the
	// longest On duration; the paper uses 2. Zero means 2.
	WindowFactor float64
	// Predictor overrides the paper's look-ahead-max predictor when
	// non-nil (used by the prediction ablations).
	Predictor predict.Predictor
	// PredictorSpec declaratively selects the predictor kind when
	// Predictor is nil: "lookahead" (or empty — the paper default),
	// "oracle", "lastvalue", "ewma[:alpha]", "pattern". Grid cells need a
	// spec rather than an instance because every fleet-scaled cell builds
	// its predictor over its own scaled trace; a concrete Predictor is
	// bound to one trace.
	PredictorSpec string
	// Headroom scales predictions (>= 1); zero means 1 (or the
	// application class default when App is set).
	Headroom float64
	// Inventory optionally caps machines per architecture.
	Inventory map[string]int
	// App optionally supplies the §III application characterization
	// (malleability bounds, migration overheads, class headroom).
	App *app.Spec
	// BootFaultProb injects boot failures with this probability (0 = none):
	// a failed boot consumes its full energy but lands back in Off, and the
	// scheduler must converge anyway.
	BootFaultProb float64
	// FaultSeed makes boot-fault injection deterministic.
	FaultSeed int64
	// RepeatSeed distinguishes repeated runs of one configuration as
	// distinct grid cells: a nonzero seed enters the canonical config
	// serialization (and therefore the v2 cell ID) and is folded into
	// the boot-fault schedule seed, so each repeat of a fault-injecting
	// config replays its own seeded fault schedule while staying
	// individually cacheable. Zero (the default) leaves cell identity
	// untouched. See RepeatConfigs for the axis expansion.
	RepeatSeed int64
	// OverheadAware enables the future-work amortization policy on
	// reconfiguration decisions.
	OverheadAware bool
	// AmortizeSeconds is the amortization horizon (0 = 378 s).
	AmortizeSeconds float64
}

// denseTableLimit is the largest grid size for which buildBMLRig
// precomputes a dense combination table; beyond it the memoized lazy
// lookup serves identical combinations without the up-front cost.
const denseTableLimit = 1 << 16

// LiveRig builds the decision components of a BML run — combination
// table, predictor, and effective headroom — exactly as the simulator's
// scenario would build them. The live controller (internal/ctrl) plans
// from these so that sim-versus-live differential tests compare two
// consumers of the identical rig, not two reimplementations of it.
func LiveRig(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig) (bml.Lookup, predict.Predictor, float64, error) {
	if tr == nil || planner == nil {
		return nil, nil, 0, errors.New("sim: nil trace or planner")
	}
	table, pred, headroom, _, err := liveRig(tr, nil, planner, cfg)
	return table, pred, headroom, err
}

// liveRig is LiveRig over tr's block summary b, which it also returns. A
// nil b is taken from the config's look-ahead predictor when that
// summarizes tr, and built otherwise.
func liveRig(tr *trace.Trace, b *trace.Blocks, planner *bml.Planner, cfg BMLConfig) (bml.Lookup, predict.Predictor, float64, *trace.Blocks, error) {
	wf := cfg.WindowFactor
	if wf == 0 {
		wf = sched.DefaultWindowFactor
	}
	window, err := sched.Window(planner.Candidates(), wf)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	if b == nil {
		if lm, ok := cfg.Predictor.(*predict.LookaheadMax); ok && lm.Blocks().Trace() == tr {
			b = lm.Blocks()
		} else {
			b = trace.NewBlocks(tr)
		}
	}
	pred := cfg.Predictor
	if pred == nil {
		pred, err = predictorFromSpec(tr, cfg.PredictorSpec, window)
		if err != nil {
			return nil, nil, 0, nil, err
		}
	}
	if pred == nil {
		pred, err = predict.NewLookaheadMaxOver(b, window)
		if err != nil {
			return nil, nil, 0, nil, err
		}
	}
	headroom := cfg.Headroom
	if headroom == 0 {
		if cfg.App != nil {
			headroom = cfg.App.EffectiveHeadroom()
		} else {
			headroom = 1
		}
	}
	// Dense tables cost O(maxRate/step) up front; fleet-scaled traces push
	// peak rates into the millions, where the memoizing lazy lookup (same
	// combinations, computed on first query) is the only sane choice.
	maxRate := b.Max() * headroom
	var table bml.Lookup
	if maxRate/planner.Step() > denseTableLimit {
		table = planner.LazyTable(maxRate)
	} else {
		table = planner.Table(maxRate)
	}
	return table, pred, headroom, b, nil
}

// bmlRig is a BML run's scheduler and cluster, and the block summary of
// its trace that the integrator folds.
type bmlRig struct {
	sc     *sched.Scheduler
	cl     *cluster.Cluster
	blocks *trace.Blocks
}

// buildBMLRig assembles the scheduler and cluster for a BML run over tr,
// sharing tr's block summary b when it is not nil. The scheduler keeps a
// decision log only when wantLog asks for one.
func buildBMLRig(tr *trace.Trace, b *trace.Blocks, planner *bml.Planner, cfg BMLConfig, wantLog bool) (*bmlRig, error) {
	table, pred, headroom, b, err := liveRig(tr, b, planner, cfg)
	if err != nil {
		return nil, err
	}
	var clOpts []cluster.Option
	if cfg.Inventory != nil {
		clOpts = append(clOpts, cluster.WithInventory(cfg.Inventory))
	}
	if cfg.BootFaultProb > 0 {
		// The repeat seed offsets the fault schedule so each repeat cell
		// observes independent (but individually reproducible) failures.
		clOpts = append(clOpts, cluster.WithBootFaults(cfg.BootFaultProb, cfg.FaultSeed+cfg.RepeatSeed))
	}
	cl, err := cluster.New(planner.Candidates(), clOpts...)
	if err != nil {
		return nil, err
	}
	logCap := -1
	if wantLog {
		logCap = 0 // the scheduler's default
	}
	sc, err := sched.New(sched.Config{
		Table:           table,
		Predictor:       pred,
		Cluster:         cl,
		Headroom:        headroom,
		App:             cfg.App,
		OverheadAware:   cfg.OverheadAware,
		AmortizeSeconds: cfg.AmortizeSeconds,
		DecisionLogCap:  logCap,
	})
	if err != nil {
		return nil, err
	}
	return &bmlRig{sc: sc, cl: cl, blocks: b}, nil
}

// RunBML simulates the heterogeneous infrastructure under the proactive
// scheduler over tr, using the planner's candidate classes and combination
// table. The interval integrator is used unless WithTickEngine selects the
// 1 Hz oracle.
func RunBML(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig, opts ...Option) (*Result, error) {
	res, _, err := runBML(tr, nil, planner, cfg, false, opts)
	return res, err
}

// RunBMLDecisions runs the BML scenario like RunBML and additionally
// returns the scheduler's decision log (changed-target decisions with
// their simulation times). The differential replay harness
// (internal/ctrl) compares this sequence against the live controller's.
func RunBMLDecisions(tr *trace.Trace, planner *bml.Planner, cfg BMLConfig, opts ...Option) (*Result, []sched.Decision, error) {
	return runBML(tr, nil, planner, cfg, true, opts)
}

// runBML runs the BML scenario over tr, sharing tr's block summary b when
// it is not nil.
func runBML(tr *trace.Trace, b *trace.Blocks, planner *bml.Planner, cfg BMLConfig, wantLog bool, opts []Option) (*Result, []sched.Decision, error) {
	if tr == nil || planner == nil {
		return nil, nil, errors.New("sim: nil trace or planner")
	}
	o := buildOptions(opts)
	rig, err := buildBMLRig(tr, b, planner, cfg, wantLog)
	if err != nil {
		return nil, nil, err
	}
	sc, cl := rig.sc, rig.cl

	res := newResult("Big-Medium-Little", tr.Days())
	if o.tick {
		err = runBMLTick(tr, sc, res)
	} else {
		err = runBMLIntegrator(rig.blocks, sc, res, 0, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	res.Decisions = sc.Decisions()
	res.SwitchOns = sc.SwitchOns()
	res.SwitchOffs = sc.SwitchOffs()
	res.Skipped = sc.Skipped()
	res.MigrationEnergy = sc.MigrationEnergy()
	res.Breakdown = cl.Breakdown()
	res.Breakdown.Transition += res.MigrationEnergy
	res.Cost.FoldSamples = cl.FoldSamplesRead()
	res.Cost.ExitSamples = sc.ExitSamplesRead()
	res.finalize()
	var log []sched.Decision
	if wantLog {
		log = sc.DecisionLog()
	}
	return res, log, nil
}

// RunUpperBoundGlobal simulates the over-provisioned homogeneous data
// center: n = ceil(globalPeak / big.MaxPerf) machines of the Big class,
// always on, load packed onto as few nodes as possible.
func RunUpperBoundGlobal(tr *trace.Trace, big profile.Arch, opts ...Option) (*Result, error) {
	set, err := runBounds(tr, nil, big, nil, legUBGlobal, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return set.UpperBoundGlobal, nil
}

// RunUpperBoundPerDay simulates coarse-grain capacity planning: each day
// runs ceil(dayPeak / big.MaxPerf) always-on Big machines. Transition
// costs between days are not charged, which only makes this upper bound
// more favorable.
func RunUpperBoundPerDay(tr *trace.Trace, big profile.Arch, opts ...Option) (*Result, error) {
	set, err := runBounds(tr, nil, big, nil, legUBPerDay, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return set.UpperBoundPerDay, nil
}

// RunLowerBound integrates the theoretical minimum: every second the ideal
// (exact) combination for the instantaneous load, with no switching latency
// or energy — the unreachable bound of Figure 5.
func RunLowerBound(tr *trace.Trace, candidates []profile.Arch, opts ...Option) (*Result, error) {
	set, err := runBounds(tr, nil, profile.Arch{}, candidates, legLowerBound, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return set.LowerBound, nil
}

// RunBounds runs the three reference scenarios of Figure 5 (UB Global, UB
// PerDay and LowerBound, with planner.Big() and planner.Candidates()) in one
// walk of tr, sharing the per-sample work they have in common. Each result
// is bit-identical to its single-scenario Run call. The returned set's BML
// field is nil; RunAll fills it.
func RunBounds(tr *trace.Trace, planner *bml.Planner, opts ...Option) (*ScenarioSet, error) {
	if planner == nil {
		return nil, errors.New("sim: nil planner")
	}
	return runBounds(tr, nil, planner.Big(), planner.Candidates(), legUBGlobal|legUBPerDay|legLowerBound, buildOptions(opts))
}

// boundLeg selects bound scenarios for runBounds.
type boundLeg uint8

const (
	legUBGlobal boundLeg = 1 << iota
	legUBPerDay
	legLowerBound
)

// runBounds runs the selected bound scenarios over tr, sharing tr's block
// summary b when it is not nil: through one boundsFold by default, one
// 1 Hz loop per scenario under tick.
func runBounds(tr *trace.Trace, b *trace.Blocks, big profile.Arch, candidates []profile.Arch, legs boundLeg, o options) (*ScenarioSet, error) {
	if tr == nil {
		return nil, errors.New("sim: nil trace")
	}
	if legs&(legUBGlobal|legUBPerDay) != 0 {
		if err := big.Validate(); err != nil {
			return nil, err
		}
	}
	if b == nil {
		b = trace.NewBlocks(tr)
	}
	// The block maxima yield every peak the legs need, reading no sample
	// (a day is a whole number of blocks): the per-day peaks size UB
	// PerDay and tell the fold which days fit a fleet's capacity, and
	// their maximum (exact) is the global peak that sizes UB Global and
	// the exact solver.
	peaks := make([]float64, (tr.Len()+trace.SecondsPerDay-1)/trace.SecondsPerDay)
	peak := 0.0
	for d := range peaks {
		peaks[d], _ = b.RangeMax(d*trace.SecondsPerDay, min((d+1)*trace.SecondsPerDay, tr.Len()))
		peak = max(peak, peaks[d])
	}
	days := tr.Days()
	var set ScenarioSet
	k := boundsFold{arch: big}
	if legs&legUBGlobal != 0 {
		n := max(big.NodesFor(peak), 1) // even an idle data center keeps one machine
		set.UpperBoundGlobal = newResult("UpperBound Global", days)
		k.hom = append(k.hom, homLeg{res: set.UpperBoundGlobal, size: func(int) int { return n }, servedIsDemand: true})
	}
	if legs&legUBPerDay != 0 {
		perDay := func(day int) int {
			// A trailing partial day reuses the last complete day's sizing.
			if day >= days {
				day = days - 1
			}
			if day < 0 {
				return 1
			}
			return max(big.NodesFor(peaks[day]), 1)
		}
		set.UpperBoundPerDay = newResult("UpperBound PerDay", days)
		k.hom = append(k.hom, homLeg{res: set.UpperBoundPerDay, size: perDay, servedIsDemand: true})
	}
	if legs&legLowerBound != 0 {
		solver, err := bml.NewExactSolver(candidates, peak, 1)
		if err != nil {
			return nil, err
		}
		set.LowerBound = newResult("LowerBound Theoretical", days)
		k.lower, k.solver = set.LowerBound, solver
	}
	if !o.tick {
		read, err := k.run(b, peaks)
		if err != nil {
			return nil, err
		}
		for _, r := range []*Result{set.UpperBoundGlobal, set.UpperBoundPerDay, set.LowerBound} {
			if r != nil {
				r.Cost.BoundSamples = read
			}
		}
	} else {
		for _, l := range k.hom {
			if err := tickHomogeneous(tr, &big, l.size, l.res); err != nil {
				return nil, err
			}
		}
		if k.lower != nil {
			if err := tickLowerBound(tr, k.solver, k.lower); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range []*Result{set.UpperBoundGlobal, set.UpperBoundPerDay, set.LowerBound} {
		if r != nil {
			r.finalize()
		}
	}
	return &set, nil
}

// tickHomogeneous is the 1 Hz oracle loop of a homogeneous fleet whose size
// is a per-day constant. Load is packed fill-first; shortfall (possible
// only on UB PerDay's trailing partial-day fallback) is recorded as QoS
// loss.
func tickHomogeneous(tr *trace.Trace, arch *profile.Arch, sizeForDay func(day int) int, res *Result) error {
	for t := 0; t < tr.Len(); t++ {
		n := sizeForDay(t / trace.SecondsPerDay)
		demand := tr.At(t)
		served := math.Min(demand, float64(n)*arch.MaxPerf)
		total := fleetPowerN(arch, n, served)
		idle := float64(n) * float64(arch.IdlePower)
		res.Breakdown.Idle += power.Joules(idle)
		res.Breakdown.Dynamic += power.Joules(total - idle)
		res.addEnergy(t, power.Joules(total))
		if err := res.QoS.Observe(demand, served, 1); err != nil {
			return err
		}
	}
	return nil
}

// tickLowerBound is the 1 Hz oracle loop of the LowerBound scenario.
func tickLowerBound(tr *trace.Trace, solver *bml.ExactSolver, res *Result) error {
	for t := 0; t < tr.Len(); t++ {
		demand := tr.At(t)
		res.addEnergy(t, power.Joules(float64(solver.PowerAt(demand))))
		if err := res.QoS.Observe(demand, demand, 1); err != nil {
			return err
		}
	}
	return nil
}

// fleetPowerN returns the draw of n always-on nodes of arch serving load
// packed onto as few nodes as possible: full nodes at MaxPower plus at most
// one partially loaded node; unused nodes idle. A load that needs more than
// n nodes saturates all n.
func fleetPowerN(arch *profile.Arch, n int, load float64) float64 {
	full := int(load / arch.MaxPerf)
	used, p := full, float64(full)*float64(arch.MaxPower)
	if rem := load - float64(full)*arch.MaxPerf; rem > 1e-12 {
		used++
		p += float64(arch.PowerAt(rem))
	}
	if used > n {
		return float64(n) * float64(arch.MaxPower)
	}
	return p + float64(n-used)*float64(arch.IdlePower)
}
