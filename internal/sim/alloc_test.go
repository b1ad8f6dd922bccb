package sim

// Host-independent cost gates for the kernels. They count allocations and
// operations rather than time them, so they hold on any machine.

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bml"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/trace"
)

// rawWCDays generates an un-quantized World Cup trace of whole days sized
// for the fastPlanner catalog. Every trace has the same global peak, so the
// LowerBound solver's table (sized by the peak) is the same for all.
func rawWCDays(t *testing.T, days int) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = days
	cfg.PeakRate = 260
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The bound scenarios' day-span kernel allocates O(1) per call, with one
// leg or all three fused: the same number of allocations on a 1-day and a
// 3-day raw trace, so nothing is allocated per sample, per run of equal
// samples, or per day.
func TestBoundScenarioAllocationsIndependentOfTraceLength(t *testing.T) {
	planner := fastPlanner(t)
	one, three := rawWCDays(t, 1), rawWCDays(t, 3)
	for _, sc := range []struct {
		name string
		run  func(*trace.Trace) error
	}{
		{"ub-global", func(tr *trace.Trace) error { _, err := RunUpperBoundGlobal(tr, planner.Big()); return err }},
		{"ub-perday", func(tr *trace.Trace) error { _, err := RunUpperBoundPerDay(tr, planner.Big()); return err }},
		{"lowerbound", func(tr *trace.Trace) error { _, err := RunLowerBound(tr, planner.Candidates()); return err }},
		{"fused", func(tr *trace.Trace) error { _, err := RunBounds(tr, planner); return err }},
	} {
		var err error
		allocs := func(tr *trace.Trace) float64 {
			return testing.AllocsPerRun(3, func() {
				if e := sc.run(tr); e != nil {
					err = e
				}
			})
		}
		a1, a3 := allocs(one), allocs(three)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if a1 != a3 {
			t.Errorf("%s: %v allocations on 1 day, %v on 3 days: the kernel allocates per sample or per day", sc.name, a1, a3)
		}
	}
}

// RunBML on a raw trace allocates no per-sample buffer: the look-ahead
// predictor is answered from the trace's own samples (first-exit queries,
// no sliding-max array), and neither the span scan nor the demand fold
// allocates per sample. The limit, one byte per sample, fails if any
// float64-per-sample buffer comes back. The load is a steady noisy level:
// every sample differs (one run per second, the fold's worst case), but
// the fleet never needs reconfiguring, so the per-decision allocations of
// the scheduler, which scale with reconfigurations rather than samples,
// stay out of the per-sample budget.
func TestRunBMLAllocatesNoPerSampleBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 3*trace.SecondsPerDay)
	for i := range vals {
		vals[i] = 50 + rng.Float64()
	}
	tr := trace.MustNew(vals)
	planner := fastPlanner(t)
	if _, err := RunBML(tr, planner, BMLConfig{}); err != nil { // warm lazily built state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunBML(tr, planner, BMLConfig{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perSample := float64(after.TotalAlloc-before.TotalAlloc) / float64(tr.Len())
	t.Logf("%.2f bytes/sample over %d samples (%d decisions)", perSample, tr.Len(), res.Decisions)
	if limit := 1.0; perSample > limit {
		t.Errorf("RunBML allocates %.2f bytes per sample, want <= %.2f", perSample, limit)
	}
}

// The integrator's demand fold reads each span's whole blocks from the
// trace's summary and folds only the blocks that straddle a band edge one
// sample at a time. On a raw
// World Cup trace, where every second differs but the load moves slowly
// against the band widths, those samples are a small share of the trace.
func TestDemandFoldSlowSamplesRaw(t *testing.T) {
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = 3
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	rig, err := buildBMLRig(tr, nil, planner, BMLConfig{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := runBMLIntegrator(rig.blocks, rig.sc, newResult("bml", tr.Days()), 0, nil); err != nil {
		t.Fatal(err)
	}
	slow := rig.cl.SlowFoldSamples()
	share := float64(slow) / float64(tr.Len())
	t.Logf("%d of %d samples folded one at a time (%.1f%%)", slow, tr.Len(), 100*share)
	if share > 0.15 {
		t.Errorf("%.1f%% of samples folded one at a time, want <= 15%%", 100*share)
	}
}

// A default integrator run on a raw World Cup trace answers every span
// scan with first-exit queries and never materializes the look-ahead
// predictor's sliding-max array; the tick oracle, which predicts second
// by second, builds it once.
func TestRunBMLBuildsNoLookaheadArrayRaw(t *testing.T) {
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = 3
	tr, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	window, err := sched.Window(planner.Candidates(), sched.DefaultWindowFactor)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predict.NewLookaheadMax(tr, window)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBML(tr, planner, BMLConfig{Predictor: pred})
	if err != nil {
		t.Fatal(err)
	}
	if got := pred.SamplesBuilt(); got != 0 {
		t.Fatalf("the integrator built %d samples of the look-ahead array", got)
	}
	def, err := RunBML(tr, planner, BMLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEnergy != def.TotalEnergy || res.Decisions != def.Decisions || res.Decisions == 0 {
		t.Fatalf("run on the shared predictor: %v J, %d decisions; default run: %v J, %d decisions",
			res.TotalEnergy, res.Decisions, def.TotalEnergy, def.Decisions)
	}
	if _, err := RunBML(tr, planner, BMLConfig{Predictor: pred}, WithTickEngine()); err != nil {
		t.Fatal(err)
	}
	if got := pred.SamplesBuilt(); got != tr.Len() {
		t.Fatalf("the tick oracle built %d samples of the look-ahead array, want %d", got, tr.Len())
	}
}
