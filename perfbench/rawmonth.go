package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bml"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wc98"
)

// rawMonthDays is the trace length `bmlsim -days 30` evaluates.
const rawMonthDays = 30

// rawMonth is the raw-month workload's set-up: the un-quantized 1 Hz
// trace, its planner, and the digest every evaluation must reproduce.
type rawMonth struct {
	month   *trace.Trace
	planner *bml.Planner
	digest  string
}

// setupRawMonth generates the month, runs the tick-engine oracle on it,
// and runs one reference evaluation whose BML leg must agree with the
// oracle to ≤1e-6 J with identical counters.
func setupRawMonth(seed int64, tr *tracer) (*rawMonth, error) {
	root := tr.begin("setup", -1, 0)
	defer tr.end(root)
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = rawMonthDays
	cfg.Seed = seed
	id := tr.begin("trace.GenerateWorldCup", root, 0)
	month, err := trace.GenerateWorldCup(cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		return nil, err
	}
	id = tr.begin("sim.RunBML(tick)", root, 0)
	tick, err := sim.RunBML(month, planner, sim.BMLConfig{}, sim.WithTickEngine())
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("tick oracle: %w", err)
	}
	id = tr.begin("wc98.Run(reference)", root, 0)
	ev, err := wc98.Run(month, profile.PaperMachines(), wc98.Config{})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if err := matchesOracle(ev.Results["Big-Medium-Little"], tick); err != nil {
		return nil, err
	}
	return &rawMonth{month: month, planner: planner, digest: evalDigest(ev)}, nil
}

// matchesOracle holds the integrator's BML result to the tick engine's:
// total and daily energy within 1e-6 J, decision and switch counts equal.
func matchesOracle(got, tick *sim.Result) error {
	if got == nil {
		return fmt.Errorf("evaluation has no BML result")
	}
	if d := math.Abs(float64(got.TotalEnergy - tick.TotalEnergy)); d > 1e-6 {
		return fmt.Errorf("BML total energy %v J differs from the tick oracle's %v J by %g J", got.TotalEnergy, tick.TotalEnergy, d)
	}
	for i := range tick.DailyEnergy {
		if d := math.Abs(float64(got.DailyEnergy[i] - tick.DailyEnergy[i])); d > 1e-6 {
			return fmt.Errorf("BML day %d energy differs from the tick oracle by %g J", i+1, d)
		}
	}
	if got.Decisions != tick.Decisions || got.SwitchOns != tick.SwitchOns || got.SwitchOffs != tick.SwitchOffs {
		return fmt.Errorf("BML counters %d/%d/%d differ from the tick oracle's %d/%d/%d",
			got.Decisions, got.SwitchOns, got.SwitchOffs, tick.Decisions, tick.SwitchOns, tick.SwitchOffs)
	}
	return nil
}

// evalDigest serializes everything an evaluation reports — the Figure 5
// rows, the summary, and each scenario's energies and counters — so two
// evaluations are bit-identical exactly when their digests are equal
// (encoding/json writes float64 values in round-trip form).
func evalDigest(ev *wc98.Evaluation) string {
	type leg struct {
		Daily                              []float64
		Total, Transition, Idle, Dynamic   float64
		Decisions, Ons, Offs, Skipped      int
		Availability, Violation, Lost, Mig float64
	}
	legs := map[string]leg{}
	for name, r := range ev.Results {
		l := leg{Total: float64(r.TotalEnergy), Transition: float64(r.Breakdown.Transition),
			Idle: float64(r.Breakdown.Idle), Dynamic: float64(r.Breakdown.Dynamic),
			Decisions: r.Decisions, Ons: r.SwitchOns, Offs: r.SwitchOffs, Skipped: r.Skipped,
			Availability: r.QoS.Availability(), Violation: r.QoS.ViolationSeconds(),
			Lost: r.QoS.LostRequests(), Mig: float64(r.MigrationEnergy)}
		for _, e := range r.DailyEnergy {
			l.Daily = append(l.Daily, float64(e))
		}
		legs[name] = l
	}
	b, err := json.Marshal(struct {
		Rows    []wc98.Row
		Summary wc98.Summary
		Legs    map[string]leg
	}{ev.Rows, ev.Summary, legs})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// runRawMonth times `bmlsim -days 30`'s evaluation, closed loop with one
// caller. Each evaluation starts from a collected heap with the peak-RSS
// mark reset, as in a fresh bmlsim process, and reports its own peak. In a
// traced run every other evaluation is traced, and each traced one is
// followed by stand-alone calls into the layers it is made of and by one
// pass of the served grid, which measures the coordinator's layers.
func runRawMonth(cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{TailTarget: 90}
	var st *rawMonth
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		s, err := setupRawMonth(cfg.Seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.SetupS = append(out.SetupS, time.Since(t0).Seconds())
		if st != nil && s.digest != st.digest {
			return nil, fmt.Errorf("set-up %d evaluated the month differently from set-up 1", k+1)
		}
		st = s
	}

	var grid *gridSetup
	if tr != nil {
		var err error
		if grid, err = setupGrid(cfg.Seed, filepath.Join(cfg.WorkDir, "grid"), tr); err != nil {
			return nil, fmt.Errorf("grid set-up: %w", err)
		}
		defer grid.close()
	}

	var checkErr error
	deadline := time.Now().Add(time.Duration(cfg.Seconds) * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		settle()
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		op := t.op()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		id := t.begin("wc98.Run", -1, op)
		t0 := time.Now()
		ev, err := wc98.Run(st.month, profile.PaperMachines(), wc98.Config{})
		lat := time.Since(t0)
		t.end(id)
		runtime.ReadMemStats(&ms1)
		out.Attempted++
		ms := float64(lat) / 1e6
		switch {
		case err != nil:
			out.Failed++
			ms = inf
			checkErr = fmt.Errorf("evaluation %d: %w", i+1, err)
		case evalDigest(ev) != st.digest:
			out.Failed++
			ms = inf
			checkErr = fmt.Errorf("evaluation %d is not bit-identical to the reference evaluation", i+1)
		}
		if t != nil {
			out.TracedMS = append(out.TracedMS, ms)
			if err := rawMonthLayers(st, t, op); err != nil {
				return out, err
			}
			if err := grid.pass(t); err != nil {
				return out, fmt.Errorf("grid: %w", err)
			}
			continue
		}
		out.LatMS = append(out.LatMS, ms)
		out.PeakRSSMB = append(out.PeakRSSMB, peakRSSMB())
		out.OpsWall += lat
		out.UnitRates = append(out.UnitRates, 1/lat.Seconds())
		out.AllocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	if grid != nil {
		out.Layer = map[string]float64{}
		grid.report(out.Layer)
		out.Notes = append(out.Notes, fmt.Sprintf("grid: %d cells per pass (%d cached before each pass), %d traced passes, %d claim workers, claim batch %d",
			len(grid.jobs), len(grid.bounds), grid.passes, runtime.NumCPU(), claimBatch))
	}
	return out, checkErr
}

// rawMonthLayers calls, one at a time, the public functions the evaluation
// is built from, each under its own span: the BML rig and its two parts,
// the BML run (with its allocation and exact counters), and the three
// reference scenarios.
func rawMonthLayers(st *rawMonth, t *tracer, op int64) error {
	root := t.begin("raw-month.layers", -1, op)
	defer t.end(root)
	timed := func(name string, fn func() error) error {
		id := t.begin(name, root, op)
		defer t.end(id)
		return fn()
	}
	window, err := sched.Window(st.planner.Candidates(), sched.DefaultWindowFactor)
	if err != nil {
		return err
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"sim.LiveRig", func() error { _, _, _, err := sim.LiveRig(st.month, st.planner, sim.BMLConfig{}); return err }},
		{"predict.NewLookaheadMax", func() error { _, err := predict.NewLookaheadMax(st.month, window); return err }},
		{"bml.Planner.Table", func() error { st.planner.Table(st.month.Max()); return nil }},
	}
	for _, s := range steps {
		if err := timed(s.name, s.fn); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res *sim.Result
	err = timed("sim.RunBML", func() (err error) { res, err = sim.RunBML(st.month, st.planner, sim.BMLConfig{}); return })
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	t.add("sim.bml_runs", 1)
	t.add("sim.bml_alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
	t.add("sim.bml_decisions", float64(res.Decisions))
	t.add("sim.bml_switch_ons", float64(res.SwitchOns))
	t.add("sim.bml_switch_offs", float64(res.SwitchOffs))
	legs := []struct {
		name string
		fn   func() error
	}{
		{"sim.RunUpperBoundGlobal", func() error { _, err := sim.RunUpperBoundGlobal(st.month, st.planner.Big()); return err }},
		{"sim.RunUpperBoundPerDay", func() error { _, err := sim.RunUpperBoundPerDay(st.month, st.planner.Big()); return err }},
		{"sim.RunLowerBound", func() error { _, err := sim.RunLowerBound(st.month, st.planner.Candidates()); return err }},
	}
	for _, l := range legs {
		if err := timed(l.name, l.fn); err != nil {
			return err
		}
	}
	return nil
}
