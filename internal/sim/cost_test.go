package sim

// Operation-count assertions for the complexity table in
// docs/ARCHITECTURE.md: the default engines' work on the raw month, as
// Result.Cost counts it, and the sharing of one block summary per trace
// across a sweep's cells. Counts do not depend on the host.

import (
	"reflect"
	"testing"

	"repro/internal/bml"
	"repro/internal/profile"
	"repro/internal/trace"
)

// On the raw 1 Hz month (2.59M samples, every second a load change) BML
// reads at most a quarter of the samples one at a time in its demand fold
// and at most 15% in its first-exit span queries; an upper-bound scenario
// run alone reads none, since every day fits its fleet and folds from the
// summary; the fused bounds read each sample at most once, for the
// LowerBound's per-second lookup.
func TestCostCountersRawMonth(t *testing.T) {
	if testing.Short() {
		t.Skip("raw month")
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 99} {
		cfg := trace.DefaultWorldCupConfig()
		cfg.Days = 30
		cfg.Seed = seed
		tr, err := trace.GenerateWorldCup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := float64(tr.Len())
		res, err := RunBML(tr, planner, BMLConfig{})
		if err != nil {
			t.Fatal(err)
		}
		c := res.Cost
		t.Logf("seed %d: %d spans, fold read %d (%.1f%%), first-exit read %d (%.1f%%) of %d samples; %d decisions",
			seed, c.Spans, c.FoldSamples, 100*float64(c.FoldSamples)/s, c.ExitSamples, 100*float64(c.ExitSamples)/s, tr.Len(), res.Decisions)
		if share := float64(c.FoldSamples) / s; share > 0.25 {
			t.Errorf("seed %d: the demand fold read %.1f%% of the samples, want <= 25%%", seed, 100*share)
		}
		if share := float64(c.ExitSamples) / s; share > 0.15 {
			t.Errorf("seed %d: first-exit queries read %.1f%% of the samples, want <= 15%%", seed, 100*share)
		}
		// Every span ends at an acting decision, a transition completion or
		// migration-lock expiry (at most one per switched machine), or a day
		// edge; the last span ends at the trace end.
		if limit := res.Decisions + res.SwitchOns + res.SwitchOffs + tr.Days() + 1; c.Spans <= 0 || c.Spans > limit {
			t.Errorf("seed %d: %d spans, want 1..%d", seed, c.Spans, limit)
		}
		for _, leg := range []struct {
			name string
			run  func() (*Result, error)
		}{
			{"ub-global", func() (*Result, error) { return RunUpperBoundGlobal(tr, planner.Big()) }},
			{"ub-perday", func() (*Result, error) { return RunUpperBoundPerDay(tr, planner.Big()) }},
		} {
			r, err := leg.run()
			if err != nil {
				t.Fatal(err)
			}
			if r.Cost.BoundSamples != 0 {
				t.Errorf("seed %d: %s read %d samples, want 0", seed, leg.name, r.Cost.BoundSamples)
			}
		}
		set, err := RunBounds(tr, planner)
		if err != nil {
			t.Fatal(err)
		}
		read := set.LowerBound.Cost.BoundSamples
		t.Logf("seed %d: the fused bounds read %d of %d samples", seed, read, tr.Len())
		if read <= 0 || read > tr.Len() {
			t.Errorf("seed %d: the fused bounds read %d samples, want 1..%d", seed, read, tr.Len())
		}
		for _, r := range []*Result{set.UpperBoundGlobal, set.UpperBoundPerDay} {
			if r.Cost.BoundSamples != read {
				t.Errorf("seed %d: %s counts %d samples read, the walk it shares %d", seed, r.Name, r.Cost.BoundSamples, read)
			}
		}
	}
}

// A sweep of several BML configurations and the three bounds over one
// trace builds the trace's block summary once, shares it across
// concurrent cells (run under -race), and returns exactly the results of
// unshared runs. A fleet-scaled copy of the trace gets its own summary.
func TestSweepBuildsSummaryOnce(t *testing.T) {
	tr := rawWCDays(t, 2)
	planner := fastPlanner(t)
	configs := []BMLConfig{{}, {Headroom: 1.2}, {WindowFactor: 3}, {PredictorSpec: "oracle"}}
	var jobs []SweepJob
	for _, scale := range []float64{1, 2} {
		for _, cfg := range configs {
			jobs = append(jobs, SweepJob{Trace: tr, Planner: planner, Scenario: ScenarioBML, BML: cfg, FleetScale: scale})
		}
		for _, sc := range []Scenario{ScenarioUpperBoundGlobal, ScenarioUpperBoundPerDay, ScenarioLowerBound} {
			jobs = append(jobs, SweepJob{Trace: tr, Planner: planner, Scenario: sc, FleetScale: scale})
		}
	}
	cache := newSweepCache()
	got := make([]*Result, len(jobs))
	err := sweepStream(jobs, 4, func(r SweepResult) error {
		if r.Err != nil {
			t.Errorf("cell %d: %v", r.Index, r.Err)
		}
		got[r.Index] = r.Result
		return nil
	}, cache)
	if err != nil {
		t.Fatal(err)
	}
	if cache.built != 2 {
		t.Fatalf("the sweep built %d block summaries, want 2 (one per trace and scale)", cache.built)
	}
	for i, j := range jobs {
		want, err := j.run()
		if err != nil {
			t.Fatal(err)
		}
		if got[i] == nil || !reflect.DeepEqual(pinResult(got[i]), pinResult(want)) || got[i].Cost != want.Cost {
			t.Errorf("cell %d (%s %+v, scale %v): shared-summary result differs from an unshared run", i, j.Scenario, j.BML, j.FleetScale)
		}
	}
}
