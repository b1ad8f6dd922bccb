package sched

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bml"
	"repro/internal/cluster"
	"repro/internal/predict"
	"repro/internal/trace"
)

// perSecond hides the look-ahead predictor's concrete type, so that a
// scheduler built on it scans predictions one second at a time.
type perSecond struct{ predict.Predictor }

// spanRig builds a scheduler over tr on the fast catalog's dense table; a
// per-second scheduler wraps its predictor in perSecond.
func spanRig(t *testing.T, tr *trace.Trace, table *bml.Table, window int, headroom float64, perSec bool) (*Scheduler, *predict.LookaheadMax) {
	t.Helper()
	la, err := predict.NewLookaheadMax(tr, window)
	if err != nil {
		t.Fatal(err)
	}
	var pred predict.Predictor = la
	if perSec {
		pred = perSecond{la}
	}
	cl, err := cluster.New(fastArchs())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := New(Config{Table: table, Predictor: pred, Cluster: cl, Headroom: headroom})
	if err != nil {
		t.Fatal(err)
	}
	return sc, la
}

// DecideSpan's first-exit path ends every span where the per-second scan
// ends it, with the same report, so that the decisions, switch counts and
// decision log of a whole run are identical, and it never builds the
// look-ahead array. Traces mix plateaus (many seconds with one
// prediction), noise, zeros and spikes; windows, headrooms and span limits
// vary, and the engine loop folds each span as the interval integrator
// does.
func TestDecideSpanFirstExitMatchesPerSecondScan(t *testing.T) {
	planner, err := bml.NewPlanner(fastArchs(), bml.WithPreFilteredCandidates())
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, 500+rng.Intn(3000))
		level := 0.0
		for i := range vals {
			switch r := rng.Intn(200); {
			case r == 0:
				level = 0
			case r < 6:
				level = rng.Float64() * 400
			}
			v := level
			if seed%2 == 0 {
				v += rng.Float64() * 15
			}
			if rng.Intn(500) == 0 {
				v += 300 // a spike
			}
			vals[i] = v
		}
		tr := trace.MustNew(vals)
		headroom := []float64{1, 1.3, 1 + rng.Float64()}[seed%3]
		window := 1 + rng.Intn(120)
		table := planner.Table(tr.Max() * headroom)
		fast, la := spanRig(t, tr, table, window, headroom, false)
		slow, _ := spanRig(t, tr, table, window, headroom, true)
		if fast.window == nil || slow.window != nil {
			t.Fatal("the rigs do not take the two scan paths")
		}
		for t0 := 0; t0 < tr.Len(); {
			limit := min(tr.Len(), t0+1+rng.Intn(400))
			repF, nextF, errF := fast.DecideSpan(t0, limit)
			repS, nextS, errS := slow.DecideSpan(t0, limit)
			if errF != nil || errS != nil {
				t.Fatalf("seed %d at %d: %v / %v", seed, t0, errF, errS)
			}
			if nextF != nextS || repF != repS {
				t.Fatalf("seed %d: DecideSpan(%d, %d) = %d %+v, per-second scan %d %+v", seed, t0, limit, nextF, repF, nextS, repS)
			}
			next := nextF
			if w := fast.NextWake(); w > 0 {
				next = min(next, t0+int(math.Ceil(w-1e-9)))
			}
			next = max(next, t0+1)
			for _, sc := range []*Scheduler{fast, slow} {
				f := sc.StartDemandFold()
				f.Fold(la.Blocks(), t0, next)
				if _, err := sc.FinishDemandFold(f, tr.At(next-1), float64(next-t0)); err != nil {
					t.Fatal(err)
				}
			}
			t0 = next
		}
		if fast.Decisions() != slow.Decisions() || fast.SwitchOns() != slow.SwitchOns() || fast.SwitchOffs() != slow.SwitchOffs() {
			t.Fatalf("seed %d: counters %d/%d/%d, per-second scan %d/%d/%d", seed,
				fast.Decisions(), fast.SwitchOns(), fast.SwitchOffs(), slow.Decisions(), slow.SwitchOns(), slow.SwitchOffs())
		}
		logF, logS := fast.DecisionLog(), slow.DecisionLog()
		if len(logF) != len(logS) {
			t.Fatalf("seed %d: %d logged decisions, per-second scan %d", seed, len(logF), len(logS))
		}
		for i := range logF {
			if logF[i].Time != logS[i].Time || logF[i].Predicted != logS[i].Predicted || !sameCounts(logF[i].Target, logS[i].Target) {
				t.Fatalf("seed %d: decision %d is %+v, per-second scan %+v", seed, i, logF[i], logS[i])
			}
		}
		if fast.Decisions() == 0 {
			t.Fatalf("seed %d: no decision taken; the trace exercises nothing", seed)
		}
		if got := la.SamplesBuilt(); got != 0 {
			t.Fatalf("seed %d: the first-exit path built %d samples of the look-ahead array", seed, got)
		}
	}
}

// fleetMatches is sameCounts of the combination's and the fleet's count
// maps, without the maps: over random table entries and random fleets,
// including fleets that run an architecture the table never uses.
func TestFleetMatchesIsCountsEquality(t *testing.T) {
	archs := fastArchs()
	planner, err := bml.NewPlanner(archs, bml.WithPreFilteredCandidates())
	if err != nil {
		t.Fatal(err)
	}
	table := planner.Table(400)
	extra := archs[1]
	extra.Name = "spare"
	cl, err := cluster.New(append(archs, extra))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := New(Config{Table: table, Predictor: predict.NewOracle(constTrace(t, 1, 1)), Cluster: cl})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	matched := 0
	for i := 0; i < 2000; i++ {
		target := table.At(rng.Float64() * 400)
		// Often drive the fleet to the target itself, so that both answers
		// occur; otherwise to random counts, sometimes on the spare.
		want := target.Counts()
		if rng.Intn(3) != 0 {
			want = map[string]int{"big": rng.Intn(4), "little": rng.Intn(6)}
		}
		if rng.Intn(4) == 0 {
			want["spare"] = 1 + rng.Intn(2)
		}
		// Settle the transitions, so that the fleet's counts reach want.
		for k := 0; k < 2; k++ {
			if _, _, err := cl.SetTarget(want); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Tick(60); err != nil {
				t.Fatal(err)
			}
		}
		got, ref := sc.fleetMatches(target), sameCounts(target.Counts(), cl.Counts())
		if got != ref {
			t.Fatalf("target %v, fleet %v: fleetMatches = %v, want %v", target.Counts(), cl.Counts(), got, ref)
		}
		if got {
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("no fleet matched its target; the test exercises one answer only")
	}
}
