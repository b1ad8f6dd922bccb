package sim

// Bit-pin test: every float64 a Result reports, for all four Figure 5
// scenarios, must keep its exact bits. Cell IDs carry no code version, so a
// kernel rewrite that moved any result by one ulp would make cached cells
// disagree with freshly computed ones (and break the byte-exact paper
// goldens) without any tolerance-based differential noticing. The pinned
// bits live in testdata/bitpin.json; regenerate them only for a deliberate
// change of results:
//
//	go test ./internal/sim -run TestResultBitsPinned -update

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bml"
	"repro/internal/profile"
	"repro/internal/trace"
)

var updateBitPin = flag.Bool("update", false, "rewrite testdata/bitpin.json from the current results")

// pinnedResult is a Result with every float64 recorded as its exact bits.
type pinnedResult struct {
	TotalEnergy      string   `json:"total_energy"`
	DailyEnergy      []string `json:"daily_energy"`
	Transition       string   `json:"breakdown_transition"`
	Idle             string   `json:"breakdown_idle"`
	Dynamic          string   `json:"breakdown_dynamic"`
	MigrationEnergy  string   `json:"migration_energy"`
	QoSSeconds       string   `json:"qos_seconds"`
	ViolationSeconds string   `json:"violation_seconds"`
	TotalRequests    string   `json:"total_requests"`
	LostRequests     string   `json:"lost_requests"`
	Decisions        int      `json:"decisions"`
	SwitchOns        int      `json:"switch_ons"`
	SwitchOffs       int      `json:"switch_offs"`
	Skipped          int      `json:"skipped"`
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func pinResult(r *Result) pinnedResult {
	p := pinnedResult{
		TotalEnergy:      bits(float64(r.TotalEnergy)),
		Transition:       bits(float64(r.Breakdown.Transition)),
		Idle:             bits(float64(r.Breakdown.Idle)),
		Dynamic:          bits(float64(r.Breakdown.Dynamic)),
		MigrationEnergy:  bits(float64(r.MigrationEnergy)),
		QoSSeconds:       bits(r.QoS.Seconds()),
		ViolationSeconds: bits(r.QoS.ViolationSeconds()),
		TotalRequests:    bits(r.QoS.TotalRequests()),
		LostRequests:     bits(r.QoS.LostRequests()),
		Decisions:        r.Decisions,
		SwitchOns:        r.SwitchOns,
		SwitchOffs:       r.SwitchOffs,
		Skipped:          r.Skipped,
	}
	for _, e := range r.DailyEnergy {
		p.DailyEnergy = append(p.DailyEnergy, bits(float64(e)))
	}
	return p
}

// bitPinTraces returns the pinned inputs, both cut from one generated World
// Cup month: a raw 1 Hz segment of days 8-10 that ends at 18:00 on day 10,
// and the 300 s-quantized month (long runs of equal samples). The raw
// segment's trailing partial day exercises addEnergy's uncredited tail and
// UB-PerDay's last-day sizing fallback, whose evening peak outgrows the
// last complete day's fleet (so the bound scenario records QoS loss).
func bitPinTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = 30
	month, err := trace.GenerateWorldCup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := month.Slice(7*trace.SecondsPerDay, 9*trace.SecondsPerDay+18*3600)
	if err != nil {
		t.Fatal(err)
	}
	quant, err := month.Quantize(300)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*trace.Trace{"raw-2.75d": raw, "q300-30d": quant}
}

// pinnedConfigs are the BML configurations pinned on every trace.
var pinnedConfigs = map[string]BMLConfig{
	"default":        {},
	"headroom":       {Headroom: 1.3},
	"boot-faults":    {BootFaultProb: 0.05, FaultSeed: 7},
	"overhead-aware": {OverheadAware: true},
}

// pinnedRuns returns the pinned scenario runs on tr under opts, keyed by
// their pin name within the trace.
func pinnedRuns(tr *trace.Trace, planner *bml.Planner, opts ...Option) map[string]func() (*Result, error) {
	runs := map[string]func() (*Result, error){
		"ub-global":  func() (*Result, error) { return RunUpperBoundGlobal(tr, planner.Big(), opts...) },
		"ub-perday":  func() (*Result, error) { return RunUpperBoundPerDay(tr, planner.Big(), opts...) },
		"lowerbound": func() (*Result, error) { return RunLowerBound(tr, planner.Candidates(), opts...) },
	}
	for name, cfg := range pinnedConfigs {
		runs["bml-"+name] = func() (*Result, error) { return RunBML(tr, planner, cfg, opts...) }
	}
	return runs
}

func TestResultBitsPinned(t *testing.T) {
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]pinnedResult{}
	traces := bitPinTraces(t)
	for trName, tr := range traces {
		for name, run := range pinnedRuns(tr, planner) {
			res, err := run()
			if err != nil {
				t.Fatalf("%s/%s: %v", trName, name, err)
			}
			got[trName+"/"+name] = pinResult(res)
		}
	}

	path := filepath.Join("testdata", "bitpin.json")
	if *updateBitPin {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]pinnedResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("pinned %d cases, ran %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: pinned case not run", name)
			continue
		}
		if w.TotalEnergy == bits(0) || w.TotalRequests == bits(0) {
			t.Errorf("%s: degenerate pinned result cannot see a regression", name)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: result bits changed\n got %+v\nwant %+v", name, g, w)
		}
	}
	// RunAll's fused bounds and its concurrent BML leg reproduce the pinned
	// single-scenario bits.
	for trName, tr := range traces {
		set, err := RunAll(tr, planner, pinnedConfigs["default"])
		if err != nil {
			t.Fatalf("%s/RunAll: %v", trName, err)
		}
		for leg, res := range map[string]*Result{
			"ub-global":   set.UpperBoundGlobal,
			"ub-perday":   set.UpperBoundPerDay,
			"lowerbound":  set.LowerBound,
			"bml-default": set.BML,
		} {
			name := trName + "/" + leg
			if g, w := pinResult(res), want[name]; !reflect.DeepEqual(g, w) {
				t.Errorf("%s: RunAll result bits differ from the pinned ones\n got %+v\nwant %+v", name, g, w)
			}
		}
	}
}

// The pinned bits are results of the default engine, not of the
// integration scheme the paper describes. Every pinned run is held to the
// tick oracle on the same trace: total and daily energy within 1e-6 J,
// equal scheduler counters and violation seconds.
func TestPinnedResultsMatchTickOracle(t *testing.T) {
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	for trName, tr := range bitPinTraces(t) {
		ticks := pinnedRuns(tr, planner, WithTickEngine())
		for name, run := range pinnedRuns(tr, planner) {
			t.Run(trName+"/"+name, func(t *testing.T) {
				t.Parallel()
				res, err := run()
				if err != nil {
					t.Fatal(err)
				}
				tick, err := ticks[name]()
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(float64(res.TotalEnergy - tick.TotalEnergy)); d > energyTolJ {
					t.Errorf("total energy %v differs from the tick oracle's %v by %g J", res.TotalEnergy, tick.TotalEnergy, d)
				}
				if len(res.DailyEnergy) != len(tick.DailyEnergy) {
					t.Fatalf("%d days, tick oracle %d", len(res.DailyEnergy), len(tick.DailyEnergy))
				}
				for d := range tick.DailyEnergy {
					if diff := math.Abs(float64(res.DailyEnergy[d] - tick.DailyEnergy[d])); diff > energyTolJ {
						t.Errorf("day %d energy differs from the tick oracle's by %g J", d+1, diff)
					}
				}
				if res.Decisions != tick.Decisions || res.SwitchOns != tick.SwitchOns ||
					res.SwitchOffs != tick.SwitchOffs || res.Skipped != tick.Skipped {
					t.Errorf("counters %d/%d/%d/%d, tick oracle %d/%d/%d/%d",
						res.Decisions, res.SwitchOns, res.SwitchOffs, res.Skipped,
						tick.Decisions, tick.SwitchOns, tick.SwitchOffs, tick.Skipped)
				}
				if v, w := res.QoS.ViolationSeconds(), tick.QoS.ViolationSeconds(); v != w {
					t.Errorf("%v violation seconds, tick oracle %v", v, w)
				}
			})
		}
	}
}
