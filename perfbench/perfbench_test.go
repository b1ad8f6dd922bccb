package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bml"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(n - i) // descending, so tailOf must sort
	}
	return v
}

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n              int
		target         float64
		wantValue      float64
		wantPct        float64
		wantBeyond     int
		lowerThanAsked bool
	}{
		{n: 1000, target: 99, wantValue: 990, wantPct: 99, wantBeyond: 10},
		{n: 2000, target: 99, wantValue: 1980, wantPct: 99, wantBeyond: 20},
		{n: 500, target: 99, wantValue: 490, wantPct: 98, wantBeyond: 10, lowerThanAsked: true},
		{n: 30, target: 90, wantValue: 20, wantPct: 100 * 20.0 / 30, wantBeyond: 10, lowerThanAsked: true},
		// Too few samples for any rank with ten beyond: the median.
		{n: 12, target: 90, wantValue: 6, wantPct: 50, wantBeyond: 6, lowerThanAsked: true},
	}
	for _, c := range cases {
		got := tailOf(ramp(c.n), c.target)
		if got.Value != c.wantValue || math.Abs(got.Pct-c.wantPct) > 1e-9 || got.Beyond != c.wantBeyond || got.N != c.n {
			t.Errorf("n=%d p%g: got %+v, want value %v at p%v with %d beyond", c.n, c.target, got, c.wantValue, c.wantPct, c.wantBeyond)
		}
		if (got.Pct < got.Target) != c.lowerThanAsked {
			t.Errorf("n=%d p%g: reported p%v", c.n, c.target, got.Pct)
		}
	}
}

func TestTailCountsFailuresAsMisses(t *testing.T) {
	v := ramp(1000)
	for i := 0; i < 11; i++ {
		v[i] = inf // eleven failed operations sit beyond every latency
	}
	if got := tailOf(v, 99); !math.IsInf(got.Value, 1) {
		t.Fatalf("p99 with 1.1%% failures = %v, want +Inf", got.Value)
	}
	if got := finite(tailOf(v, 99).Value); got != math.MaxFloat64 {
		t.Fatalf("finite(+Inf) = %v", got)
	}
}

func TestEndToEndPrintsTailWithCount(t *testing.T) {
	var buf bytes.Buffer
	o := &outcome{SetupS: []float64{1, 2, 3}, LatMS: ramp(500), Attempted: 500, OpsWall: time.Second, TailTarget: 99}
	m := endToEndMetrics(&buf, o)
	if !strings.Contains(buf.String(), "at p98.00 (target p99; n=500, 10 samples beyond it)") {
		t.Fatalf("tail line missing its percentile and count:\n%s", buf.String())
	}
	if m["setup_s"].Value != 2 || m["op_ms_p50"].Value != 250.5 || m["ok_ratio"].Value != 1 {
		t.Fatalf("metrics = %v", m)
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},   // overlaps a: the union counts once
		{Name: "a.1", Start: 15, End: 20, Parent: 1}, // grandchild: a's business, not root's
		{Name: "c", Start: 90, End: 130, Parent: 0},  // runs past its parent: clipped
		{Name: "other", Start: 0, End: 50, Parent: -1},
	}
	want := []time.Duration{100 - 50 - 10, 30 - 5, 30, 5, 40, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	rows := layerTable(spans)
	if rows[0].Name != "other" || rows[0].SelfMS != 50e-6 {
		t.Errorf("first row = %+v, want the largest self time (other)", rows[0])
	}
}

func TestTracerSnapshotDropsOpenSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, tr.op())
	tr.begin("open", root, 1) // never ended
	child := tr.begin("child", root, 1)
	tr.end(child)
	tr.end(root)
	spans, _ := tr.snapshot()
	if len(spans) != 2 || spans[1].Name != "child" || spans[1].Parent != 0 {
		t.Fatalf("snapshot = %+v", spans)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", -1, nilTracer.op()); id != -1 {
		t.Fatalf("nil tracer handed out span %d", id)
	}
	nilTracer.end(0)
	nilTracer.add("x", 1)
}

func TestOpenLoopStallDelaysLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.Write([]byte("<html><body><p>7</p></body></html>\n"))
	}))
	defer srv.Close()
	var due []time.Duration
	for i := 0; i < 20; i++ {
		due = append(due, time.Duration(i)*20*time.Millisecond)
	}
	res := openLoop(context.Background(), srv.URL, due, 1, checkPage, nil)
	if res.Failed != 0 || res.Bad != 0 {
		t.Fatalf("failed %d, bad %d", res.Failed, res.Bad)
	}
	// Request 3 (index 2) is due at 40 ms and holds the only connection
	// until ~340 ms. Index 3 falls due at 60 ms: timed from its due time,
	// it waited ~280 ms before it could even be sent.
	if got := res.LatMS[3]; got < 250 {
		t.Errorf("request due during the stall took %.1f ms, want ≥ 250 (timed from its due time)", got)
	}
	for i := 4; i < 17; i++ {
		if res.LatMS[i] > res.LatMS[i-1] {
			t.Errorf("backlog did not drain in order: request %d %.1f ms after %.1f ms", i, res.LatMS[i], res.LatMS[i-1])
		}
	}
	if got := res.LatMS[19]; got > 100 {
		t.Errorf("request due after the backlog cleared took %.1f ms", got)
	}
}

func TestOpenLoopCountsBadBodies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not the page"))
	}))
	defer srv.Close()
	res := openLoop(context.Background(), srv.URL, []time.Duration{0, time.Millisecond}, 2, checkPage, nil)
	if res.Failed != 2 || res.Bad != 2 || !math.IsInf(res.LatMS[0], 1) {
		t.Fatalf("failed %d, bad %d, lat %v", res.Failed, res.Bad, res.LatMS)
	}
}

func TestFixedCountScheduleIsSeededPoisson(t *testing.T) {
	a, err := fixedCountSchedule(7, 100, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := fixedCountSchedule(7, 100, 10*time.Second)
	c, _ := fixedCountSchedule(8, 100, 10*time.Second)
	if len(a) != 1000 || len(c) != 1000 {
		t.Fatalf("len %d, %d; want exactly rate × horizon", len(a), len(c))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different schedule")
		}
		if i > 0 && a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v out of order or past the horizon", i, a[i])
		}
	}
	if a[500] == c[500] {
		t.Fatal("different seeds gave the same schedule")
	}
}

// flatDayGrid builds a four-cell grid over a flat one-day trace.
func flatDayGrid(t *testing.T) []sim.SweepJob {
	t.Helper()
	vals := make([]float64, trace.SecondsPerDay)
	for i := range vals {
		vals[i] = 500
	}
	tr, err := trace.New(vals)
	if err != nil {
		t.Fatal(err)
	}
	tr, err = tr.Quantize(300)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := sim.Grid([]sim.TraceAxis{{Trace: tr}}, planner, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestJournalWrapperKeepsIngestFsync(t *testing.T) {
	var _ interface{ Sync() error } = (*timedJournal)(nil)
	jobs := flatDayGrid(t)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := newTracer()
	j := &timedJournal{f: f, tr: tr}
	ing := sim.NewIngest(jobs, sim.WithJournal(j))
	srv := httptest.NewServer(ing)
	defer srv.Close()
	sink, err := sim.NewHTTPSink(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	rec := sim.NewCellRecord(sim.Sweep(jobs[:1], 1)[0])
	if err := sink.Emit(rec); err != nil {
		t.Fatal(err)
	}
	spans, _ := tr.snapshot()
	if j.syncs.Load() != 1 || len(durations(spans, "journal.Sync")) != 1 || len(durations(spans, "journal.Write")) != 1 {
		t.Fatalf("one acknowledged POST: %d syncs, spans %+v; want one Write and one Sync", j.syncs.Load(), spans)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	recs, truncated, err := sim.ReadJournal(rf)
	if err != nil || truncated || len(recs) != 1 || recs[0].ID != rec.ID {
		t.Fatalf("journal replay: %v records, truncated %v, err %v", len(recs), truncated, err)
	}
	if j.bytes.Load() == 0 {
		t.Fatal("journal bytes not counted")
	}
}

// runJSON runs the benchmark in a scratch directory and decodes its last
// output line.
func runJSON(t *testing.T, args ...string) (int, summary, string) {
	t.Helper()
	t.Chdir(t.TempDir())
	var out bytes.Buffer
	code := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if code != 2 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("last line is not the summary: %v\n%s", err, out.String())
		}
	}
	return code, sum, out.String()
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "raw-month", "--trace", "2"},
		{"--workload", "raw-month", "--seconds", "0"},
	} {
		if code, _, _ := runJSON(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestServeFixedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a farm")
	}
	code, sum, out := runJSON(t, "--workload", "serve-fixed", "--seed", "3", "--seconds", "1", "--trace", "0")
	if code != 0 || !sum.Correct || sum.Failed != 0 || sum.Attempted < 300 {
		t.Fatalf("exit %d, summary %+v\n%s", code, sum, out)
	}
	for _, k := range []string{"setup_s", "ops_per_s", "op_ms_p50", "ok_ratio", "alloc_mb_per_op", "peak_rss_mb"} {
		if v, ok := sum.Metrics[k]; !ok || v.Value <= 0 {
			t.Errorf("metric %s = %+v", k, v)
		}
	}
}

func TestGridPassCountsAndChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps a grid")
	}
	tr := newTracer()
	g, err := setupGrid(2, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	for i := 0; i < 2; i++ {
		if err := g.pass(tr); err != nil {
			t.Fatal(err)
		}
	}
	spans, counts := tr.snapshot()
	m := perLayerMetrics(io.Discard, &outcome{Layer: map[string]float64{}}, spans, counts)
	cells := float64(gridDays * 7)
	bounds := float64(gridDays * 3)
	for k, want := range map[string]float64{
		"sim.cache_hits": bounds, "sim.cache_misses": cells - bounds,
		"sim.journal_syncs": cells, "sim.cache_hit_ratio": bounds / cells,
	} {
		if got := m[k].Value; got != want {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
	for _, k := range []string{"sim.cell_compute_ms", "sim.cache_put_ms", "sim.cache_get_ms", "sim.sink_flush_ms",
		"sim.journal_sync_ms", "sim.claim_ms", "sim.merge_ms", "report.sweep_csv_ms", "sim.record_encode_us"} {
		if m[k].Value <= 0 {
			t.Errorf("%s = %v, want a measured time", k, m[k].Value)
		}
	}
	layer := map[string]float64{}
	g.report(layer)
	if layer["grid.cells_per_s"] <= 0 || len(g.latMS) != 2*int(cells) {
		t.Errorf("grid figures %v from %d latencies", layer, len(g.latMS))
	}
}
