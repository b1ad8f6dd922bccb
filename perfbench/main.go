// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed wall time, checks every output the workload
// produced, and prints each end-to-end metric by name and unit; the last
// line of standard output is a JSON summary. With --trace 1 it instead
// records spans around every call into the program's layers and reports
// the per-layer metrics, a self-time table, and the tracing overhead.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload raw-month --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload raw-month --seed 1 --seconds 10 --trace 1
//
// Workloads: raw-month and serve-fixed (see README.md).
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times each workload sets itself up; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 3

// benchDir is where a run keeps its scratch files and span dumps,
// relative to the checkout root.
const benchDir = ".bench_build"

// outcome is what one workload run measured.
type outcome struct {
	SetupS     []float64 // wall seconds of each set-up
	LatMS      []float64 // untraced operation latencies; +Inf marks a failed operation
	TracedMS   []float64 // traced operation latencies (--trace 1 only)
	Attempted  int64
	Failed     int64
	OpsWall    time.Duration // wall time the untraced operations ran in
	UnitRates  []float64     // 1 / latency of each operation, when operations run one at a time
	PeakRSSMB  []float64     // each operation's own peak RSS, when operations start from a collected heap
	AllocBytes uint64        // heap bytes allocated while they ran
	TailTarget float64       // the tail percentile this workload reports
	Layer      map[string]float64
	Notes      []string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *tracer) (*outcome, error){
	"raw-month":   runRawMonth,
	"serve-fixed": runServeFixed,
}

// runConfig is the command line a workload runs under.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	WorkDir  string // scratch directory, removed when the run ends
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: raw-month | serve-fixed")
	seed := fl.Int64("seed", 1, "seed for every generated input")
	seconds := fl.Int("seconds", 10, "wall seconds to measure")
	traceFlag := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (raw-month|serve-fixed), --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1}
	cfg.WorkDir = filepath.Join(benchDir, fmt.Sprintf("work-%s-%d", cfg.Workload, os.Getpid()))
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.WorkDir)

	prov := provenance(cfg)
	fmt.Fprintf(stdout, "provenance %s\n", mustJSON(prov))

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	out, err := runner(cfg, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		if out == nil {
			return 1
		}
	}
	for _, n := range out.Notes {
		fmt.Fprintln(stdout, n)
	}
	sum := summary{Correct: err == nil, Attempted: out.Attempted, Failed: out.Failed}
	if cfg.Trace {
		spans, counts := tr.snapshot()
		fmt.Fprintln(stdout, "self time by layer (span minus its children):")
		printLayerTable(stdout, layerTable(spans))
		path := filepath.Join(benchDir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
		if werr := writeSpans(path, spans, counts); werr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", werr)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans), path)
		sum.Metrics = perLayerMetrics(stdout, out, spans, counts)
	} else {
		sum.Metrics = endToEndMetrics(stdout, out)
	}
	for k, v := range sum.Metrics {
		sum.Metrics[k] = metricValue{finite(v.Value), v.Unit}
	}
	printMetrics(stdout, sum.Metrics)
	if sum.Attempted < 1 {
		sum.Attempted = 1
		sum.Failed = 1
		sum.Correct = false
	}
	fmt.Fprintln(stdout, mustJSON(sum))
	if !sum.Correct {
		return 1
	}
	return 0
}

// endToEndMetrics computes what a user of the workload sees. The latency
// tail is printed with its percentile and sample count but is not one of
// the bounded metrics: on serve-fixed it is set by rare arrival bursts
// and moved 1–100 ms between seeds, far beyond any usable bound.
func endToEndMetrics(w io.Writer, o *outcome) map[string]metricValue {
	completed := o.Attempted - o.Failed
	t := tailOf(o.LatMS, o.TailTarget)
	m := map[string]metricValue{
		"setup_s":     {median(o.SetupS), "s"},
		"ops_per_s":   {opsPerSecond(o), "1/s"},
		"op_ms_p50":   {median(o.LatMS), "ms"},
		"ok_ratio":    {float64(completed) / float64(max(o.Attempted, 1)), "ratio"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	if len(o.PeakRSSMB) > 0 {
		m["peak_rss_mb"] = metricValue{median(o.PeakRSSMB), "MB"}
	}
	if completed > 0 {
		m["alloc_mb_per_op"] = metricValue{float64(o.AllocBytes) / 1e6 / float64(completed), "MB"}
	} else {
		m["alloc_mb_per_op"] = metricValue{0, "MB"}
	}
	fmt.Fprintf(w, "samples: %d operations attempted, %d failed (failed_ratio %.6f); op_ms_p50 over %d operations; ops_per_s the median of %d rates; setup_s the median of %d set-ups (%s s)\n",
		o.Attempted, o.Failed, float64(o.Failed)/float64(max(o.Attempted, 1)), len(o.LatMS), max(len(o.UnitRates), 1), len(o.SetupS), fmtList(o.SetupS))
	fmt.Fprintf(w, "op_ms tail: %.4f ms at p%.2f (target p%g; n=%d, %d samples beyond it)\n", t.Value, t.Pct, t.Target, t.N, t.Beyond)
	return m
}

// opsPerSecond is the median of the run's per-operation rates, so one
// operation slowed by the host does not move it; a run whose operations
// overlap reports completed operations over its wall time.
func opsPerSecond(o *outcome) float64 {
	if len(o.UnitRates) > 0 {
		return median(o.UnitRates)
	}
	return float64(o.Attempted-o.Failed) / o.OpsWall.Seconds()
}

// settle runs before timed work: it flushes dirty file data (earlier
// runs' included) so the timed fsyncs do not write it back, collects the
// garbage of what ran before, returns it to the OS, and restarts the
// kernel's peak-RSS mark, so peak_rss_mb reports what the measured
// operations needed.
func settle() {
	syscall.Sync()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // unsupported kernels keep the whole-process peak
}

// layerSpan names the span whose median duration is each *_ms per-layer
// metric.
var layerSpan = map[string]string{
	"sim.run_bml_ms":             "sim.RunBML",
	"predict.lookahead_build_ms": "predict.NewLookaheadMax",
	"bml.table_ms":               "bml.Planner.Table",
	"sim.liverig_ms":             "sim.LiveRig",
	"sim.run_ub_global_ms":       "sim.RunUpperBoundGlobal",
	"sim.run_ub_perday_ms":       "sim.RunUpperBoundPerDay",
	"sim.run_lowerbound_ms":      "sim.RunLowerBound",
	"sim.cell_compute_ms":        "sim.SweepStream.cell",
	"sim.cache_put_ms":           "sim.DirCache.Put",
	"sim.cache_get_ms":           "sim.DirCache.Get",
	"sim.sink_flush_ms":          "sim.HTTPSink.Emit",
	"sim.journal_append_ms":      "journal.Write",
	"sim.journal_sync_ms":        "journal.Sync",
	"sim.claim_ms":               "sim.ClaimCells",
	"sim.merge_ms":               "sim.MergeCells",
	"report.sweep_csv_ms":        "report.SweepCSV",
	"trace.generate_ms":          "trace.GenerateWorldCup",
	"sim.grid_build_ms":          "sim.Grid",
	"sim.tick_oracle_ms":         "sim.RunBML(tick)",
	"webapp.reconfigure_ms":      "webapp.Farm.Reconfigure",
}

// perRun divides a counter by the number of units it was taken over (BML
// probe runs, grid passes), so the figure does not depend on how many
// units fit in the run.
var perRun = map[string][2]string{
	"sim.bml_decisions":   {"sim.bml_decisions", "sim.bml_runs"},
	"sim.bml_switch_ons":  {"sim.bml_switch_ons", "sim.bml_runs"},
	"sim.bml_switch_offs": {"sim.bml_switch_offs", "sim.bml_runs"},
	"sim.cache_hits":      {"sim.cache_hits", "grid.passes"},
	"sim.cache_misses":    {"sim.cache_misses", "grid.passes"},
	"sim.journal_syncs":   {"sim.journal_syncs", "grid.passes"},
	"sim.journal_bytes":   {"sim.journal_bytes", "grid.passes"},
	"sim.claims":          {"sim.claims", "grid.passes"},
	"sim.claims_empty":    {"sim.claims_empty", "grid.passes"},
	"sim.lease_wait_ms":   {"sim.lease_wait_ms", "grid.passes"},
}

// perLayerUnits lists every per-layer metric with its unit; metrics the
// workload does not exercise read 0.
var perLayerUnits = []struct{ name, unit string }{
	{"sim.run_bml_ms", "ms"}, {"predict.lookahead_build_ms", "ms"}, {"bml.table_ms", "ms"},
	{"sim.liverig_ms", "ms"}, {"sim.run_ub_global_ms", "ms"}, {"sim.run_ub_perday_ms", "ms"},
	{"sim.run_lowerbound_ms", "ms"}, {"sim.bml_alloc_mb", "MB"}, {"sim.bml_decisions", "count"},
	{"sim.bml_switch_ons", "count"}, {"sim.bml_switch_offs", "count"},
	{"sim.cell_compute_ms", "ms"}, {"sim.cache_put_ms", "ms"}, {"sim.cache_misses", "count"},
	{"sim.cache_get_ms", "ms"}, {"sim.cache_hits", "count"}, {"sim.cache_hit_ratio", "ratio"},
	{"sim.sink_flush_ms", "ms"}, {"sim.journal_append_ms", "ms"}, {"sim.journal_sync_ms", "ms"},
	{"sim.journal_syncs", "count"}, {"sim.journal_bytes", "bytes"}, {"sim.record_encode_us", "us"},
	{"sim.claim_ms", "ms"}, {"sim.claims", "count"}, {"sim.claims_empty", "count"},
	{"sim.lease_wait_ms", "ms"}, {"sim.merge_ms", "ms"}, {"report.sweep_csv_ms", "ms"},
	{"trace.generate_ms", "ms"}, {"sim.grid_build_ms", "ms"}, {"sim.tick_oracle_ms", "ms"},
	{"webapp.reconfigure_ms", "ms"}, {"webapp.lb_latency_ms_p50", "ms"}, {"webapp.lb_latency_ms_p99", "ms"},
	{"webapp.served", "count"}, {"webapp.shed", "count"}, {"webapp.backend_failed", "count"},
	{"gen.late_ms_p99", "ms"}, {"gen.late_ms_max", "ms"},
	{"bench.op_ms_p50_untraced", "ms"}, {"bench.op_ms_p50_traced", "ms"}, {"bench.trace_overhead_pct", "%"},
	{"bench.op_ms_tail", "ms"},
	{"grid.cells_per_s", "1/s"}, {"grid.cell_ms_p50", "ms"}, {"grid.cell_ms_p90", "ms"},
}

// perLayerMetrics derives every per-layer metric from the spans and
// counters of a traced run.
func perLayerMetrics(w io.Writer, o *outcome, spans []span, counts map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(perLayerUnits))
	for _, pl := range perLayerUnits {
		v, measured := o.Layer[pl.name]
		switch {
		case measured:
		case layerSpan[pl.name] != "":
			v = median(durations(spans, layerSpan[pl.name]))
		case perRun[pl.name] != [2]string{}:
			if d := counts[perRun[pl.name][1]]; d > 0 {
				v = counts[perRun[pl.name][0]] / d
			}
		}
		m[pl.name] = metricValue{v, pl.unit}
	}
	if d := counts["sim.bml_runs"]; d > 0 {
		m["sim.bml_alloc_mb"] = metricValue{counts["sim.bml_alloc_bytes"] / d / 1e6, "MB"}
	}
	if hm := counts["sim.cache_hits"] + counts["sim.cache_misses"]; hm > 0 {
		m["sim.cache_hit_ratio"] = metricValue{counts["sim.cache_hits"] / hm, "ratio"}
	}
	m["sim.record_encode_us"] = metricValue{1000 * median(durations(spans, "sim.WriteCellRecord")), "us"}
	untraced, traced := median(o.LatMS), median(o.TracedMS)
	m["bench.op_ms_p50_untraced"] = metricValue{untraced, "ms"}
	t := tailOf(o.LatMS, o.TailTarget)
	m["bench.op_ms_tail"] = metricValue{t.Value, "ms"}
	fmt.Fprintf(w, "op_ms tail (untraced operations): %.4f ms at p%.2f (target p%g; n=%d, %d samples beyond it)\n", t.Value, t.Pct, t.Target, t.N, t.Beyond)
	m["bench.op_ms_p50_traced"] = metricValue{traced, "ms"}
	if untraced > 0 {
		m["bench.trace_overhead_pct"] = metricValue{100 * (traced/untraced - 1), "%"}
	}
	fmt.Fprintf(w, "tracing overhead: op_ms_p50 traced %.4f ms (n=%d) vs untraced %.4f ms (n=%d)\n",
		traced, len(o.TracedMS), untraced, len(o.LatMS))
	return m
}

func printMetrics(w io.Writer, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-28s %14s %s\n", k, strconv.FormatFloat(m[k].Value, 'g', 8, 64), m[k].Unit)
	}
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers reach here
	}
	return string(b)
}

// peakRSSMB reads the process's peak resident set from /proc, falling back
// to the Go runtime's view of memory obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// provenance names the host, toolchain and source a result came from.
func provenance(cfg runConfig) map[string]any {
	p := map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"trace":      cfg.Trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"source":     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p["commit"] = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// inf is a failed operation's latency: it misses every limit.
var inf = math.Inf(1)

// finite makes a metric encodable as JSON: a latency that landed on a
// failed operation (+Inf) reads as the largest float, a quotient with no
// operations (NaN) as 0.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	}
	return v
}
