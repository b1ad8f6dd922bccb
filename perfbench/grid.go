package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bml"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The served grid: the 30 days of a month-long World Cup trace, each day
// its own one-day trace quantized to 300 s, crossed with BML configs at
// paper scale. Grid enumerates days × (3 + configs) cells. Fleet-scaled
// cells are left out: a fleet target is divided by the machine count of
// each day's peak, an integer, so their cost jumps between seeds.
const (
	gridDays     = 30
	gridQuantize = 300 // seconds per load step
	claimBatch   = 4   // cells per lease, as `bmlsim -claim 4`
)

const gridConfigs = "default,name=h13:headroom=1.3,name=ewma:predictor=ewma,name=oa:overhead-aware=true"

// gridSetup is a served grid ready for passes: the cells, their reference
// records, an in-process coordinator on loopback, and what the passes so
// far measured. raw-month's traced run serves one pass per traced
// evaluation. The grid is not a bounded workload of its own: its cells
// wait on fsync and file creation, and on a shared virtual disk its
// cells/s moved by 20–70% between runs minutes apart, wider than any
// bound a comparison can use.
type gridSetup struct {
	jobs   []sim.SweepJob
	byID   map[string]sim.SweepJob
	ref    map[string][]byte // canonical encoding of each cell's reference record
	bounds []sim.CellRecord  // the bound scenarios' records, cached before every pass
	dir    string

	passes int
	latMS  []float64 // every cell so far, claim → acknowledged POST
	rates  []float64 // cells per second of each pass

	current atomic.Pointer[sim.Fleet] // the fleet serving the running pass
	srv     *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
}

// canonical encodes rec without its transport metadata (wall time, cache
// flag), so byte equality is bit equality of the result.
func canonical(rec sim.CellRecord) ([]byte, error) {
	rec.WallMS = 0
	rec.Cached = false
	var b bytes.Buffer
	err := sim.WriteCellRecord(&b, rec)
	return b.Bytes(), err
}

func setupGrid(seed int64, dir string, tr *tracer) (*gridSetup, error) {
	root := tr.begin("setup", -1, 0)
	defer tr.end(root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := trace.DefaultWorldCupConfig()
	cfg.Days = gridDays
	cfg.Seed = seed
	id := tr.begin("trace.GenerateWorldCup", root, 0)
	days, err := trace.GenerateWorldCup(cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	var axes []sim.TraceAxis
	for d := 1; d <= gridDays; d++ {
		day, err := days.Day(d)
		if err != nil {
			return nil, err
		}
		if day, err = day.Quantize(gridQuantize); err != nil {
			return nil, err
		}
		axes = append(axes, sim.TraceAxis{Name: fmt.Sprintf("day%d", d), Trace: day})
	}
	planner, err := bml.NewPlanner(profile.PaperMachines())
	if err != nil {
		return nil, err
	}
	configs, err := sim.ParseConfigs(gridConfigs)
	if err != nil {
		return nil, err
	}
	id = tr.begin("sim.Grid", root, 0)
	jobs, err := sim.Grid(axes, planner, configs, nil)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	g := &gridSetup{jobs: jobs, byID: make(map[string]sim.SweepJob, len(jobs)), ref: make(map[string][]byte, len(jobs)), dir: dir}
	for _, j := range jobs {
		g.byID[sim.CellID(j)] = j
	}

	// The oracle: the same grid swept in-process.
	id = tr.begin("sim.Sweep", root, 0)
	results := sim.Sweep(jobs, 0)
	tr.end(id)
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("reference sweep: cell %s: %w", r.Job.Name, r.Err)
		}
		rec := sim.NewCellRecord(r)
		if g.ref[rec.ID], err = canonical(rec); err != nil {
			return nil, err
		}
		if r.Job.Scenario != sim.ScenarioBML {
			g.bounds = append(g.bounds, rec)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g.base = "http://" + ln.Addr().String()
	g.srv = &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { g.current.Load().ServeHTTP(w, r) }),
		ReadHeaderTimeout: 10 * time.Second,
	}
	g.served = make(chan struct{})
	go func() {
		defer close(g.served)
		_ = g.srv.Serve(ln) // returns http.ErrServerClosed from close
	}()
	g.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * runtime.NumCPU()},
		Timeout:   30 * time.Second,
	}
	return g, nil
}

func (g *gridSetup) close() {
	g.client.CloseIdleConnections()
	_ = g.srv.Close()
	<-g.served
	_ = os.RemoveAll(g.dir)
}

// pass serves the whole grid once: a fresh coordinator run with its own
// journal and a fresh cache holding the bound scenarios' cells, nproc
// claim workers following `bmlsim -claim 4`'s order, then `bmlsweep
// -serve`'s finish step. The bound cells hit the cache; the BML cells
// miss, are simulated and written back — a re-run after a BML config
// edit. Output checks run after the timed part.
// The pass's journal and cache files stay until the run ends: the
// filesystem may be mounted with online discard, and deleting them
// between passes would make the next pass's fsyncs pay for trimming the
// freed blocks.
func (g *gridSetup) pass(t *tracer) error {
	g.passes++
	name := fmt.Sprintf("pass-%d", g.passes)
	jpath := filepath.Join(g.dir, name+".jsonl")
	f, err := os.Create(jpath)
	if err != nil {
		return err
	}
	defer f.Close()
	journal := &timedJournal{f: f, tr: t}
	cache, err := sim.NewDirCache(filepath.Join(g.dir, "cache-"+name))
	for i := 0; err == nil && i < len(g.bounds); i++ {
		err = cache.Put(g.bounds[i])
	}
	if err != nil {
		return err
	}

	start := time.Now()
	ing := sim.NewIngest(g.jobs, sim.WithJournal(journal))
	// A fresh fleet per pass keeps the coordinator's memory from growing
	// with the number of passes a run fits in.
	fleet := sim.NewFleet()
	if err := fleet.AddRun(name, ing); err != nil {
		return err
	}
	g.current.Store(fleet)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := runtime.NumCPU()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		acked  []sim.CellRecord
		latMS  []float64
		errs   = make([]error, workers)
		hits   atomic.Int64
		misses atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cw := claimWorker{g: g, run: name, id: fmt.Sprintf("bench-%d", w), ing: ing, cache: cache, t: t, hits: &hits, misses: &misses}
			errs[w] = cw.loop(ctx, func(rec sim.CellRecord, ms float64) {
				mu.Lock()
				acked = append(acked, rec)
				latMS = append(latMS, ms)
				mu.Unlock()
			})
			if errs[w] != nil {
				cancel()
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	id := t.begin("sim.MergeCells", -1, 0)
	cells, stats, merr := sim.MergeCells(g.jobs, ing.Records())
	t.end(id)
	var csv bytes.Buffer
	id = t.begin("report.SweepCSV", -1, 0)
	cerr := report.SweepCSV(&csv, cells)
	t.end(id)
	wall := time.Since(start)

	if merr != nil || !stats.Complete() || len(stats.Unknown) > 0 {
		return fmt.Errorf("%s: merge incomplete (%d missing, %d unknown, %d failed): %v",
			name, len(stats.Missing), len(stats.Unknown), len(stats.Failed), merr)
	}
	if cerr != nil {
		return cerr
	}
	if err := g.checkRecords(name+" merged", cells); err != nil {
		return err
	}
	if err := checkJournal(jpath, acked, g); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if int(hits.Load()) != len(g.bounds) || int(misses.Load()) != len(g.jobs)-len(g.bounds) {
		return fmt.Errorf("%s: cache served %d cells and missed %d, want the %d bound cells served and the rest missed",
			name, hits.Load(), misses.Load(), len(g.bounds))
	}
	t.add("grid.passes", 1)
	t.add("sim.cache_hits", float64(hits.Load()))
	t.add("sim.cache_misses", float64(misses.Load()))
	t.add("sim.journal_syncs", float64(journal.syncs.Load()))
	t.add("sim.journal_bytes", float64(journal.bytes.Load()))
	g.latMS = append(g.latMS, latMS...)
	g.rates = append(g.rates, float64(len(latMS))/wall.Seconds())
	return nil
}

// checkRecords holds every record to the in-process reference sweep,
// bit for bit.
func (g *gridSetup) checkRecords(what string, recs []sim.CellRecord) error {
	if len(recs) != len(g.ref) {
		return fmt.Errorf("%s: %d records for a %d-cell grid", what, len(recs), len(g.ref))
	}
	for _, rec := range recs {
		b, err := canonical(rec)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, g.ref[rec.ID]) {
			return fmt.Errorf("%s: record %s differs from the in-process sweep", what, rec.ID)
		}
	}
	return nil
}

// checkJournal replays the pass's journal and requires exactly the
// acknowledged records, each once, with no truncated tail.
func checkJournal(path string, acked []sim.CellRecord, g *gridSetup) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, truncated, err := sim.ReadJournal(f)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if truncated {
		return errors.New("journal has a truncated tail")
	}
	want := make(map[string]bool, len(acked))
	for _, r := range acked {
		want[r.ID] = true
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		if !want[r.ID] || seen[r.ID] {
			return fmt.Errorf("journal record %s was not acknowledged exactly once", r.ID)
		}
		seen[r.ID] = true
	}
	if len(seen) != len(want) {
		return fmt.Errorf("journal replays %d of %d acknowledged cells", len(seen), len(want))
	}
	return g.checkRecords("journal", recs)
}

// claimWorker is one `bmlsim -claim` worker inside the benchmark process.
type claimWorker struct {
	g            *gridSetup
	run, id      string
	ing          *sim.Ingest
	cache        sim.CellCache
	t            *tracer
	hits, misses *atomic.Int64
}

// loop claims batches until the run is complete. Each cell is served from
// the cache or simulated (one sweep worker), written back, and posted;
// ack reports it with its latency from the claim that leased it.
func (c *claimWorker) loop(ctx context.Context, ack func(sim.CellRecord, float64)) error {
	t := c.t
	sink, err := sim.NewHTTPSink(c.g.base, sim.WithSinkClient(c.g.client), sim.WithSinkRun(c.run), sim.WithSinkWorker(c.id))
	if err != nil {
		return err
	}
	for ctx.Err() == nil {
		op := t.op()
		batch := t.begin("grid.batch", -1, op)
		claimed := time.Now()
		id := t.begin("sim.ClaimCells", batch, op)
		lr, err := sim.ClaimCells(c.g.client, c.g.base, c.run, "", c.id, claimBatch)
		t.end(id)
		t.add("sim.claims", 1)
		if err != nil {
			t.end(batch)
			return err
		}
		if len(lr.Cells) == 0 {
			t.end(batch)
			if lr.Complete {
				return nil
			}
			// Everything pending is leased to the other worker: wait for
			// the run to finish or the poll interval `bmlsim -claim` uses.
			t.add("sim.claims_empty", 1)
			waitStart := time.Now()
			select {
			case <-ctx.Done():
			case <-c.ing.Done():
			case <-time.After(leasePoll(lr.TTLSeconds)):
			}
			t.add("sim.lease_wait_ms", float64(time.Since(waitStart))/1e6)
			continue
		}
		emit := func(rec sim.CellRecord) error {
			if t != nil {
				// Timed on a copy: the JSON encoding Emit performs.
				var b bytes.Buffer
				id := t.begin("sim.WriteCellRecord", batch, op)
				err := sim.WriteCellRecord(&b, rec)
				t.end(id)
				if err != nil {
					return err
				}
			}
			id := t.begin("sim.HTTPSink.Emit", batch, op)
			err := sink.Emit(rec)
			t.end(id)
			if err != nil {
				return err
			}
			ack(rec, float64(time.Since(claimed))/1e6)
			return nil
		}
		var todo []sim.SweepJob
		for _, cid := range lr.Cells {
			job, ok := c.g.byID[cid]
			if !ok {
				t.end(batch)
				return fmt.Errorf("claimed cell %s is not in the grid", cid)
			}
			id := t.begin("sim.DirCache.Get", batch, op)
			rec, hit, err := c.cache.Get(cid)
			t.end(id)
			if err != nil {
				t.end(batch)
				return err
			}
			if !hit {
				c.misses.Add(1)
				todo = append(todo, job)
				continue
			}
			c.hits.Add(1)
			rec.Cached = true
			if err := emit(rec); err != nil {
				t.end(batch)
				return err
			}
		}
		mark := time.Now()
		err = sim.SweepStream(todo, 1, func(r sim.SweepResult) error {
			t.record("sim.SweepStream.cell", mark, time.Now(), batch, op)
			defer func() { mark = time.Now() }()
			if r.Err != nil {
				return fmt.Errorf("cell %s: %w", r.Job.Name, r.Err)
			}
			id := t.begin("sim.NewCellRecord", batch, op)
			rec := sim.NewCellRecord(r)
			t.end(id)
			id = t.begin("sim.DirCache.Put", batch, op)
			err := c.cache.Put(rec)
			t.end(id)
			if err != nil {
				return err
			}
			return emit(rec)
		})
		t.end(batch)
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// leasePoll is `bmlsim -claim`'s re-poll delay when every pending cell is
// leased elsewhere: a quarter of the lease TTL, at least 200 ms.
func leasePoll(ttlSeconds float64) time.Duration {
	return max(time.Duration(ttlSeconds/4*float64(time.Second)), 200*time.Millisecond)
}

// report adds the passes' own figures to the per-layer metrics.
func (g *gridSetup) report(layer map[string]float64) {
	layer["grid.cells_per_s"] = median(g.rates)
	layer["grid.cell_ms_p50"] = median(g.latMS)
	layer["grid.cell_ms_p90"] = percentile(g.latMS, 90)
}
