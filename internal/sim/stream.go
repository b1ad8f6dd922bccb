package sim

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// This file is the streaming half of distributed sweeps. SweepStream runs
// a (possibly sharded) grid through the worker pool and hands each
// completed cell to an emit callback instead of accumulating a result
// slice, so a worker process's peak memory is bounded by the cells in
// flight, not the grid. CellRecord is the self-describing JSONL wire
// format those cells leave the process in; MergeCells is the coordinator
// side that validates a set of streamed records against the expected grid,
// deduplicates re-run cells, and restores grid order for reporting.

// CellSchema is the version of the CellRecord/cell-ID schema this build
// writes. v1 (records with no schema field) identified cells by
// scenario|name|fleet|trace; v2 added the config fingerprint — cell IDs
// end in "|cfg=<hash>" and records carry config/config_hash — so that BML
// configuration ablations are grid axes. v3 keeps v2's cell IDs and marks
// results of the affine fold: the BML demand fold and the upper-bound legs
// integrate demand sums in closed form (profile.Arch.PowerAt is affine in
// load), which moves some result bits by rounding. v4 keeps the IDs too
// and marks results read from the per-trace block summary (trace.Blocks):
// demand sums come from absolute-aligned 64-sample block sums, another
// summation order. Cell IDs carry no code version, so without a bump an
// older cache or journal would serve the old bits beside fresh ones. Each bump is deliberate and hard: a record of
// another schema is rejected with an explanatory error by MergeCells, the
// caches and the ingest coordinator, never silently treated as a foreign
// or an equal cell.
const CellSchema = 4

// CellRecord is one completed sweep cell in self-describing form: enough
// identity to validate it against a grid re-enumerated elsewhere (schema
// version, cell ID, scenario, fleet scale, trace fingerprint, config
// fingerprint) plus the full result payload (energies in joules, scheduler
// counters, QoS, wall time). Records are exchanged as JSON Lines; float64
// values round-trip exactly through encoding/json, so merged results are
// bit-identical to in-process ones.
type CellRecord struct {
	Schema     int     `json:"schema"`
	ID         string  `json:"id"`
	Name       string  `json:"name,omitempty"`
	Scenario   string  `json:"scenario"`
	FleetScale float64 `json:"fleet_scale"`
	TraceHash  string  `json:"trace_hash"`
	TraceLen   int     `json:"trace_len"`
	TraceName  string  `json:"trace_name,omitempty"`
	Config     string  `json:"config,omitempty"`
	ConfigHash string  `json:"config_hash"`

	TotalJ float64   `json:"total_J"`
	DailyJ []float64 `json:"daily_J,omitempty"`

	Decisions  int     `json:"decisions,omitempty"`
	SwitchOns  int     `json:"switch_ons,omitempty"`
	SwitchOffs int     `json:"switch_offs,omitempty"`
	Skipped    int     `json:"skipped,omitempty"`
	MigrationJ float64 `json:"migration_J,omitempty"`

	Availability     float64 `json:"availability"`
	ViolationSeconds float64 `json:"violation_s,omitempty"`
	LostRequests     float64 `json:"lost_requests,omitempty"`

	TransitionJ float64 `json:"transition_J,omitempty"`
	IdleJ       float64 `json:"idle_J,omitempty"`
	DynamicJ    float64 `json:"dynamic_J,omitempty"`

	WallMS float64 `json:"wall_ms"`
	Err    string  `json:"error,omitempty"`

	// Cached marks a record that a particular run served from a result
	// cache instead of simulating (see CellCache). It is transport
	// metadata, not part of the result: caches store records with the flag
	// stripped, merges ignore it, and reports only use it for hit-rate
	// accounting — so a warm run's merged output is byte-identical to the
	// cold run that populated the cache.
	Cached bool `json:"cached,omitempty"`
}

// NewCellRecord flattens a SweepResult into its wire form.
func NewCellRecord(r SweepResult) CellRecord {
	fs := r.Job.FleetScale
	if fs == 0 {
		fs = 1
	}
	rec := CellRecord{
		Schema:     CellSchema,
		ID:         CellID(r.Job),
		Name:       r.Job.Name,
		Scenario:   string(r.Job.Scenario),
		FleetScale: fs,
		TraceHash:  fmt.Sprintf("%016x", TraceFingerprint(r.Job.Trace)),
		TraceLen:   traceLen(r.Job.Trace),
		TraceName:  r.Job.TraceName,
		Config:     r.Job.ConfigName,
		ConfigHash: fmt.Sprintf("%016x", ConfigFingerprint(r.Job.BML)),
		WallMS:     float64(r.Wall) / float64(time.Millisecond),
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
		return rec
	}
	res := r.Result
	rec.TotalJ = float64(res.TotalEnergy)
	rec.DailyJ = make([]float64, len(res.DailyEnergy))
	for i, e := range res.DailyEnergy {
		rec.DailyJ[i] = float64(e)
	}
	rec.Decisions = res.Decisions
	rec.SwitchOns = res.SwitchOns
	rec.SwitchOffs = res.SwitchOffs
	rec.Skipped = res.Skipped
	rec.MigrationJ = float64(res.MigrationEnergy)
	rec.Availability = res.QoS.Availability()
	rec.ViolationSeconds = res.QoS.ViolationSeconds()
	rec.LostRequests = res.QoS.LostRequests()
	rec.TransitionJ = float64(res.Breakdown.Transition)
	rec.IdleJ = float64(res.Breakdown.Idle)
	rec.DynamicJ = float64(res.Breakdown.Dynamic)
	return rec
}

// WriteCellRecord appends rec to w as one JSON line.
func WriteCellRecord(w io.Writer, rec CellRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadCellRecords parses a JSONL stream of cell records, ignoring blank
// lines (a truncated final line from a crashed worker is reported as an
// error with its line number).
func ReadCellRecords(r io.Reader) ([]CellRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var out []CellRecord
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec CellRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("sim: cell record line %d: %w", line, err)
		}
		if rec.ID == "" {
			return nil, fmt.Errorf("sim: cell record line %d: missing id", line)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ErrStopStream is the graceful-drain signal for SweepStream: when emit
// returns it (alone or wrapped), no further cells are started, but the
// cells already in flight still run to completion and are emitted — so a
// worker interrupted by a shutdown signal flushes everything it has
// already paid to compute instead of discarding it. SweepStream returns
// ErrStopStream (or the real error, if a later emit fails outright).
var ErrStopStream = errors.New("sim: stop streaming new cells")

// ReadJournal parses a coordinator journal — JSONL cell records the
// coordinator itself appended — tolerating exactly one malformed FINAL
// line: a coordinator killed mid-append leaves a truncated tail, and the
// journal's whole purpose is recovering from such deaths, so the partial
// line is dropped (reported via truncated) rather than refusing to
// resume. A malformed line anywhere else is real corruption and still an
// error. Use ReadCellRecords for worker output files, where a truncated
// line must be surfaced so the missing cell gets re-run from diagnostics.
func ReadJournal(r io.Reader) (recs []CellRecord, truncated bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if pendingErr != nil {
			// The malformed line was not the last one: corruption.
			return nil, false, pendingErr
		}
		var rec CellRecord
		if jerr := json.Unmarshal(raw, &rec); jerr != nil {
			pendingErr = fmt.Errorf("sim: journal line %d: %w", line, jerr)
			continue
		}
		if rec.ID == "" {
			return nil, false, fmt.Errorf("sim: journal line %d: missing id", line)
		}
		recs = append(recs, rec)
	}
	if serr := sc.Err(); serr != nil {
		return nil, false, serr
	}
	return recs, pendingErr != nil, nil
}

// SweepStream executes jobs across a bounded worker pool, handing each
// SweepResult to emit as soon as its cell completes (completion order, not
// grid order). Emit calls are serialized, so an emit that writes JSONL to
// a file needs no locking of its own. Nothing is retained after emit
// returns: the stream's working set is the cells currently in flight,
// which is what lets one process chew through fleet-scaled grids far
// larger than memory. Predictors and fleet-scaled trace copies are shared
// across the stream's cells (one predictor per distinct trace × window ×
// spec, not per cell). An emit error cancels the
// remaining cells and is returned — except ErrStopStream, which drains
// in-flight cells through emit first (graceful stop). Individual cell
// failures are delivered in their SweepResult like Sweep does.
func SweepStream(jobs []SweepJob, workers int, emit func(SweepResult) error) error {
	return sweepStream(jobs, workers, emit, newSweepCache())
}

// sweepStream is SweepStream with the cells sharing cache.
func sweepStream(jobs []SweepJob, workers int, emit func(SweepResult) error, cache *sweepCache) error {
	if emit == nil {
		return errors.New("sim: SweepStream needs an emit callback")
	}
	if len(jobs) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		emitErr  error
		stop     = make(chan struct{})
		stopOnce sync.Once
	)
	stopFeed := func() { stopOnce.Do(func() { close(stop) }) }
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := time.Now()
				res, err := jobs[i].runWith(cache)
				r := SweepResult{Job: jobs[i], Index: i, Result: res, Err: err, Wall: time.Since(start)}
				mu.Lock()
				if emitErr == nil || errors.Is(emitErr, ErrStopStream) {
					if eerr := emit(r); eerr != nil {
						// A real failure records itself (and upgrades a
						// graceful stop); ErrStopStream never downgrades a
						// real failure.
						if emitErr == nil || !errors.Is(eerr, ErrStopStream) {
							emitErr = eerr
						}
						stopFeed()
					}
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-stop:
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return emitErr
}

// ErrCellSchema marks a record written under a different cell-ID schema
// than this build's — a condition no amount of re-dispatching or retrying
// fixes, which callers (the bmlsweep exit-code contract) must distinguish
// from an incomplete grid. Test with errors.Is.
var ErrCellSchema = errors.New("sim: cell schema mismatch")

// CheckCellSchema rejects records written under a different cell-ID schema
// than this build's. A v1 record's IDs lack the cfg= component, so letting
// one into a merge would misreport every cell as foreign; a v2 record has
// this build's IDs but results from before the affine fold, so letting one
// in would mix old bits with fresh ones. The explicit error (wrapping
// ErrCellSchema) says what actually happened and what to do about it.
func CheckCellSchema(rec CellRecord) error {
	if rec.Schema == CellSchema {
		return nil
	}
	v := rec.Schema
	if v == 0 {
		v = 1 // records predating the schema field
	}
	return fmt.Errorf("%w: record %s: schema v%d, this build expects v%d (v1 cell IDs lack the config fingerprint and v2 results predate the affine fold: re-run the workers from this build, or keep old journals, caches and outputs with the build that wrote them)",
		ErrCellSchema, rec.ID, v, CellSchema)
}

// MergeStats describes what MergeCells saw: how many records arrived, how
// many were duplicate re-runs of the same cell, and which expected cells
// are missing, foreign to the grid, or failed.
type MergeStats struct {
	Records    int
	Duplicates int
	Missing    []string // expected cell IDs with no record
	Unknown    []string // record IDs that are not cells of the expected grid
	Failed     []string // cell IDs whose only records carry errors
}

// Complete reports whether the merge covered the whole grid cleanly.
func (s MergeStats) Complete() bool {
	return len(s.Missing) == 0 && len(s.Unknown) == 0 && len(s.Failed) == 0
}

// MergeCells validates streamed records against the expected grid and
// returns one record per expected cell, restored to grid order. Re-run
// cells (the same cell ID appearing in several inputs, e.g. a retried CI
// matrix job) are deduplicated with a canonical ordering: the FIRST
// successful record in input order wins — a later success, even one with
// a different wall time or daily breakdown from a re-run, never replaces
// it, so merged output is a deterministic function of the record
// sequence — and a successful record always replaces a failed one. The
// Ingest coordinator applies the same rule, so file merges and network
// ingests of the same records agree. The merge fails — with
// the full accounting in MergeStats — if any expected cell is missing or
// only failed, or if a record belongs to a different grid (wrong trace,
// scenario set, or fleet axis).
func MergeCells(expected []SweepJob, records []CellRecord) ([]CellRecord, MergeStats, error) {
	ids := CellIDs(expected)
	want := make(map[string]int, len(ids))
	for i, id := range ids {
		want[id] = i
	}
	stats := MergeStats{Records: len(records)}
	byID := make(map[string]CellRecord, len(ids))
	for _, rec := range records {
		if err := CheckCellSchema(rec); err != nil {
			// A mixed-schema record set is a hard error, not a foreign
			// record: v1 IDs would otherwise all report as Unknown.
			return nil, stats, err
		}
		if _, ok := want[rec.ID]; !ok {
			stats.Unknown = append(stats.Unknown, rec.ID)
			continue
		}
		prev, seen := byID[rec.ID]
		if !seen {
			byID[rec.ID] = rec
			continue
		}
		stats.Duplicates++
		if prev.Err != "" && rec.Err == "" {
			byID[rec.ID] = rec
		}
	}
	out := make([]CellRecord, 0, len(ids))
	for _, id := range ids {
		rec, ok := byID[id]
		switch {
		case !ok:
			stats.Missing = append(stats.Missing, id)
		case rec.Err != "":
			stats.Failed = append(stats.Failed, id)
		default:
			out = append(out, rec)
		}
	}
	if !stats.Complete() {
		return out, stats, fmt.Errorf("sim: merge incomplete: %d/%d cells ok (%d missing, %d failed, %d foreign records)",
			len(out), len(ids), len(stats.Missing), len(stats.Failed), len(stats.Unknown))
	}
	return out, stats, nil
}
