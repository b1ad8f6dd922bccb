package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Parent is the index of the
// enclosing span (-1 for a root); Op groups the spans of one operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer is the untraced run: every method is a no-op, so workload code
// calls it unconditionally.
type tracer struct {
	t0     time.Time
	nextOp atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

// op allocates a fresh operation id (0 from a nil tracer).
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds an already-measured interval as a closed span — for
// intervals whose start is only known in hindsight (a cell's compute time
// runs from the previous emit to this one).
func (t *tracer) record(name string, start, end time.Time, parent int, op int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// add bumps a counter taken at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// snapshot returns the closed spans and a copy of the counters.
func (t *tracer) snapshot() ([]span, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]span, 0, len(t.spans))
	remap := make([]int, len(t.spans))
	for i, s := range t.spans {
		remap[i] = -1
		if s.End < 0 {
			continue
		}
		if s.Parent >= 0 {
			s.Parent = remap[s.Parent]
		}
		remap[i] = len(spans)
		spans = append(spans, s)
	}
	counts := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	return spans, counts
}

// durations returns the wall durations, in ms, of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name       string
	Calls      int
	TotalMS    float64
	SelfMS     float64
	SelfP50MS  float64
	SelfMaxMS  float64
	ShareOfAll float64 // self time over all spans' self time
}

// layerTable aggregates self time by span name, largest self time first.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	totals := map[string]float64{}
	var all float64
	for i, s := range spans {
		ms := float64(self[i]) / 1e6
		byName[s.Name] = append(byName[s.Name], ms)
		totals[s.Name] += float64(s.End-s.Start) / 1e6
		all += ms
	}
	var rows []layerRow
	for name, selfs := range byName {
		r := layerRow{Name: name, Calls: len(selfs), TotalMS: totals[name], SelfP50MS: median(selfs)}
		for _, v := range selfs {
			r.SelfMS += v
			r.SelfMaxMS = max(r.SelfMaxMS, v)
		}
		if all > 0 {
			r.ShareOfAll = r.SelfMS / all
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].SelfMS != rows[b].SelfMS {
			return rows[a].SelfMS > rows[b].SelfMS
		}
		return rows[a].Name < rows[b].Name
	})
	return rows
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-34s %7s %11s %11s %10s %10s %6s\n", "layer (span)", "calls", "total_ms", "self_ms", "self_p50", "self_max", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %7d %11.3f %11.3f %10.4f %10.4f %5.1f%%\n",
			r.Name, r.Calls, r.TotalMS, r.SelfMS, r.SelfP50MS, r.SelfMaxMS, 100*r.ShareOfAll)
	}
}

// writeSpans writes the spans and counters as one JSON document.
func writeSpans(path string, spans []span, counts map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{spans, counts}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
