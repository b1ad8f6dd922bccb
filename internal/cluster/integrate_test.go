package cluster

// Property test for the demand fold: on random fleets and demand windows,
// StartFold+Fold+Commit must charge the energy that per-sample
// Distribute+Tick charges to a relative 1e-12, split it the same way into
// idle and dynamic energy, and count exactly the same QoS violation
// seconds. The windows are built to hit the fold's block classification
// from every side: blocks that straddle a band edge, demand above the On
// capacity or within qos.Slack of it, zeros, a single pool, windows shorter
// than a block, and quantized plateaus sitting exactly on band edges. Each
// window sits at a random offset inside a longer trace, so that its span
// [from, to) starts and ends off the summary's block grid, often inside a
// single block.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/power"
	"repro/internal/qos"
	"repro/internal/trace"
)

// foldRelTol is the relative agreement the fold owes per-sample
// integration: the two differ only in rounding.
const foldRelTol = 1e-12

// foldTwins builds two settled clusters with the same random On
// configuration: one to drive sample by sample, one to fold.
func foldTwins(t *testing.T, rng *rand.Rand, singlePool bool) (oracle, folded *Cluster) {
	t.Helper()
	catalog := randomClusterCatalog(rng)
	target := make(map[string]int)
	only := rng.Intn(len(catalog))
	for i, a := range catalog {
		switch {
		case singlePool && i != only:
		case singlePool:
			target[a.Name] = 1 + rng.Intn(6)
		default:
			target[a.Name] = rng.Intn(7)
		}
	}
	for _, c := range []**Cluster{&oracle, &folded} {
		var err error
		if *c, err = New(catalog); err != nil {
			t.Fatal(err)
		}
		if _, _, err := (*c).SetTarget(target); err != nil {
			t.Fatal(err)
		}
		settle(t, *c)
	}
	return oracle, folded
}

// bandEdges returns the fleet's band edges in dispatch order: the top of
// every On pool's band of cumulative capacity, the last being the
// capacity.
func bandEdges(c *Cluster) []float64 {
	var edges []float64
	lo := 0.0
	for _, p := range c.poolList {
		if n := len(p.on); n > 0 {
			lo += float64(n) * p.arch.MaxPerf
			edges = append(edges, lo)
		}
	}
	return edges
}

// foldWindow draws a demand window of the given kind over a fleet with
// the given band edges.
func foldWindow(rng *rand.Rand, kind string, edges []float64, n int) []float64 {
	capacity := 0.0
	if len(edges) > 0 {
		capacity = edges[len(edges)-1]
	}
	top := max(capacity, 10)
	edge := func() float64 {
		if len(edges) == 0 {
			return top
		}
		return edges[rng.Intn(len(edges))]
	}
	w := make([]float64, n)
	switch kind {
	case "straddle": // noise around a band edge
		base, amp := edge(), top*(0.001+0.2*rng.Float64())
		for i := range w {
			w[i] = max(0, base+amp*(rng.Float64()-0.5))
		}
	case "above": // demand above the On capacity, some of it by less than qos.Slack
		for i := range w {
			w[i] = top * (0.9 + 0.4*rng.Float64())
			if rng.Intn(8) == 0 {
				w[i] = capacity + qos.Slack*rng.Float64()
			}
		}
	case "brim": // within qos.Slack of the capacity, on both sides
		for i := range w {
			w[i] = max(0, capacity+qos.Slack*(2*rng.Float64()-1))
		}
	case "zeros":
		for i := range w {
			if rng.Intn(3) > 0 {
				w[i] = top * 1.2 * rng.Float64()
			}
		}
	case "plateaus": // quantized levels, often exactly on a band edge
		for i := 0; i < n; {
			level := top * 1.1 * rng.Float64()
			switch rng.Intn(4) {
			case 0:
				level = edge()
			case 1:
				level = 0
			}
			for hold := 1 + rng.Intn(200); hold > 0 && i < n; hold-- {
				w[i] = level
				i++
			}
		}
	default:
		panic(kind)
	}
	return w
}

func TestFoldMatchesPerSampleDispatch(t *testing.T) {
	kinds := []string{"straddle", "above", "brim", "zeros", "plateaus"}
	closeRel := func(got, want float64) bool {
		return math.Abs(got-want) <= foldRelTol*max(math.Abs(want), 1)
	}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kind := kinds[rng.Intn(len(kinds))]
		single := rng.Intn(5) == 0
		n := 1 + rng.Intn(3*trace.BlockSize*8)
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(trace.BlockSize-1) // shorter than a block
		}
		from := rng.Intn(2 * trace.BlockSize)
		label := fmt.Sprintf("seed=%d %s single=%v n=%d from=%d", seed, kind, single, n, from)
		oracle, folded := foldTwins(t, rng, single)
		w := foldWindow(rng, kind, bandEdges(oracle), n)
		// The span [from, from+n) of a trace with other samples around it.
		vals := foldWindow(rng, kind, bandEdges(oracle), from+n+rng.Intn(2*trace.BlockSize))
		copy(vals[from:], w)
		blocks := trace.NewBlocks(trace.MustNew(vals))

		// Per-sample oracle: Distribute+Tick one second at a time.
		before := oracle.Breakdown()
		var wantE, wantDemand, wantServed power.Accumulator
		wantViolation := 0.0
		for _, d := range w {
			served, err := oracle.Distribute(d)
			if err != nil {
				t.Fatal(err)
			}
			e, err := oracle.Tick(1)
			if err != nil {
				t.Fatal(err)
			}
			wantE.Add(float64(e))
			wantDemand.Add(d)
			wantServed.Add(served)
			if d-served > qos.Slack {
				wantViolation++
			}
		}
		wantB := oracle.Breakdown()

		f := folded.StartFold()
		demand, served, violation := f.Fold(blocks, from, from+n)
		e, err := f.Commit(w[len(w)-1], float64(len(w)))
		if err != nil {
			t.Fatal(err)
		}
		gotB := folded.Breakdown()

		if !closeRel(float64(e), wantE.Sum()) {
			t.Errorf("%s: energy %v, per-sample %v", label, e, wantE.Sum())
		}
		if !closeRel(float64(gotB.Idle-before.Idle), float64(wantB.Idle-before.Idle)) ||
			!closeRel(float64(gotB.Dynamic-before.Dynamic), float64(wantB.Dynamic-before.Dynamic)) {
			t.Errorf("%s: breakdown %+v, per-sample %+v", label, gotB, wantB)
		}
		if !closeRel(demand, wantDemand.Sum()) || !closeRel(served, wantServed.Sum()) {
			t.Errorf("%s: demand/served %v/%v, per-sample %v/%v", label, demand, served, wantDemand.Sum(), wantServed.Sum())
		}
		if violation != wantViolation {
			t.Errorf("%s: %v violation seconds, per-sample %v", label, violation, wantViolation)
		}
		// Commit leaves the machines exactly as per-sample dispatch does.
		if got, want := folded.CurrentPower(), oracle.CurrentPower(); got != want {
			t.Errorf("%s: end-of-span power %v, per-sample %v", label, got, want)
		}
	}
}

// A span that never leaves one band folds every whole block in closed
// form; a block that crosses a band edge is folded sample by sample, and
// SlowFoldSamples counts it. FoldSamplesRead counts those samples and the
// samples of a span's partial edge blocks, which are read to summarize
// them.
func TestFoldCountsSlowSamples(t *testing.T) {
	c := mustCluster(t)
	if _, _, err := c.SetTarget(map[string]int{"big": 2, "little": 3}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	read, slow := 0, 0
	fold := func(vals []float64, from, to int) (int, int) {
		f := c.StartFold()
		f.Fold(trace.NewBlocks(trace.MustNew(vals)), from, to)
		if _, err := f.Commit(vals[to-1], float64(to-from)); err != nil {
			t.Fatal(err)
		}
		r, s := c.FoldSamplesRead()-read, c.SlowFoldSamples()-slow
		read, slow = c.FoldSamplesRead(), c.SlowFoldSamples()
		return r, s
	}
	steady := make([]float64, 3*trace.BlockSize)
	for i := range steady {
		steady[i] = 50 + float64(i%7) // inside the big pool's band [0, 200)
	}
	for _, sc := range []struct {
		name           string
		vals           []float64
		from, to       int
		wantRead, slow int
	}{
		{"steady aligned span", steady, 0, len(steady), 0, 0},
		{"steady unaligned span", steady, 3, len(steady) - 5, trace.BlockSize - 3 + trace.BlockSize - 5, 0},
		{"span inside one block", steady, 70, 90, 20, 0},
	} {
		if r, s := fold(sc.vals, sc.from, sc.to); r != sc.wantRead || s != sc.slow {
			t.Fatalf("%s: %d samples read, %d folded one at a time; want %d, %d", sc.name, r, s, sc.wantRead, sc.slow)
		}
	}
	crossing := append([]float64(nil), steady...)
	crossing[trace.BlockSize+3] = 205 // the big pool's edge is 200
	if r, s := fold(crossing, 0, len(crossing)); r != trace.BlockSize || s != trace.BlockSize {
		t.Fatalf("one crossing block: %d samples read, %d folded one at a time; want %d each", r, s, trace.BlockSize)
	}
	if r, s := fold(crossing, trace.BlockSize+1, trace.BlockSize+9); r != 8 || s != 8 {
		t.Fatalf("crossing partial block: %d samples read, %d folded one at a time; want 8 each", r, s)
	}
}
