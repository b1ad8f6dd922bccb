package main

import (
	"strings"
	"testing"
)

// TestParseBenchOutputCollapsesCPUVariants pins which measurement a
// baseline entry's threshold applies to when one benchmark runs several
// times: the -GOMAXPROCS suffix is stripped, so every -cpu variant (and
// -count repeat) collapses to the snapshot's name, and the MEDIAN of the
// measurements is gated, so that one slow shot of three neither fails the
// gate alone nor hides behind two fast ones.
func TestParseBenchOutputCollapsesCPUVariants(t *testing.T) {
	out, err := parseBenchOutput(strings.NewReader(`
goos: linux
BenchmarkEngineDayTrace   	       1	   150000 ns/op
BenchmarkEngineDayTrace-2 	       1	   100000 ns/op
BenchmarkEngineDayTrace-4 	       1	   250000 ns/op	  512 B/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("variants did not collapse to one name: %v", out)
	}
	if got := out["BenchmarkEngineDayTrace"]; got != 150000 {
		t.Errorf("collapsed ns/op = %v, want 150000 (the median)", got)
	}
}

// With an even number of repeats the upper of the two middle measurements
// is gated: the conservative side.
func TestParseBenchOutputEvenCountTakesUpperMedian(t *testing.T) {
	out, err := parseBenchOutput(strings.NewReader(`
BenchmarkSweepGrid-2 	       1	   400 ns/op
BenchmarkSweepGrid-2 	       1	   100 ns/op
BenchmarkSweepGrid-2 	       1	   300 ns/op
BenchmarkSweepGrid-2 	       1	   200 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if got := out["BenchmarkSweepGrid"]; got != 300 {
		t.Errorf("median of 4 repeats = %v, want 300", got)
	}
}

// TestParseBenchOutputKeepsSubBenchmarksDistinct pins the other half of
// the naming contract: stripping the -GOMAXPROCS suffix must not merge
// sub-benchmarks into their parent — each sub-benchmark keeps its own
// name and needs its own baseline entry (and max_factor).
func TestParseBenchOutputKeepsSubBenchmarksDistinct(t *testing.T) {
	out, err := parseBenchOutput(strings.NewReader(`
BenchmarkFleetScaling/fleet=0-8  	       1	    90000 ns/op
BenchmarkFleetScaling/fleet=50-8 	       1	   700000 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkFleetScaling/fleet=0":  90000,
		"BenchmarkFleetScaling/fleet=50": 700000,
	}
	if len(out) != len(want) {
		t.Fatalf("sub-benchmarks merged: %v", out)
	}
	for name, ns := range want {
		if out[name] != ns {
			t.Errorf("%s = %v, want %v", name, out[name], ns)
		}
	}
}

// TestParseBenchOutputNumericSubBenchmarkTail documents a sharp edge the
// baseline must be written around: a sub-benchmark whose name ENDS in
// -<number> (e.g. /size-100) is indistinguishable from a GOMAXPROCS
// suffix on an unsuffixed line, so the tail is stripped. With the usual
// -cpu suffix present the name survives intact; baseline entries must use
// the suffixless spelling go test emits on multi-core runners.
func TestParseBenchOutputNumericSubBenchmarkTail(t *testing.T) {
	out, err := parseBenchOutput(strings.NewReader(`
BenchmarkGrow/size-100-8 	       1	    11000 ns/op
BenchmarkGrow/size-200-8 	       1	    22000 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkGrow/size-100": 11000,
		"BenchmarkGrow/size-200": 22000,
	}
	for name, ns := range want {
		if out[name] != ns {
			t.Errorf("%s = %v, want %v (full map: %v)", name, out[name], ns, out)
		}
	}
}

// TestParseBenchOutputIgnoresNoise pins that non-benchmark lines, names
// without measurements, and lines missing the ns/op unit never produce
// entries, while a malformed number on a real benchmark line is a hard
// error (a half-written results file must fail the gate, not pass it).
func TestParseBenchOutputIgnoresNoise(t *testing.T) {
	out, err := parseBenchOutput(strings.NewReader(`
goos: linux
goarch: amd64
pkg: repro
BenchmarkShort-8
ok  	repro	1.201s
BenchmarkReal-8 	       1	    5000 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out["BenchmarkReal"] != 5000 {
		t.Errorf("noise leaked into results: %v", out)
	}

	if _, err := parseBenchOutput(strings.NewReader(
		"BenchmarkBad-8 \t 1 \t not-a-number ns/op\n")); err == nil {
		t.Error("malformed ns/op value did not fail the parse")
	}
}
