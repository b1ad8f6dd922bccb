package qos

import (
	"math"
	"testing"
)

func TestZeroValueReady(t *testing.T) {
	var tr Tracker
	if tr.Availability() != 1 {
		t.Errorf("empty tracker availability = %v, want 1", tr.Availability())
	}
	if tr.ViolationRatio() != 0 || tr.LostRequests() != 0 || tr.Seconds() != 0 {
		t.Error("zero value not clean")
	}
}

func TestObserveAccounting(t *testing.T) {
	var tr Tracker
	if err := tr.Observe(100, 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(100, 60, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if tr.Seconds() != 3 {
		t.Errorf("Seconds = %v", tr.Seconds())
	}
	if tr.ViolationSeconds() != 1 {
		t.Errorf("ViolationSeconds = %v, want 1", tr.ViolationSeconds())
	}
	if tr.LostRequests() != 40 {
		t.Errorf("LostRequests = %v, want 40", tr.LostRequests())
	}
	if tr.TotalRequests() != 200 {
		t.Errorf("TotalRequests = %v, want 200", tr.TotalRequests())
	}
	if got := tr.Availability(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Availability = %v, want 0.8", got)
	}
	if got := tr.ViolationRatio(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("ViolationRatio = %v, want 1/3", got)
	}
}

func TestObserveValidation(t *testing.T) {
	var tr Tracker
	if err := tr.Observe(10, 5, -1); err == nil {
		t.Error("negative dt accepted")
	}
	if err := tr.Observe(-1, 0, 1); err == nil {
		t.Error("negative offered accepted")
	}
	if err := tr.Observe(1, -1, 1); err == nil {
		t.Error("negative served accepted")
	}
	if err := tr.Observe(1, 2, 1); err == nil {
		t.Error("served > offered accepted")
	}
	if err := tr.Observe(math.NaN(), 0, 1); err == nil {
		t.Error("NaN offered accepted")
	}
	if tr.Seconds() != 0 {
		t.Error("failed observations mutated state")
	}
}

func TestObserveToleratesFloatNoise(t *testing.T) {
	var tr Tracker
	// served exceeding offered by under 1e-9 (float noise) must pass.
	if err := tr.Observe(1.0, 1.0+1e-12, 1); err != nil {
		t.Errorf("tiny float excess rejected: %v", err)
	}
}

func TestMerge(t *testing.T) {
	var a, b Tracker
	a.Observe(100, 100, 1)
	b.Observe(100, 0, 2)
	a.Merge(&b)
	if a.Seconds() != 3 {
		t.Errorf("merged seconds = %v", a.Seconds())
	}
	if a.LostRequests() != 200 {
		t.Errorf("merged lost = %v", a.LostRequests())
	}
	if a.ViolationSeconds() != 2 {
		t.Errorf("merged violations = %v", a.ViolationSeconds())
	}
}

func TestString(t *testing.T) {
	var tr Tracker
	tr.Observe(10, 8, 1)
	if tr.String() == "" {
		t.Error("empty String")
	}
}

// A kernel that folds intervals into a Fold with Observe's documented
// additions and writes it back with CommitFold leaves the tracker
// bit-identical to Observe calls.
func TestFoldMatchesObserve(t *testing.T) {
	intervals := [][3]float64{{0.1, 0.1, 3}, {1e6, 999999.5, 1}, {7.3, 7.3 - 1e-10, 2}, {1e-3, 0, 5}, {42, 42, 1}}
	var want, got Tracker
	var f Fold
	for i := 0; i < 1000; i++ {
		for _, iv := range intervals {
			if err := want.Observe(iv[0], iv[1], iv[2]); err != nil {
				t.Fatal(err)
			}
		}
		// Write back every few intervals, as a day-span kernel does.
		for _, iv := range intervals {
			offered, served, dt := iv[0], iv[1], iv[2]
			f.Seconds += dt
			f.Demand.Add(offered * dt)
			f.Served.Add(served * dt)
			if offered-served > Slack {
				f.ViolationSeconds += dt
			}
		}
		got.CommitFold(f)
	}
	if got != want {
		t.Errorf("folded tracker %+v differs from observed %+v", got, want)
	}
	if want.ViolationSeconds() != 6000 {
		t.Errorf("violation seconds = %v, want 6000", want.ViolationSeconds())
	}
}
