package main

import (
	"math"
	"testing"
	"time"
)

// fakeClock advances only when told: SleepUntil jumps forward, and a
// request's service time is added by the test's do function.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	ms := time.Millisecond
	dues := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 100 * ms}
	// Every request takes 15 ms against 10 ms spacing: one client falls
	// behind by 5 ms per request until the gap before the last one.
	samples := openLoop(clk, start, dues, 1, func(int) bool {
		clk.now = clk.now.Add(15 * ms)
		return true
	})
	wantLat := []float64{15, 20, 25, 30, 15}
	wantLate := []float64{0, 5, 10, 15, 0}
	for i, s := range samples {
		if s.latencyMs() != wantLat[i] || s.lateMs() != wantLate[i] {
			t.Errorf("request %d: latency %g late %g; want %g, %g", i, s.latencyMs(), s.lateMs(), wantLat[i], wantLate[i])
		}
	}
	st := summarize(100, samples)
	if st.BacklogMs != 0 || st.N != 5 || st.Failed != 0 {
		t.Errorf("summary %+v", st)
	}
	// Without the idle gap the backlog at the end of the step is visible.
	clk.now = start
	samples = openLoop(clk, start, dues[:4], 1, func(int) bool {
		clk.now = clk.now.Add(15 * ms)
		return true
	})
	if st := summarize(100, samples); st.BacklogMs != 15 {
		t.Errorf("backlog %g ms, want 15", st.BacklogMs)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	dues := make([]time.Duration, 200)
	for i := range dues {
		dues[i] = time.Duration(i) * time.Millisecond
	}
	samples := openLoop(clk, clk.now, dues, 1, func(i int) bool { return i%50 != 0 })
	if st := summarize(1000, samples); st.Failed != 4 {
		t.Fatalf("failed %d, want 4", st.Failed)
	}
	o := slo{P99Ms: 50, MaxFailShare: 0.01, MaxBacklogMs: 50}
	if o.meets(summarize(1000, samples)) {
		t.Error("a 2% failure share met a 1% SLO")
	}
}

func TestRampStopsAtFirstMiss(t *testing.T) {
	o := slo{P99Ms: 50, MaxFailShare: 0.01, MaxBacklogMs: 50}
	p99 := map[int]float64{1: 10, 2: 20, 3: 80, 4: 5} // step 4 would pass, but is never run
	var ran []int
	best, steps := ramp(200, 1.25, 6, o, func(k int, rate float64) stepStats {
		ran = append(ran, k)
		return stepStats{Rate: rate, N: 1000, P99: p99[k]}
	})
	if len(ran) != 3 || len(steps) != 3 {
		t.Fatalf("ran steps %v, want 1..3", ran)
	}
	if math.Abs(best-200*1.25*1.25) > 1e-9 {
		t.Errorf("best %g, want %g", best, 200*1.25*1.25)
	}
	// The generator falling behind misses the SLO even at low latency.
	_, steps = ramp(200, 1.25, 6, o, func(k int, rate float64) stepStats {
		return stepStats{Rate: rate, N: 1000, P99: 5, BacklogMs: 60}
	})
	if len(steps) != 1 {
		t.Errorf("backlogged first step did not stop the ramp (%d steps)", len(steps))
	}
	// No miss within the step budget: every step runs.
	best, steps = ramp(200, 1.25, 4, o, func(k int, rate float64) stepStats {
		return stepStats{Rate: rate, N: 1000, P99: 1}
	})
	if len(steps) != 4 || best != steps[3].Rate {
		t.Errorf("ran %d steps, best %g", len(steps), best)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "core", Parent: -1, Start: 0, End: 100},
		{Name: "lang", Parent: 0, Start: 0, End: 10},
		{Name: "translate", Parent: 0, Start: 10, End: 60},
		{Name: "prob", Parent: 0, Start: 55, End: 90}, // overlaps translate by 5
	}
	self := selfTimes(spans)
	if got := self["core"] * 1e6; got != 10 {
		t.Errorf("core self %g ns, want 10 (100 minus the 90 covered by children)", got)
	}
	if rootTotalMs(spans)*1e6 != 100 {
		t.Errorf("root total %g", rootTotalMs(spans))
	}
	var tr *tracer
	if id := tr.begin("x", 0, -1); id != -1 {
		t.Error("nil tracer recorded a span")
	}
	tr.end(-1)
}
