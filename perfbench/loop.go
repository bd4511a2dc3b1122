package main

import (
	"runtime"
	"sync"
	"time"
)

// clock abstracts time for the open-loop generator so its accounting can
// be tested without wall-clock sleeps.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// spinWindow is how long before a request is due the generator stops
// sleeping and spins (yielding to every runnable goroutine) instead. A
// sleeping generator on an idle virtual CPU wakes up to several
// milliseconds late, and that lateness — the generator's, not the
// server's — would be charged to every request timed from its due time.
const spinWindow = 10 * time.Millisecond

func (wallClock) SleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > spinWindow:
			time.Sleep(d - spinWindow)
		default:
			runtime.Gosched()
		}
	}
}

// sample is one open-loop request's timing. Latency is taken from Due, not
// from Sent: a request that waited for a free connection (or for a late
// generator) carries that wait, as a user arriving on schedule would.
type sample struct {
	Due, Sent, Done time.Time
	OK              bool
}

func (s sample) latencyMs() float64 { return float64(s.Done.Sub(s.Due)) / 1e6 }
func (s sample) lateMs() float64    { return float64(s.Sent.Sub(s.Due)) / 1e6 }

// openLoop issues len(dues) requests, request i due at start+dues[i], over
// at most clients concurrent connections. Each client takes the next
// request in due order, waits until it is due, and sends it; when every
// client is busy, due requests queue in order. do(i) performs request i and
// reports success.
func openLoop(clk clock, start time.Time, dues []time.Duration, clients int, do func(i int) bool) []sample {
	out := make([]sample, len(dues))
	var mu sync.Mutex
	next := 0
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(dues) {
			return -1
		}
		next++
		return next - 1
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := take(); i >= 0; i = take() {
				due := start.Add(dues[i])
				clk.SleepUntil(due)
				sent := clk.Now()
				ok := do(i)
				out[i] = sample{Due: due, Sent: sent, Done: clk.Now(), OK: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// slo is the serving latency objective a rate must meet.
type slo struct {
	P99Ms        float64 // p99 latency from the due time
	MaxFailShare float64 // failed or refused requests over attempted
	MaxBacklogMs float64 // lateness of the last request: a growing backlog
}

// stepStats summarises one open-loop phase or ramp step.
type stepStats struct {
	Rate      float64
	N         int
	Failed    int
	P50, P99  float64
	BacklogMs float64
}

func summarize(rate float64, samples []sample) stepStats {
	st := stepStats{Rate: rate, N: len(samples)}
	lat := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !s.OK {
			st.Failed++
		}
		lat = append(lat, s.latencyMs())
	}
	if len(samples) > 0 {
		st.P50 = median(lat)
		st.P99, _ = percentile(lat, 0.99)
		st.BacklogMs = samples[len(samples)-1].lateMs()
	}
	return st
}

// meets reports whether a step met the SLO. A failed request counts as
// missing the latency limit too, through the fail share.
func (o slo) meets(st stepStats) bool {
	if st.N == 0 {
		return false
	}
	return st.P99 <= o.P99Ms &&
		float64(st.Failed)/float64(st.N) <= o.MaxFailShare &&
		st.BacklogMs <= o.MaxBacklogMs
}

// ramp raises the offered rate from start by factor per step, running
// step(k, rate) for k = 1..maxSteps, and stops at the first step that
// misses the SLO. It returns the highest rate that met it (0 when the
// first step missed) and every step run.
func ramp(start, factor float64, maxSteps int, o slo, step func(k int, rate float64) stepStats) (float64, []stepStats) {
	var best float64
	var steps []stepStats
	rate := start
	for k := 1; k <= maxSteps; k++ {
		rate *= factor
		st := step(k, rate)
		steps = append(steps, st)
		if !o.meets(st) {
			break
		}
		best = rate
	}
	return best, steps
}
