package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own call (the program itself is never instrumented). Parent is the index
// of the enclosing span, -1 for an op's root span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end. A
// nil *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (or -1 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// add records an already measured interval as a span (for durations timed
// by the caller, such as an RTT or a replayed call).
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// selfTimes returns each span name's summed self time in milliseconds: the
// span's duration minus the part of its interval covered by its children.
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		covered := coveredNs(spans, kids[i], s.Start, s.End)
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// coveredNs is the length of the union of the children's intervals,
// clipped to [lo, hi].
func coveredNs(spans []span, children []int, lo, hi int64) int64 {
	if len(children) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(spans[c].Start, lo), min(spans[c].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if !open || v.a > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = v.a, v.b, true
			continue
		}
		curB = max(curB, v.b)
	}
	if open {
		total += curB - curA
	}
	return total
}

// rootTotalMs sums the durations of root spans (the traced op time).
func rootTotalMs(spans []span) float64 {
	var t int64
	for _, s := range spans {
		if s.Parent < 0 {
			t += s.End - s.Start
		}
	}
	return float64(t) / 1e6
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
