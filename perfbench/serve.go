package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"enframe/internal/core"
	"enframe/internal/lang"
	"enframe/internal/prob"
	"enframe/internal/server"
)

// whatifSteps is the /v1/whatif grid size.
const whatifSteps = 16

// servePlan is the generated serve inputs: keys and every phase's arrivals.
type servePlan struct {
	Keys []serveKey `json:"keys"`
	Low  []serveReq `json:"low"`
	High []serveReq `json:"high"`
	// Saturation is the closed-loop list: clients send back to back.
	Saturation []serveReq   `json:"saturation"`
	Ramp       [][]serveReq `json:"ramp"`
	Rates      []float64    `json:"ramp_rates"`
}

// Shares of a run's measured seconds: the low rate, the high rate, the
// closed-loop saturation phase, and the ramp.
const (
	lowShare        = 0.50
	highShare       = 0.20
	saturationShare = 0.15
	rampShare       = 0.15
)

// rampSeconds splits the ramp's seconds so that every step offers the
// same number of requests.
func rampSeconds(total float64, rates []float64) []float64 {
	var inv float64
	for _, r := range rates {
		inv += 1 / r
	}
	var steps []float64
	for _, r := range rates {
		steps = append(steps, rampShare*total/inv/r)
	}
	return steps
}

// saturationPerSecond sizes the closed-loop request list at several times
// the rate two connections complete (see offlineQueriesPerSecond).
const saturationPerSecond = 5000

func genServePlan(rc runConfig) servePlan {
	sc := rc.cfg.Serve
	total := rc.duration.Seconds()
	p := servePlan{Keys: genServeKeys()}
	rate := sc.HighRPS
	for k := 1; k <= sc.RampMaxSteps; k++ {
		rate *= sc.RampFactor
		p.Rates = append(p.Rates, rate)
	}
	p.Low = genServePhase(rc.seed, 0, sc.LowRPS, lowShare*total)
	p.High = genServePhase(rc.seed, 1, sc.HighRPS, highShare*total)
	p.Saturation = genServeRequests(newRand(rc.seed, 99), int(saturationShare*total*saturationPerSecond), 99*coldStride)
	for k, d := range rampSeconds(total, p.Rates) {
		p.Ramp = append(p.Ramp, genServePhase(rc.seed, int64(2+k), p.Rates[k], d))
	}
	return p
}

// runRequest is the /v1/run (or /v1/whatif) request of one arrival.
func runRequest(k serveKey, kind string, coldSeed int64) server.RunRequest {
	req := server.RunRequest{
		Program: k.Program,
		Data:    server.DataSpec{N: k.N, Vars: k.Vars, Seed: k.Seed},
		Params:  server.ParamSpec{K: 2, Iter: 2},
	}
	if k.Program == "kmeans" {
		req.Targets = []string{"InCl["}
	}
	switch kind {
	case kindHybrid:
		req.Strategy, req.Epsilon = "hybrid", hybridEpsilon
	case kindCold:
		req.Data.Seed = coldSeed
	}
	return req
}

func whatifRequest(r server.RunRequest) server.WhatifRequest {
	return server.WhatifRequest{Program: r.Program, Data: r.Data, Params: r.Params, Targets: r.Targets, Steps: whatifSteps}
}

// serveEnv is one booted server with its client and pre-encoded bodies.
type serveEnv struct {
	srv    *server.Server
	hc     *http.Client
	base   string
	bodies map[string][]byte // "kind/key" → body of a hot request
}

func bodyKey(kind string, key int) string { return fmt.Sprintf("%s/%d", kind, key) }

func (e *serveEnv) close() {
	e.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // drains in-flight requests; nothing is in flight here
}

// bootServe starts a server on loopback, encodes the hot bodies and warms
// every key: its artifact, its circuit, and both connections.
func bootServe(p servePlan, clients int) (*serveEnv, error) {
	srv := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	e := &serveEnv{
		srv: srv,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
		}},
		base:   "http://" + srv.Addr(),
		bodies: map[string][]byte{},
	}
	for i, k := range p.Keys {
		for _, kind := range []string{kindExact, kindHybrid, kindWhatif} {
			var v any = runRequest(k, kind, 0)
			if kind == kindWhatif {
				v = whatifRequest(runRequest(k, kindExact, 0))
			}
			b, err := json.Marshal(v)
			if err != nil {
				e.close()
				return nil, err
			}
			e.bodies[bodyKey(kind, i)] = b
			if status, _, err := e.post(kind, b); err != nil || status != http.StatusOK {
				e.close()
				return nil, fmt.Errorf("warming key %d (%s): status %d: %v", i, kind, status, err)
			}
		}
	}
	return e, nil
}

// post sends one request and returns the status and body.
func (e *serveEnv) post(kind string, body []byte) (int, []byte, error) {
	route := "/v1/run"
	if kind == kindWhatif {
		route = "/v1/whatif"
	}
	resp, err := e.hc.Post(e.base+route, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// served is one executed arrival.
type served struct {
	req    serveReq
	status int
	rttMs  float64
	bounds uint64 // hash of the returned bounds (0 unless 200)
	cache  string
}

// hashBound hashes a target name and the exact bits of its bounds.
func hashBound(h io.Writer, name string, lo, hi float64) {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(hi))
	io.WriteString(h, name)
	h.Write(buf[:])
}

func hashRunResponse(b []byte) (uint64, string, error) {
	var r server.RunResponse
	if err := json.Unmarshal(b, &r); err != nil {
		return 0, "", err
	}
	h := fnv.New64a()
	for _, t := range r.Targets {
		hashBound(h, t.Name, t.Lower, t.Upper)
	}
	return h.Sum64(), r.Cache, nil
}

func hashWhatifResponse(b []byte) (uint64, string, error) {
	var r server.WhatifResponse
	if err := json.Unmarshal(b, &r); err != nil {
		return 0, "", err
	}
	h := fnv.New64a()
	for _, pt := range r.Points {
		for _, t := range pt.Targets {
			hashBound(h, t.Name, t.Lower, t.Upper)
		}
	}
	return h.Sum64(), r.Cache, nil
}

// do sends one request and hashes the bounds of a 200 response.
func (e *serveEnv) do(r serveReq, coldBody func(serveReq) []byte) served {
	body := e.bodies[bodyKey(r.Kind, r.Key)]
	if r.Kind == kindCold {
		body = coldBody(r)
	}
	t0 := time.Now()
	status, b, err := e.post(r.Kind, body)
	out := served{req: r, status: status, rttMs: msSince(t0)}
	if err != nil || status != http.StatusOK {
		return out
	}
	hash := hashRunResponse
	if r.Kind == kindWhatif {
		hash = hashWhatifResponse
	}
	out.bounds, out.cache, _ = hash(b) // an undecodable body keeps bounds 0 and fails the check
	return out
}

// runPhase drives one open-loop phase and returns its arrivals' outcomes.
func (e *serveEnv) runPhase(reqs []serveReq, clients int, coldBody func(serveReq) []byte) ([]served, []sample) {
	dues := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		dues[i] = time.Duration(r.Due * float64(time.Second))
	}
	out := make([]served, len(reqs))
	do := func(i int) bool {
		out[i] = e.do(reqs[i], coldBody)
		return out[i].status == http.StatusOK && out[i].bounds != 0
	}
	samples := openLoop(wallClock{}, time.Now(), dues, clients, do)
	return out, samples
}

// satChunk is the completion count of one saturation throughput sample:
// the metric is the median of the rates of consecutive chunks, so a stall
// (a GC pause, a descheduled vCPU) costs one chunk instead of shifting the
// whole figure.
const satChunk = 50

// runClosed sends reqs back to back over clients connections until dur has
// passed, and returns the outcomes and the median chunk completion rate.
func (e *serveEnv) runClosed(reqs []serveReq, clients int, dur time.Duration, coldBody func(serveReq) []byte) ([]served, float64) {
	var mu sync.Mutex
	next := 0
	var out []served
	var done []time.Time
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				if next >= len(reqs) {
					mu.Unlock()
					return
				}
				r := reqs[next]
				next++
				mu.Unlock()
				s := e.do(r, coldBody)
				mu.Lock()
				out = append(out, s)
				done = append(done, time.Now())
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var rates []float64
	for k := 0; k+satChunk < len(done); k += satChunk {
		rates = append(rates, satChunk/done[k+satChunk].Sub(done[k]).Seconds())
	}
	return out, median(rates)
}

func runServe(rc runConfig) (*report, error) {
	sc := rc.cfg.Serve
	plan := genServePlan(rc)
	var env *serveEnv
	setup, teardown, err := repeatSetup(func() (func(), error) {
		plan = genServePlan(rc)
		var err error
		env, err = bootServe(plan, sc.Clients)
		if err != nil {
			return nil, err
		}
		return env.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	rep := newReport("serve", fingerprint(plan))
	rep.e2e["setup_s"] = setup
	coldBody := func(r serveReq) []byte {
		b, _ := json.Marshal(runRequest(plan.Keys[r.Key], kindCold, r.Seed)) // plain structs always encode
		return b
	}
	objective := slo{P99Ms: sc.SLOP99Ms, MaxFailShare: sc.SLOMaxFailShare, MaxBacklogMs: sc.SLOMaxBacklogMs}

	heap := startHeapSampler()
	before := readRuntime()
	var all []served
	record := func(s []served, smp []sample) stepStats {
		all = append(all, s...)
		rep.attempted += len(s)
		for _, x := range smp {
			if !x.OK {
				rep.failed++
			}
		}
		return summarize(0, smp)
	}
	lowServed, lowSamples := env.runPhase(plan.Low, sc.Clients, coldBody)
	lowStats := record(lowServed, lowSamples)
	highServed, highSamples := env.runPhase(plan.High, sc.Clients, coldBody)
	highStats := record(highServed, highSamples)
	satServed, satRate := env.runClosed(plan.Saturation, sc.Clients, time.Duration(saturationShare*float64(rc.duration)), coldBody)
	all = append(all, satServed...)
	rep.attempted += len(satServed)
	for _, s := range satServed {
		if s.status != http.StatusOK {
			rep.failed++
		}
	}
	var best float64
	var steps []stepStats
	if !rc.trace {
		best, steps = ramp(sc.HighRPS, sc.RampFactor, sc.RampMaxSteps, objective, func(k int, rate float64) stepStats {
			s, smp := env.runPhase(plan.Ramp[k-1], sc.Clients, coldBody)
			st := record(s, smp)
			st.Rate = rate
			return st
		})
	}
	after := readRuntime()
	rep.e2e["peak_heap_mb"] = heap.stop()

	lowLat := make([]float64, len(lowSamples))
	var late []float64
	for i, s := range lowSamples {
		lowLat[i] = s.latencyMs()
	}
	for _, smp := range [][]sample{lowSamples, highSamples} {
		for _, s := range smp {
			late = append(late, s.lateMs())
		}
	}
	rep.latencies("op", lowLat)
	rep.e2e["high.op_ms_p50"] = highStats.P50
	rep.e2e["high.op_ms_p99"] = highStats.P99
	lowLate := make([]float64, len(lowSamples))
	for i, s := range lowSamples {
		lowLate[i] = s.lateMs()
	}
	lateP90, _ := percentile(lowLate, 0.9)
	rep.notef("low phase %.0f req/s: %d requests, meets SLO: %v, sent late by p50 %.3f ms, p90 %.3f ms", sc.LowRPS, lowStats.N, objective.meets(lowStats), median(lowLate), lateP90)
	rep.notef("high phase %.0f req/s: %d requests, p99 %.2f ms (n=%d)", sc.HighRPS, highStats.N, highStats.P99, highStats.N)
	for _, st := range steps {
		rep.notef("ramp %.1f req/s: n=%d p99=%.2f ms failed=%d backlog=%.1f ms meets=%v", st.Rate, st.N, st.P99, st.Failed, st.BacklogMs, objective.meets(st))
	}
	rep.e2e["ops_per_s"] = satRate
	rep.notef("ops_per_s: closed-loop completions per second over %d connections, median over chunks of %d completions", sc.Clients, satChunk)
	if !rc.trace {
		rep.e2e["max_rps_slo"] = best
	}
	rep.e2e["fail_share"] = safeDiv(float64(rep.failed), float64(rep.attempted))

	// Counts over the count window: the first count_ops low-phase arrivals.
	countOps := min(rc.cfg.CountOps["serve"], len(lowServed))
	ctx := context.Background()
	refs, err := newServeRefs(ctx, plan)
	if err != nil {
		return nil, err
	}
	counts := newCounts()
	for _, s := range lowServed[:countOps] {
		c, err := refs.counts(ctx, plan, s.req)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			counts.add(k, v)
		}
	}
	rep.counts = counts

	// Output check: every 200 response against an in-process compile.
	for _, s := range all {
		if s.status != http.StatusOK {
			continue
		}
		want, err := refs.hash(ctx, plan, s.req)
		if err != nil {
			return nil, err
		}
		if want != s.bounds {
			rep.checkf("serve %s key %d: response bounds differ from the in-process compile", s.req.Kind, s.req.Key)
			continue
		}
		rep.checksRun++
	}

	if rc.trace {
		serveLayers(ctx, rep, refs, plan, lowServed, lowSamples)
		rep.layer["gen.late_ms_p99"], _ = percentile(late, 0.99)
		rep.runtimeLayer(before, after, len(all))
		rep.layerCounts(counts)
	}
	return rep, nil
}

// serveRefs computes, in process, what the server should have answered:
// the same spec built by server.BuildSpec, prepared and compiled with the
// options the server derives, or replayed through the same circuit.
type serveRefs struct {
	arts   map[int]*core.Artifact
	hashes map[string]uint64
}

func newServeRefs(ctx context.Context, p servePlan) (*serveRefs, error) {
	r := &serveRefs{arts: map[int]*core.Artifact{}, hashes: map[string]uint64{}}
	for i, k := range p.Keys {
		spec, _, err := server.BuildSpec(runRequest(k, kindExact, 0))
		if err != nil {
			return nil, err
		}
		art, err := core.PrepareContext(ctx, spec)
		if err != nil {
			return nil, err
		}
		r.arts[i] = art
	}
	return r, nil
}

func kindOptions(kind string) prob.Options {
	if kind == kindHybrid {
		return prob.Options{Strategy: prob.Hybrid, Epsilon: hybridEpsilon, JobDepth: 3}
	}
	return prob.Options{Strategy: prob.Exact, JobDepth: 3}
}

// artifact returns the prepared artifact an arrival runs on: a hot key's
// shared artifact, or a fresh one for a cold request.
func (r *serveRefs) artifact(ctx context.Context, p servePlan, q serveReq) (*core.Artifact, error) {
	if q.Kind != kindCold {
		return r.arts[q.Key], nil
	}
	spec, _, err := server.BuildSpec(runRequest(p.Keys[q.Key], kindCold, q.Seed))
	if err != nil {
		return nil, err
	}
	return core.PrepareContext(ctx, spec)
}

func (r *serveRefs) hash(ctx context.Context, p servePlan, q serveReq) (uint64, error) {
	id := fmt.Sprintf("%s/%d/%d", q.Kind, q.Key, q.Seed)
	if h, ok := r.hashes[id]; ok {
		return h, nil
	}
	art, err := r.artifact(ctx, p, q)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	if q.Kind == kindWhatif {
		pts, err := whatifSweep(ctx, art)
		if err != nil {
			return 0, err
		}
		for _, res := range pts {
			for _, t := range res.Targets {
				hashBound(h, t.Name, t.Lower, t.Upper)
			}
		}
	} else {
		rep, err := art.CompileContext(ctx, kindOptions(q.Kind))
		if err != nil {
			return 0, err
		}
		for _, t := range rep.Result.Targets {
			hashBound(h, t.Name, t.Lower, t.Upper)
		}
	}
	r.hashes[id] = h.Sum64()
	return r.hashes[id], nil
}

// whatifSweep is the in-process twin of a /v1/whatif request: the
// artifact's memoized circuit replayed at each grid point for the first
// variable of the compilation order.
func whatifSweep(ctx context.Context, art *core.Artifact) ([]*prob.Result, error) {
	c, _, _, err := art.Circuit(ctx, prob.Options{Heuristic: prob.FanoutOrder})
	if err != nil {
		return nil, err
	}
	xv := art.Order(prob.FanoutOrder)[0]
	probs := prob.SpaceProbs(art.Net.Space)
	out := make([]*prob.Result, whatifSteps)
	for i := range out {
		probs[xv] = float64(i) / float64(whatifSteps-1)
		res, err := prob.EvalCircuit(c, probs)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// counts returns the exact work counts of one arrival, from an in-process
// run of the same call.
func (r *serveRefs) counts(ctx context.Context, p servePlan, q serveReq) (counts, error) {
	art, err := r.artifact(ctx, p, q)
	if err != nil {
		return nil, err
	}
	c := newCounts()
	c.add("network.nodes", int64(art.Net.NumNodes()))
	if q.Kind == kindWhatif {
		return c, nil // replay only: no compilation work
	}
	rep, err := art.CompileContext(ctx, kindOptions(q.Kind))
	if err != nil {
		return nil, err
	}
	c.add("prob.branches", rep.Result.Stats.Branches)
	c.add("prob.mask_updates", rep.Result.Stats.MaskUpdates)
	c.add("prob.budget_prunes", rep.Result.Stats.BudgetPrunes)
	return c, nil
}

// inprocCost is the measured in-process cost of one (key, kind) call, by
// layer, in milliseconds.
type inprocCost struct {
	parse, prepare, order, compile, replay float64
	evals                                  int
}

func (c inprocCost) total() float64 { return c.parse + c.prepare + c.order + c.compile + c.replay }

// calibrateRepeats is how often each in-process cost is measured; the
// median is kept.
const calibrateRepeats = 5

// measureInproc times the in-process equivalent of one arrival on the
// benchmark's own artifacts.
func measureInproc(ctx context.Context, r *serveRefs, p servePlan, q serveReq) (inprocCost, error) {
	var runs []inprocCost
	for i := 0; i < calibrateRepeats; i++ {
		var c inprocCost
		art := r.arts[q.Key]
		switch q.Kind {
		case kindCold:
			spec, _, err := server.BuildSpec(runRequest(p.Keys[q.Key], kindCold, q.Seed))
			if err != nil {
				return c, err
			}
			t := time.Now()
			prog, err := lang.Parse(spec.Source)
			c.parse = msSince(t)
			if err != nil {
				return c, err
			}
			spec.Parsed = prog
			t = time.Now()
			art, err = core.PrepareContext(ctx, spec)
			c.prepare = msSince(t)
			if err != nil {
				return c, err
			}
			t = time.Now()
			art.Order(prob.FanoutOrder)
			c.order = msSince(t)
			fallthrough
		case kindExact, kindHybrid:
			t := time.Now()
			if _, err := art.CompileContext(ctx, kindOptions(q.Kind)); err != nil {
				return c, err
			}
			c.compile = msSince(t)
		case kindWhatif:
			t := time.Now()
			if _, err := whatifSweep(ctx, art); err != nil {
				return c, err
			}
			c.replay = msSince(t)
			c.evals = whatifSteps
		}
		runs = append(runs, c)
	}
	// Keep the run with the median total.
	totals := make([]float64, len(runs))
	for i, c := range runs {
		totals[i] = c.total()
	}
	m := median(totals)
	best := runs[0]
	for _, c := range runs {
		if math.Abs(c.total()-m) < math.Abs(best.total()-m) {
			best = c
		}
	}
	return best, nil
}

// serveLayers fills the per-layer table of a traced serve run: the RTT of
// each low-phase arrival minus the in-process cost of the same call is the
// server's own overhead (HTTP, JSON, admission, cache lookup).
func serveLayers(ctx context.Context, rep *report, r *serveRefs, p servePlan, low []served, samples []sample) {
	tr := newTracer()
	rep.spans = tr
	costs := map[string]inprocCost{}
	rtt := map[string][]float64{}
	var overhead []float64
	var sumParse, sumPrep, sumOrder, sumReplay, sumRTT, sumMismatch float64
	compile := map[string][]float64{}
	var evals, hits int
	for i, s := range low {
		id := fmt.Sprintf("%s/%d/%d", s.req.Kind, s.req.Key, s.req.Seed)
		c, ok := costs[id]
		if !ok {
			var err error
			c, err = measureInproc(ctx, r, p, s.req)
			if err != nil {
				rep.checkf("serve calibration: %v", err)
				return
			}
			costs[id] = c
		}
		tr.add("server.rtt."+s.req.Kind, i, -1, samples[i].Sent, samples[i].Done)
		rtt[s.req.Kind] = append(rtt[s.req.Kind], s.rttMs)
		overhead = append(overhead, s.rttMs-c.total())
		sumRTT += s.rttMs
		sumMismatch += math.Max(0, c.total()-s.rttMs)
		sumParse += c.parse
		sumPrep += c.prepare
		sumOrder += c.order
		sumReplay += c.replay
		evals += c.evals
		if s.req.Kind != kindWhatif {
			compile[s.req.Kind] = append(compile[s.req.Kind], c.compile)
		}
		if s.cache == "hit" {
			hits++
		}
	}
	n := float64(len(low))
	for _, k := range serveKinds {
		rep.layer["server.rtt_ms_p50."+k] = median(rtt[k])
	}
	rep.notExercised("server.rtt_ms_p50.push", "server.rtt_ms_p50.query", "prob.compile_ms.workers2", "core.self_ms")
	rep.layer["server.overhead_ms_p50"] = median(overhead)
	rep.layer["server.cache_hit_rate"] = float64(hits) / n
	rep.layer["server.refused_share"] = safeDiv(float64(rep.failed), float64(rep.attempted))
	rep.layer["lang.parse_ms"] = sumParse / n
	rep.layer["translate.prepare_ms"] = sumPrep / n
	rep.layer["translate.prepare_share"] = sumPrep / sumRTT
	rep.layer["prob.order_ms"] = sumOrder / n
	var sumCompile float64
	for k, xs := range compile {
		sumCompile += sum(xs)
		if k == kindExact || k == kindHybrid {
			rep.layer["prob.compile_ms."+k] = mean(xs)
		}
	}
	rep.layer["prob.compile_share"] = sumCompile / sumRTT
	rep.notExercised("circuit.trace_ms") // circuits are traced while warming
	rep.layer["circuit.replay_us"] = 1000 * safeDiv(sumReplay, float64(evals))
	rep.layer["trace.op_ms"] = sumRTT / n
	rep.layer["trace.reconcile_error"] = sumMismatch / sumRTT
	rep.layer["trace.overhead_ratio"] = 1 // spans are recorded after the run, outside every timed request
	rep.layer["network.hashcons_hit_rate"] = hashconsRate(r)
	rep.notExercised(streamLayerMetrics...)
}

func hashconsRate(r *serveRefs) float64 {
	var hits, lookups float64
	for _, a := range r.arts {
		hits += float64(a.Ground.Hits)
		lookups += float64(a.Ground.Lookups)
	}
	return safeDiv(hits, lookups)
}
