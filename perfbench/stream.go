package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"enframe/internal/server"
	"enframe/internal/stream"
)

// streamOpsPerSecond sizes the generated list at about three times the
// rate this workload completes (see offlineQueriesPerSecond).
const streamOpsPerSecond = 1000

// streamConfig is the session every stream run opens: kmedoids, k=2,
// iter=2, 8 segments of 12 tuples, positive scheme over 8 variables.
func streamConfig(seed int64) *stream.Config {
	return &stream.Config{
		Program: "kmedoids", K: 2, Iter: 2, Segments: 8, SegmentN: 12, Vars: 8,
		Scheme: "positive", Seed: newRand(seed, 4).Int63n(math.MaxInt32) + 1,
	}
}

// streamClient tracks what the client knows of the session: live windows
// and, for windows it has seen described, their variables and tuples. A
// window admitted by an advance stays unknown until the next query
// describes it; ops resolve only against known windows.
type streamClient struct {
	hc      *http.Client
	base    string
	id      string
	seq     uint64
	windows []int64
	known   map[int64]*windowInfo
}

type windowInfo struct {
	vars   []string
	tuples []int // ascending
}

func (c *streamClient) post(req server.StreamRequest) (server.StreamResponse, error) {
	var out server.StreamResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := c.hc.Post(c.base+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s: status %d: %s", req.Op, resp.StatusCode, bytes.TrimSpace(b))
	}
	return out, json.Unmarshal(b, &out)
}

// learn records the window descriptions of a create or query response.
func (c *streamClient) learn(ws []server.StreamWindow) {
	c.windows = c.windows[:0]
	c.known = map[int64]*windowInfo{}
	for _, w := range ws {
		c.windows = append(c.windows, w.Window)
		t := append([]int(nil), w.Tuples...)
		sort.Ints(t)
		c.known[w.Window] = &windowInfo{vars: append([]string(nil), w.Vars...), tuples: t}
	}
}

func (c *streamClient) knownWindows() []int64 {
	var out []int64
	for _, w := range c.windows {
		if c.known[w] != nil {
			out = append(out, w)
		}
	}
	return out
}

func pickIndex(f float64, n int) int { return min(int(f*float64(n)), n-1) }

// resolve turns an abstract op into a concrete delta batch and updates the
// client's model as the server will. Queries resolve to nil.
func (c *streamClient) resolve(op streamOp) []stream.Delta {
	win := func(w int64) *int64 { return &w }
	switch op.Kind {
	case opProb:
		ws := c.knownWindows()
		var ds []stream.Delta
		for _, pk := range op.Picks {
			w := ws[pickIndex(pk.Win, len(ws))]
			vars := c.known[w].vars
			p := pk.P
			ds = append(ds, stream.Delta{Op: stream.OpProb, Window: win(w), Var: vars[pickIndex(pk.Var, len(vars))], P: &p})
		}
		return ds
	case opStructural:
		// Insert a tuple and retire the window's oldest one: the segment
		// changes structure but keeps its size.
		ws := c.knownWindows()
		w := ws[pickIndex(op.Win, len(ws))]
		info := c.known[w]
		next := info.tuples[len(info.tuples)-1] + 1
		oldest := info.tuples[0]
		p := op.P
		info.tuples = append(info.tuples[1:], next)
		info.vars = append(info.vars, fmt.Sprintf("+v%d", next))
		return []stream.Delta{
			{Op: stream.OpInsert, Window: win(w), Pos: []float64{op.Pos[0], op.Pos[1]}, P: &p},
			{Op: stream.OpDelete, Window: win(w), ID: oldest},
		}
	case opAdvance:
		last := c.windows[len(c.windows)-1]
		delete(c.known, c.windows[0])
		c.windows = append(c.windows[1:], last+1)
		return []stream.Delta{{Op: stream.OpAdvance, N: 1}}
	}
	return nil
}

// streamEnv is one booted server with an open session.
type streamEnv struct {
	srv *server.Server
	c   *streamClient
}

func (e *streamEnv) close() {
	_, _ = e.c.post(server.StreamRequest{Op: "close", SessionID: e.c.id}) // the server is shut down next anyway
	e.c.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx)
}

func bootStream(cfg *stream.Config) (*streamEnv, error) {
	srv := server.New(server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	c := &streamClient{
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
		base: "http://" + srv.Addr(),
	}
	e := &streamEnv{srv: srv, c: c}
	resp, err := c.post(server.StreamRequest{Op: "create", Config: cfg})
	if err != nil {
		e.srv.Shutdown(context.Background())
		return nil, err
	}
	c.id, c.seq = resp.SessionID, resp.Seq
	c.learn(resp.Windows)
	return e, nil
}

// streamStep is one executed op: its kind, resolved batch (nil for a
// query), round trip and what the session reported doing.
type streamStep struct {
	kind   string
	deltas []stream.Delta
	rttMs  float64
	stats  stream.Stats
}

func runStream(rc runConfig) (*report, error) {
	ops := genStream(rc.seed, int(rc.duration.Seconds()*streamOpsPerSecond)+rc.cfg.CountOps["stream"])
	cfg := streamConfig(rc.seed)
	var env *streamEnv
	setup, teardown, err := repeatSetup(func() (func(), error) {
		var err error
		env, err = bootStream(cfg)
		if err != nil {
			return nil, err
		}
		return env.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	rep := newReport("stream", fingerprint(struct {
		Config *stream.Config
		Ops    []streamOp
	}{cfg, ops}))
	rep.e2e["setup_s"] = setup

	dur := rc.duration
	if rc.trace {
		dur /= 2 // the other half replays the log directly on a session
	}
	countOps := rc.cfg.CountOps["stream"]
	heap := startHeapSampler()
	before := readRuntime()
	deadline := time.Now().Add(dur)
	c := env.c
	var steps []streamStep
	var lat []float64
	i := 0
	for ; i < len(ops) && (i%streamBlock != 0 || time.Now().Before(deadline) || i < countOps); i++ {
		op := ops[i]
		st := streamStep{kind: op.Kind, deltas: c.resolve(op)}
		req := server.StreamRequest{Op: "push", SessionID: c.id, BaseSeq: c.seq, Deltas: st.deltas}
		if op.Kind == opQuery {
			req = server.StreamRequest{Op: "query", SessionID: c.id}
		}
		t0 := time.Now()
		resp, err := c.post(req)
		st.rttMs = msSince(t0)
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.checkf("stream op %d (%s): %v", i, op.Kind, err)
			return nil, fmt.Errorf("stream op %d (%s): %w", i, op.Kind, err)
		}
		c.seq = resp.Seq
		if resp.Stats != nil {
			st.stats = *resp.Stats
		}
		if op.Kind == opQuery {
			c.learn(resp.Windows)
		}
		lat = append(lat, st.rttMs)
		steps = append(steps, st)
	}
	after := readRuntime()
	rep.e2e["peak_heap_mb"] = heap.stop()
	rep.latencies("op", lat)
	// Throughput is the median over blocks of 20 ops, each holding the
	// exact mix, so one stalled block does not move the figure.
	var blockRates []float64
	for b := 0; b+streamBlock <= len(lat); b += streamBlock {
		blockRates = append(blockRates, streamBlock/(sum(lat[b:b+streamBlock])/1000))
	}
	rep.e2e["ops_per_s"] = median(blockRates)
	rep.e2e["fail_share"] = safeDiv(float64(rep.failed), float64(rep.attempted))

	counts := newCounts()
	for _, st := range steps[:countOps] {
		if st.kind == opQuery {
			continue
		}
		counts.add("stream.pushes", 1)
		counts.add("stream.regrounds", int64(st.stats.Reground))
		counts.add("stream.retraces", int64(st.stats.Retraced))
		counts.add("stream.reused_circuits", int64(st.stats.ReusedCircuits))
		full := int64(0)
		if st.stats.Full {
			full = 1
		}
		counts.add("stream.full_rebuilds", full)
	}
	rep.counts = counts

	// Output check: the session's final marginals against a fresh session
	// that rebuilds from scratch on every structural change.
	final, err := c.post(server.StreamRequest{Op: "query", SessionID: c.id})
	if err != nil {
		return nil, fmt.Errorf("final query: %w", err)
	}
	ctx := context.Background()
	if err := checkStreamFinal(ctx, cfg, steps, final); err != nil {
		rep.checkf("stream: %v", err)
	} else {
		rep.checksRun++
	}

	if rc.trace {
		if err := streamLayers(ctx, rep, cfg, steps); err != nil {
			return nil, err
		}
		rep.runtimeLayer(before, after, len(steps))
		rep.layerCounts(counts)
		rep.layer["stream.reground_per_push"] = safeDiv(float64(counts["stream.regrounds"]), float64(counts["stream.pushes"]))
		rep.layer["stream.retrace_per_push"] = safeDiv(float64(counts["stream.retraces"]), float64(counts["stream.pushes"]))
	}
	return rep, nil
}

// checkStreamFinal replays the delta log on a fresh session whose dirty
// threshold makes every structural change a full rebuild of every segment,
// and requires its marginals to equal the served ones bit for bit. Only
// the deltas that reach the final windows are replayed (after the window
// advances, in log order): a retired window's deltas cannot affect the
// final marginals, and replaying one full rebuild per logged push would
// take longer than the run.
func checkStreamFinal(ctx context.Context, cfg *stream.Config, steps []streamStep, final server.StreamResponse) error {
	oracleCfg := *cfg
	oracleCfg.DirtyThreshold = 1e-9 // any dirty segment rebuilds all of them
	oracle, err := stream.NewSession(ctx, oracleCfg)
	if err != nil {
		return err
	}
	advances := 0
	live := map[int64]bool{}
	for _, m := range final.Marginals {
		live[m.Window] = true
	}
	var rest []stream.Delta
	for _, st := range steps {
		for _, d := range st.deltas {
			switch {
			case d.Op == stream.OpAdvance:
				advances += max(d.N, 1)
			case live[*d.Window]:
				rest = append(rest, d)
			}
		}
	}
	const maxAdvance = 64 // stream's per-batch advance limit
	for advances > 0 {
		n := min(advances, maxAdvance)
		if _, err := oracle.Apply(ctx, oracle.Seq(), []stream.Delta{{Op: stream.OpAdvance, N: n}}); err != nil {
			return fmt.Errorf("oracle advance: %w", err)
		}
		advances -= n
	}
	u, err := oracle.Query(ctx)
	if len(rest) > 0 {
		u, err = oracle.Apply(ctx, oracle.Seq(), rest)
	}
	if err != nil {
		return fmt.Errorf("oracle replay: %w", err)
	}
	if len(u.Marginals) != len(final.Marginals) {
		return fmt.Errorf("oracle has %d marginals, session %d", len(u.Marginals), len(final.Marginals))
	}
	for i, m := range u.Marginals {
		f := final.Marginals[i]
		if m.Window != f.Window || m.Name != f.Name ||
			math.Float64bits(m.Lower) != math.Float64bits(f.Lower) || math.Float64bits(m.Upper) != math.Float64bits(f.Upper) {
			return fmt.Errorf("window %d %s: session [%g, %g], from-scratch oracle [%g, %g]", f.Window, f.Name, f.Lower, f.Upper, m.Lower, m.Upper)
		}
	}
	return nil
}

// streamLayers replays the served op sequence directly on a fresh
// stream.Session, timing each Apply and Query; the RTT minus the direct
// time of the same op is the server's overhead.
func streamLayers(ctx context.Context, rep *report, cfg *stream.Config, steps []streamStep) error {
	sess, err := stream.NewSession(ctx, *cfg)
	if err != nil {
		return err
	}
	tr := newTracer()
	rep.spans = tr
	direct := map[string][]float64{}
	rtt := map[string][]float64{}
	var overhead []float64
	var sumRTT, sumMismatch, ground, traceMs, replayMs float64
	replays := 0
	for i, st := range steps {
		t0 := time.Now()
		var u *stream.Update
		name := "stream.query"
		if st.kind == opQuery {
			u, err = sess.Query(ctx)
		} else {
			name = "stream.apply." + st.kind
			u, err = sess.Apply(ctx, sess.Seq(), st.deltas)
		}
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("direct replay op %d: %w", i, err)
		}
		tr.add(name, i, -1, t0, t1)
		d := float64(t1.Sub(t0)) / 1e6
		direct[st.kind] = append(direct[st.kind], d)
		route := "push"
		if st.kind == opQuery {
			route = "query"
		}
		rtt[route] = append(rtt[route], st.rttMs)
		overhead = append(overhead, st.rttMs-d)
		sumRTT += st.rttMs
		sumMismatch += math.Max(0, d-st.rttMs)
		ground += u.Stats.GroundMs
		traceMs += u.Stats.TraceMs
		replayMs += u.Stats.ReplayMs
		replays += u.Stats.Replayed
	}
	n := float64(len(steps))
	rep.layer["stream.apply_ms.prob"] = mean(direct[opProb])
	rep.layer["stream.apply_ms.structural"] = mean(direct[opStructural])
	rep.layer["stream.apply_ms.advance"] = mean(direct[opAdvance])
	rep.layer["stream.query_ms"] = mean(direct[opQuery])
	rep.layer["server.rtt_ms_p50.push"] = median(rtt["push"])
	rep.layer["server.rtt_ms_p50.query"] = median(rtt["query"])
	rep.layer["server.overhead_ms_p50"] = median(overhead)
	rep.layer["server.refused_share"] = safeDiv(float64(rep.failed), float64(rep.attempted))
	rep.layer["translate.prepare_ms"] = ground / n
	rep.layer["translate.prepare_share"] = ground / sumRTT
	rep.layer["circuit.trace_ms"] = traceMs / n
	rep.layer["circuit.replay_us"] = 1000 * safeDiv(replayMs, float64(replays))
	rep.layer["trace.op_ms"] = sumRTT / n
	rep.layer["trace.reconcile_error"] = sumMismatch / sumRTT
	rep.layer["trace.overhead_ratio"] = 1 // the served run is untraced; spans come from the direct replay
	rep.notExercised("lang.parse_ms", "prob.order_ms", "prob.compile_ms.exact", "prob.compile_ms.hybrid",
		"prob.compile_ms.workers2", "prob.compile_share", "prob.branches", "prob.mask_updates", "prob.budget_prunes",
		"network.nodes", "network.hashcons_hit_rate", "core.self_ms", "server.rtt_ms_p50.exact",
		"server.rtt_ms_p50.hybrid", "server.rtt_ms_p50.whatif", "server.rtt_ms_p50.cold", "server.cache_hit_rate",
		"gen.late_ms_p99")
	return nil
}
