package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"enframe/internal/core"
	"enframe/internal/lang"
	"enframe/internal/prob"
	"enframe/internal/server"
)

// offlineQueriesPerSecond sets a run's length: a run executes
// seconds × offlineQueriesPerSecond queries (whole blocks), about what this
// workload completes per second on the reference box, so the run measures
// for about --seconds. The count is fixed rather than the duration so that
// every run executes the same queries.
const offlineQueriesPerSecond = 20

// offlinePoolSeed fixes the query pool. A query's cost depends on its
// shape and data far more than on the system, and the slow tail sets
// op_ms_p90; drawing the pool from the run seed would make seed-to-seed
// spread measure the draw. The run seed orders the pool instead.
const offlinePoolSeed = 1

// offlineInput is one generated query with its built data (the program
// receives only these generated inputs).
type offlineInput struct {
	q    offlineQuery
	spec core.Spec
	opts prob.Options
}

func offlineRequest(q offlineQuery) server.RunRequest {
	req := server.RunRequest{
		Program: q.Program,
		Data:    server.DataSpec{N: q.N, Vars: q.Vars, Scheme: q.Scheme, Seed: q.Seed},
		Params:  server.ParamSpec{K: q.K, Iter: q.Iter},
	}
	if q.Program == "kmeans" {
		req.Targets = []string{"InCl["}
	}
	return req
}

func offlineOptions(strategy string) prob.Options {
	switch strategy {
	case "hybrid":
		return prob.Options{Strategy: prob.Hybrid, Epsilon: hybridEpsilon}
	case "workers2":
		return prob.Options{Strategy: prob.Exact, Workers: 2}
	}
	return prob.Options{Strategy: prob.Exact}
}

// hybridEpsilon is the ε of every hybrid compilation in the benchmark.
const hybridEpsilon = 0.1

func setupOffline(seed int64, n int) ([]offlineInput, string, error) {
	pool := genOffline(offlinePoolSeed, n)
	qs := make([]offlineQuery, len(pool))
	for i, j := range newRand(seed, 5).Perm(len(pool)) {
		qs[i] = pool[j]
	}
	in := make([]offlineInput, len(qs))
	for i, q := range qs {
		spec, _, err := server.BuildSpec(offlineRequest(q))
		if err != nil {
			return nil, "", fmt.Errorf("offline query %d: %w", i, err)
		}
		in[i] = offlineInput{q: q, spec: spec, opts: offlineOptions(q.Strategy)}
	}
	return in, fingerprint(qs), nil
}

// offlineOutcome is what one query returned.
type offlineOutcome struct {
	ms  float64
	art *core.Artifact
	rep *core.Report
}

// runOfflineQuery is one op: parse → prepare → order → compile, each call
// wrapped in a span when tracing.
func runOfflineQuery(ctx context.Context, tr *tracer, op int, in offlineInput) (offlineOutcome, error) {
	t0 := time.Now()
	root := tr.begin("core", op, -1)
	sp := tr.begin("lang", op, root)
	prog, err := lang.Parse(in.spec.Source)
	tr.end(sp)
	if err != nil {
		return offlineOutcome{}, err
	}
	spec := in.spec
	spec.Parsed = prog
	sp = tr.begin("translate", op, root)
	art, err := core.PrepareContext(ctx, spec)
	tr.end(sp)
	if err != nil {
		return offlineOutcome{}, err
	}
	sp = tr.begin("prob.order", op, root)
	art.Order(in.opts.Heuristic)
	tr.end(sp)
	sp = tr.begin("prob.compile."+in.q.Strategy, op, root)
	rep, err := art.CompileContext(ctx, in.opts)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return offlineOutcome{}, err
	}
	return offlineOutcome{ms: msSince(t0), art: art, rep: rep}, nil
}

func runOffline(rc runConfig) (*report, error) {
	ctx := context.Background()
	var inputs []offlineInput
	var fp string
	setup, _, err := repeatSetup(func() (func(), error) {
		var err error
		n := max(int(rc.duration.Seconds()*offlineQueriesPerSecond), rc.cfg.CountOps["offline"])
		inputs, fp, err = setupOffline(rc.seed, n)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	rep := newReport("offline", fp)
	rep.e2e["setup_s"] = setup

	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	heap := startHeapSampler()
	before := readRuntime()
	start := time.Now()
	var lat, tracedLat, plainLat []float64
	// Checked queries keep only their bounds; their artifacts are prepared
	// again after the timed phase, so the check retains nothing that would
	// inflate the heap the run measures.
	checked := map[int][]prob.TargetBound{}
	counts := newCounts()
	countOps := rc.cfg.CountOps["offline"]
	var hcLookups, hcHits float64
	i := 0
	for ; i < len(inputs); i++ {
		opTr := tr
		if rc.trace && i%2 == 1 {
			opTr = nil // odd ops untraced: the tracing-overhead control
		}
		out, err := runOfflineQuery(ctx, opTr, i, inputs[i])
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.checkf("offline query %d: %v", i, err)
			continue
		}
		lat = append(lat, out.ms)
		if rc.trace {
			if opTr != nil {
				tracedLat = append(tracedLat, out.ms)
			} else {
				plainLat = append(plainLat, out.ms)
			}
		}
		st := out.rep.Result.Stats
		hcLookups += float64(out.art.Ground.Lookups)
		hcHits += float64(out.art.Ground.Hits)
		if i < countOps {
			counts.add("network.nodes", int64(out.art.Net.NumNodes()))
			// Two in-process workers share one bounds book, so how far each
			// explores before the bounds meet depends on scheduling: their
			// work counts do not repeat and stay out of the exact counts.
			if inputs[i].q.Strategy != "workers2" {
				counts.add("prob.branches", st.Branches)
				counts.add("prob.mask_updates", st.MaskUpdates)
				counts.add("prob.budget_prunes", st.BudgetPrunes)
			}
		}
		if i%offlineCheckEvery == int(uint64(rc.seed)%offlineCheckEvery) && len(checked) < offlineCheckMax {
			checked[i] = out.rep.Result.Targets
		}
	}
	elapsed := time.Since(start).Seconds()
	after := readRuntime()
	rep.e2e["peak_heap_mb"] = heap.stop()
	rep.counts = counts

	rep.latencies("op", lat)
	rep.e2e["ops_per_s"] = float64(len(lat)) / elapsed
	rep.e2e["fail_share"] = safeDiv(float64(rep.failed), float64(rep.attempted))

	// Output checks on the seeded sample.
	for idx, got := range checked {
		checkOffline(ctx, rep, idx, inputs[idx], got)
	}

	if rc.trace {
		n := float64(len(tracedLat))
		self := selfTimes(tr.spans)
		total := rootTotalMs(tr.spans)
		perOp := func(name string) float64 { return self[name] / n }
		rep.layer["lang.parse_ms"] = perOp("lang")
		rep.layer["translate.prepare_ms"] = perOp("translate")
		rep.layer["translate.prepare_share"] = self["translate"] / total
		rep.layer["prob.order_ms"] = perOp("prob.order")
		mix := map[string]int{}
		for op := 0; op < i; op += 2 {
			mix[inputs[op].q.Strategy]++
		}
		var compile float64
		for _, s := range []string{"exact", "hybrid", "workers2"} {
			compile += self["prob.compile."+s]
			rep.layer["prob.compile_ms."+s] = safeDiv(self["prob.compile."+s], float64(mix[s]))
		}
		rep.layer["prob.compile_share"] = compile / total
		rep.layer["core.self_ms"] = perOp("core")
		rep.layer["network.hashcons_hit_rate"] = safeDiv(hcHits, hcLookups)
		rep.layer["trace.op_ms"] = total / n
		rep.layer["trace.reconcile_error"] = self["core"] / total
		rep.layer["trace.overhead_ratio"] = median(tracedLat) / median(plainLat)
		rep.spans = tr
		rep.notExercised(append(append([]string{"circuit.trace_ms", "circuit.replay_us", "gen.late_ms_p99"},
			serverLayerMetrics...), streamLayerMetrics...)...)
		rep.layerCounts(counts)
		rep.runtimeLayer(before, after, len(lat))
	}
	return rep, nil
}

// offlineCheckEvery and offlineCheckMax size the seeded check sample.
const (
	offlineCheckEvery = 10
	offlineCheckMax   = 12
)

// refTolerance bounds |exact − reference|: the reference evaluator
// recomputes every interval from scratch, so it reaches the same marginals
// by a different float-operation order.
const refTolerance = 1e-9

func checkOffline(ctx context.Context, rep *report, idx int, in offlineInput, got []prob.TargetBound) {
	art, err := core.PrepareContext(ctx, in.spec)
	if err != nil {
		rep.checkf("offline query %d: re-prepare: %v", idx, err)
		return
	}
	switch in.q.Strategy {
	case "exact":
		ref, err := prob.CompileRef(art.Net, prob.Options{Strategy: prob.Exact, Order: art.Order(prob.FanoutOrder)})
		if err != nil {
			rep.checkf("offline query %d: reference: %v", idx, err)
			return
		}
		for j, t := range got {
			r := ref.Targets[j]
			if t.Name != r.Name || math.Abs(t.Lower-r.Lower) > refTolerance || math.Abs(t.Upper-r.Upper) > refTolerance {
				rep.checkf("offline query %d: %s = [%g, %g], reference [%g, %g]", idx, t.Name, t.Lower, t.Upper, r.Lower, r.Upper)
				return
			}
		}
	case "hybrid", "workers2":
		exact, err := art.CompileContext(ctx, prob.Options{Strategy: prob.Exact})
		if err != nil {
			rep.checkf("offline query %d: exact control: %v", idx, err)
			return
		}
		for j, t := range got {
			e := exact.Result.Targets[j]
			// Two workers explore the same decision tree in a different
			// order, so the repository's own oracle holds them to the
			// sequential bounds within refTolerance, not bit for bit.
			if in.q.Strategy == "workers2" {
				if t.Name != e.Name || math.Abs(t.Lower-e.Lower) > refTolerance || math.Abs(t.Upper-e.Upper) > refTolerance {
					rep.checkf("offline query %d: two-worker %s = [%g, %g], sequential [%g, %g]", idx, t.Name, t.Lower, t.Upper, e.Lower, e.Upper)
					return
				}
				continue
			}
			if t.Name != e.Name || t.Lower > e.Lower+refTolerance || t.Upper < e.Upper-refTolerance || t.Upper-t.Lower > 2*hybridEpsilon+refTolerance {
				rep.checkf("offline query %d: hybrid %s = [%g, %g] misses exact %g or is wider than 2ε", idx, t.Name, t.Lower, t.Upper, e.Lower)
				return
			}
		}
	}
	rep.checksRun++
}
