package prob

import (
	"context"
	"errors"
	"fmt"
	"time"

	"enframe/internal/circuit"
	"enframe/internal/event"
	"enframe/internal/network"
)

// ErrIncompleteCircuit is returned when a query needs a complete circuit but
// the trace contained lossy cuts (zero-mass branches or bounds-converged
// subtrees); callers fall back to recompilation.
var ErrIncompleteCircuit = errors.New("prob: circuit is incomplete (pruned subtrees); recompilation required")

// CompileCircuit runs one exact sequential compilation while recording the
// decision tree into a hash-consed arithmetic circuit (internal/circuit),
// and returns the circuit together with the Result obtained by replaying it
// at the space's current probabilities. The replay reproduces the exact
// compiler's floating-point operation sequence, so the returned marginals —
// and the work counters of the traced walk — are bit-identical to
// Options{Strategy: Exact}. Epsilon and worker fan-out do not apply: the
// circuit re-creates exact marginals for any probability assignment, which
// subsumes what the approximation strategies would cache.
func CompileCircuit(ctx context.Context, net *network.Net, opts Options) (*circuit.Circuit, *Result, error) {
	opts = opts.withDefaults()
	if len(net.Targets) == 0 {
		return nil, nil, ErrNoTargets
	}
	types, err := net.Types()
	if err != nil {
		return nil, nil, err
	}
	// The trace is a plain exact sequential walk; the core never consults
	// the Circuit strategy value.
	topts := opts
	topts.Strategy = Exact
	topts.Epsilon = 0
	topts.Workers = 1

	span := opts.Obs.Root().Start("compile")
	defer span.End()
	span.SetStr("strategy", "circuit")
	span.SetInt("targets", int64(len(net.Targets)))
	span.SetInt("nodes", int64(net.NumNodes()))

	tOrder := time.Now()
	orderSpan := span.Start("order")
	order := computeOrder(net, topts)
	orderSpan.SetInt("vars", int64(len(order)))
	orderSpan.End()
	orderDur := time.Since(tOrder)

	run := &runner{
		net:    net,
		types:  types,
		opts:   topts,
		order:  order,
		span:   span,
		bounds: newBoundsBook(len(net.Targets), 0),
	}
	if opts.Timeout > 0 {
		run.deadline = time.Now().Add(opts.Timeout)
	}
	if ctx.Done() != nil {
		finished := make(chan struct{})
		defer close(finished)
		go func() {
			select {
			case <-ctx.Done():
				run.canceled.Store(true)
				run.stop.Store(true)
			case <-finished:
			}
		}()
	}

	start := time.Now()
	tInit := time.Now()
	initSpan := span.Start("init")
	s := run.attach(newCompCore(net, types, topts, run.bounds))
	names := make([]string, len(net.Targets))
	for i, t := range net.Targets {
		names[i] = t.Name
	}
	tw := &traceWalker{
		state: s,
		run:   run,
		b:     circuit.NewBuilder(net.Space.Len(), names),
	}
	// Targets the initial mask pass decides fire with the full unit mass;
	// they become the root node's decisions (replayed with mass 1).
	s.setOnAdd(tw.observe)
	s.initAll()
	initSpan.End()
	st := s.st()
	st.Timings.Init = time.Since(tInit)

	tExplore := time.Now()
	traceSpan := span.Start("trace")
	root := tw.dfs(0, 0, -1, false, 1)
	traceSpan.SetInt("branches", st.Branches)
	traceSpan.End()
	st.Timings.Explore = time.Since(tExplore)
	st.Jobs = 1

	stats := *st
	stats.Duration = time.Since(start)
	stats.NetworkNodes = net.NumNodes()
	stats.Timings.Order = orderDur
	if !topts.LegacyCore {
		stats.MaskWords = int64(bitsetWords(net.NumNodes()))
	}
	stats.BatchTargets = int64(len(net.Targets))

	span.SetInt("branches", stats.Branches)
	span.SetInt("max_depth", stats.MaxDepth)
	if run.canceled.Load() {
		if err := ctx.Err(); err != nil {
			return nil, nil, fmt.Errorf("prob: circuit trace: %w", err)
		}
	}
	if root == circuit.None {
		// Only reachable when the stop flag fired before the root expansion.
		return nil, nil, fmt.Errorf("prob: circuit trace aborted before the root expansion")
	}
	c := tw.b.Finish(root, !tw.incomplete)
	span.SetInt("circuit_nodes", int64(c.Nodes()))
	if reg := opts.Obs.Metrics(); reg != nil {
		reg.Counter("prob.branches").Add(stats.Branches)
		reg.Counter("prob.assignments").Add(stats.Assignments)
		reg.Counter("prob.mask_updates").Add(stats.MaskUpdates)
		reg.Counter("prob.jobs").Add(stats.Jobs)
		reg.Counter("prob.mask_words").Add(stats.MaskWords)
		reg.Counter("prob.batch_targets").Add(stats.BatchTargets)
		reg.Gauge("prob.tree.max_depth").SetMax(float64(stats.MaxDepth))
		reg.Gauge("circuit.nodes").Set(float64(c.Nodes()))
	}

	res, err := EvalCircuit(c, SpaceProbs(net.Space))
	if err != nil {
		return nil, nil, err
	}
	res.Stats = stats
	res.TimedOut = run.timedOut.Load()
	return c, res, nil
}

// traceWalker mirrors walker.dfs for the exact sequential strategy while
// building the circuit post-order. Every control decision — the branch
// gate, the settled check, the variable selection, the right-branch cut —
// matches the exact walker line for line, so the traced Stats counters and
// the replayed marginals stay bit-identical to exact compilation.
type traceWalker struct {
	state compCore
	run   *runner
	b     *circuit.Builder
	// events is the scratch stack of target decisions observed since the
	// current node's entry; child frames append and truncate around it.
	events []circuit.Decision
	// incomplete records lossy cuts: a gated branch (zero mass or stop) or
	// a bounds-converged skip while targets were still undecided. Such a
	// circuit replays correctly at the traced probabilities (the cut mass
	// is zero there) but not at other assignments.
	incomplete bool
}

// observe is the compCore onAdd hook: the branch mass is implied by the
// node the decision fires under, so only (target, truth) is recorded.
func (tw *traceWalker) observe(ti int, isTrue bool, _ float64) {
	tw.events = append(tw.events, circuit.NewDecision(ti, isTrue))
}

func (tw *traceWalker) dfs(depth, oi int, x event.VarID, xval bool, p float64) circuit.NodeID {
	s := tw.state
	r := tw.run
	st := s.st()
	st.Branches++
	if int64(depth) > st.MaxDepth {
		st.MaxDepth = int64(depth)
	}
	if st.Branches&1023 == 0 {
		r.checkDeadline()
	}
	if r.stop.Load() || p == 0 {
		// The exact walker leaves this subtree unexplored; its targets (the
		// parent was not settled) never fire, so the circuit cannot answer
		// for it at probability assignments where the mass is nonzero.
		tw.incomplete = true
		return circuit.None
	}
	mark := s.trailMark()
	evMark := len(tw.events)
	if x >= 0 {
		s.assign(x, xval, p)
	} else {
		// Root: adopt the initial mask pass's unit-mass decisions.
		evMark = 0
	}

	v := event.VarID(-1)
	hiID, loID := circuit.None, circuit.None
	if s.allSettled() {
		if s.unmaskedTargets() > 0 {
			// Settled via global bounds convergence with targets still
			// undecided on this branch: their mass never fired here.
			tw.incomplete = true
		}
	} else {
		oi2, y, ok := s.nextVar(oi)
		if ok {
			v = y
			py := r.net.Space.Prob(y)
			hiID = tw.dfs(depth+1, oi2+1, y, true, p*py)
			if !r.stop.Load() && !r.bounds.allTight() {
				loID = tw.dfs(depth+1, oi2+1, y, false, p*(1-py))
			} else if s.unmaskedTargets() > 0 {
				tw.incomplete = true
			}
		}
	}

	id := tw.b.Node(v, hiID, loID, tw.events[evMark:])
	tw.events = tw.events[:evMark]
	if x >= 0 {
		s.undoTo(mark)
	}
	return id
}

// EvalCircuit replays the circuit at the given per-variable marginals and
// returns per-target bounds clamped exactly as CompileCtx clamps its
// bounds book — the last step of the bit-identity contract. The returned
// Result carries no Stats; callers compiling fresh attach the trace stats.
func EvalCircuit(c *circuit.Circuit, probs []float64) (*Result, error) {
	lo, hi, err := c.Eval(probs)
	if err != nil {
		return nil, fmt.Errorf("prob: %w", err)
	}
	res := &Result{Targets: make([]TargetBound, len(lo))}
	for i, name := range c.Targets() {
		l, h := lo[i], hi[i]
		if l < 0 {
			l = 0
		}
		if h > 1 {
			h = 1
		}
		if h < l {
			h = l
		}
		res.Targets[i] = TargetBound{Name: name, Lower: l, Upper: h}
	}
	return res, nil
}

// SpaceProbs snapshots the space's marginals indexed by VarID — the
// probability-vector shape circuit evaluation takes. Mutating the returned
// slice (what-if sweeps, sensitivity pinning) leaves the space untouched.
func SpaceProbs(sp *event.Space) []float64 {
	out := make([]float64, sp.Len())
	for i := range out {
		out[i] = sp.Prob(event.VarID(i))
	}
	return out
}
