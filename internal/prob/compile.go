package prob

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"enframe/internal/event"
	"enframe/internal/network"
	"enframe/internal/obs"
)

// ErrNoTargets is returned when the network declares no compilation targets.
var ErrNoTargets = errors.New("prob: network has no compilation targets")

// Compile computes probability bounds for every compilation target of the
// network (Algorithm 1). Exact compilation runs until the bounds meet; the
// approximation strategies guarantee Upper − Lower ≤ 2·Epsilon per target
// unless the timeout fires first.
func Compile(net *network.Net, opts Options) (*Result, error) {
	return CompileCtx(context.Background(), net, opts)
}

// Order returns the Shannon-expansion variable order the given heuristic
// produces for the network. Callers that compile the same network repeatedly
// (e.g. the serving layer's artifact cache) can compute the order once and
// replay it through Options.Order, skipping the per-compile order stage.
func Order(net *network.Net, h OrderHeuristic) []event.VarID {
	return computeOrder(net, Options{Heuristic: h})
}

// CompileCtx is Compile with cooperative cancellation: when ctx is cancelled
// or its deadline passes, all workers stop at the next branch boundary and
// CompileCtx returns ctx's error instead of a partial result. This is
// distinct from Options.Timeout, which returns the partial bounds reached so
// far with Result.TimedOut set. Workers > 1 runs the job coordinator
// (CompileExec) over an in-process LocalExecutor.
func CompileCtx(ctx context.Context, net *network.Net, opts Options) (*Result, error) {
	if opts.Strategy == Circuit {
		// The circuit backend traces one exact sequential compilation and
		// answers from a replay of the recorded circuit (see circuit.go);
		// callers needing the reusable circuit itself use CompileCircuit.
		_, res, err := CompileCircuit(ctx, net, opts)
		return res, err
	}
	opts = opts.withDefaults()
	if opts.Workers > 1 {
		return compileWorkers(ctx, net, opts)
	}
	if len(net.Targets) == 0 {
		return nil, ErrNoTargets
	}
	types, err := net.Types()
	if err != nil {
		return nil, err
	}
	eps2 := 0.0
	if opts.Strategy != Exact {
		eps2 = 2 * opts.Epsilon
	}
	span := opts.Obs.Root().Start("compile")
	defer span.End()
	span.SetStr("strategy", opts.Strategy.String())
	if opts.Strategy != Exact {
		span.SetFloat("eps", opts.Epsilon)
	}
	span.SetInt("targets", int64(len(net.Targets)))
	span.SetInt("nodes", int64(net.NumNodes()))

	tOrder := time.Now()
	orderSpan := span.Start("order")
	order := computeOrder(net, opts)
	orderSpan.SetInt("vars", int64(len(order)))
	orderSpan.End()
	orderDur := time.Since(tOrder)

	run := &runner{
		net:    net,
		types:  types,
		opts:   opts,
		order:  order,
		span:   span,
		bounds: newBoundsBook(len(net.Targets), eps2),
	}
	if opts.Strategy.budgeted() {
		// Bounded per-target budget-spend timeline; nil when tracing is off.
		run.timeline = opts.Obs.Timeline("budget.spend", budgetTimelineCap)
	}
	if opts.Timeout > 0 {
		run.deadline = time.Now().Add(opts.Timeout)
	}
	// Cancellation watcher: dfs consults run.stop on every branch, so
	// flipping it aborts the walk promptly. The watcher itself exits
	// when compilation finishes, whichever comes first.
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
	stats := run.runSequential()
	stats.Duration = time.Since(start)
	stats.NetworkNodes = net.NumNodes()
	stats.Timings.Order = orderDur
	if !opts.LegacyCore {
		stats.MaskWords = int64(bitsetWords(net.NumNodes()))
	}
	stats.BatchTargets = int64(len(net.Targets))

	span.SetInt("branches", stats.Branches)
	span.SetInt("max_depth", stats.MaxDepth)
	if stats.BudgetPrunes > 0 {
		span.SetInt("budget_prunes", stats.BudgetPrunes)
	}
	if run.timedOut.Load() {
		span.SetStr("timed_out", "true")
	}
	if reg := opts.Obs.Metrics(); reg != nil {
		reg.Counter("prob.branches").Add(stats.Branches)
		reg.Counter("prob.assignments").Add(stats.Assignments)
		reg.Counter("prob.mask_updates").Add(stats.MaskUpdates)
		reg.Counter("prob.budget_prunes").Add(stats.BudgetPrunes)
		reg.Counter("prob.jobs").Add(stats.Jobs)
		reg.Counter("prob.mask_words").Add(stats.MaskWords)
		reg.Counter("prob.batch_targets").Add(stats.BatchTargets)
		reg.Gauge("prob.tree.max_depth").SetMax(float64(stats.MaxDepth))
	}
	if run.canceled.Load() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("prob: compile: %w", err)
		}
	}
	lo, hi := run.bounds.snapshot()
	res := &Result{Stats: stats, TimedOut: run.timedOut.Load()}
	for i, t := range net.Targets {
		// Clamp float round-off at the [0, 1] borders.
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
		res.Targets = append(res.Targets, TargetBound{Name: t.Name, Lower: l, Upper: h})
	}
	return res, nil
}

// budgetTimelineCap bounds the per-target budget-spend timeline recorded
// under tracing; beyond it, points are counted as dropped.
const budgetTimelineCap = 8192

// runner holds the pieces shared by the walkers of one compilation (one
// sequential walk, or one job of a Session).
type runner struct {
	net      *network.Net
	types    []network.ValueType
	opts     Options
	order    []event.VarID
	bounds   *boundsBook
	span     *obs.Span     // compile span (nil when tracing is off)
	timeline *obs.Timeline // budget-spend timeline (nil unless traced+budgeted)
	deadline time.Time
	stop     atomic.Bool // set on timeout or external abort
	timedOut atomic.Bool
	canceled atomic.Bool // set when the compile context was cancelled
}

// leaseBudgetBuf hands a walker the backing array for its per-depth budget
// buffers: (|order|+2)·n floats cover the deepest possible expansion, so a
// Hybrid walker allocates exactly once per compilation instead of once per
// depth reached.
func (r *runner) leaseBudgetBuf(n int) []float64 {
	return make([]float64, (len(r.order)+2)*n)
}

func (r *runner) runSequential() Stats {
	tInit := time.Now()
	initSpan := r.span.Start("init")
	s := r.attach(newCompCore(r.net, r.types, r.opts, r.bounds))
	s.initAll()
	initSpan.End()
	st := s.st()
	st.Timings.Init = time.Since(tInit)

	tExplore := time.Now()
	exploreSpan := r.span.Start("explore")
	w := &walker{state: s, run: r}
	E := make([]float64, len(r.net.Targets))
	if r.opts.Strategy.budgeted() {
		for i := range E {
			E[i] = 2 * r.opts.Epsilon
		}
	}
	w.dfs(0, 0, -1, false, 1, E)
	exploreSpan.SetInt("branches", st.Branches)
	exploreSpan.End()
	st.Timings.Explore = time.Since(tExplore)
	st.Jobs = 1
	return *st
}

// attach wires the runner's order and abort machinery into a worker state.
func (r *runner) attach(s compCore) compCore {
	s.attachRun(r.order, r.deadline, &r.stop, &r.timedOut)
	return s
}

// walker runs the depth-first Shannon expansion over one state (either
// core implementation; see compCore). In a Session job forkDepth > 0 makes
// it fork a continuation job instead of descending past that many local
// assignments.
type walker struct {
	state     compCore
	run       *runner
	forkDepth int
	// fork records a continuation job rooted at the current branch.
	fork func(oi int, p float64, E []float64)
	// back is the contiguous backing of the per-depth budget-halving
	// buffers (Hybrid only), leased from the runner on first use.
	back []float64
	// path holds the assignments from the job root to the current branch
	// (maintained only when forkDepth > 0), so forks ship as replayable
	// assignment paths.
	path []Assign
}

// dfs explores the branch extending the current assignment by x ↦ xval
// (x < 0 at the root) with branch mass p and per-target error budgets E.
// It mutates E in place to the residual budgets (Algorithm 1, blue lines);
// for non-budgeted strategies E stays untouched.
func (w *walker) dfs(depth, oi int, x event.VarID, xval bool, p float64, E []float64) {
	s := w.state
	r := w.run
	st := s.st()
	st.Branches++
	if int64(depth) > st.MaxDepth {
		st.MaxDepth = int64(depth)
	}
	if st.Branches&1023 == 0 {
		r.checkDeadline()
	}
	if r.stop.Load() || p == 0 {
		return
	}
	budgeted := r.opts.Strategy.budgeted()
	// Budget pruning: when every target's budget covers the whole subtree
	// mass, cut the subtree and consume the budget.
	if budgeted && p <= minOf(E) {
		st.BudgetPrunes++
		if r.timeline != nil {
			for i := range E {
				r.timeline.Add(i, p)
			}
		}
		for i := range E {
			E[i] -= p
		}
		return
	}
	mark := s.trailMark()
	if x >= 0 {
		s.assign(x, xval, p)
		if w.forkDepth > 0 {
			w.path = append(w.path, Assign{Var: x, Val: xval})
		}
	}

	switch {
	case s.allSettled():
		// Every target masked on this branch or globally tight.

	case w.forkDepth > 0 && len(w.path) > 0 && len(w.path)%w.forkDepth == 0:
		// Distributed fork boundary: the budget travels with the job.
		w.fork(oi, p, E)
		if budgeted {
			for i := range E {
				E[i] = 0
			}
		}

	default:
		oi2, y, ok := s.nextVar(oi)
		if ok {
			py := r.net.Space.Prob(y)
			switch r.opts.Strategy {
			case Hybrid:
				L := w.buf(depth, len(E))
				for i := range E {
					L[i] = E[i] / 2
				}
				w.dfs(depth+1, oi2+1, y, true, p*py, L)
				for i := range E {
					E[i] = E[i]/2 + L[i]
				}
			default:
				// Exact and lazy carry no budget; eager hands the full
				// remaining budget to the left branch in place.
				w.dfs(depth+1, oi2+1, y, true, p*py, E)
			}
			// Algorithm 1: explore the right branch only while some
			// target's bounds exceed 2ε.
			if !r.stop.Load() && !r.bounds.allTight() {
				w.dfs(depth+1, oi2+1, y, false, p*(1-py), E)
			}
		}
		// !ok is unreachable while targets are unmasked: an undecided
		// node always has an undecided child, so some influential
		// variable exists (see nextVar).
	}

	if x >= 0 {
		if w.forkDepth > 0 {
			w.path = w.path[:len(w.path)-1]
		}
		s.undoTo(mark)
	}
}

// buf returns the depth-th budget buffer, a row of a single contiguous
// backing array leased from the runner — one allocation per walker instead
// of one per depth. Exact compilation never calls it, so the non-budgeted
// path stays allocation-free here.
func (w *walker) buf(depth, n int) []float64 {
	if w.back == nil {
		w.back = w.run.leaseBudgetBuf(n)
	}
	off := depth * n
	return w.back[off : off+n]
}

// nextVar returns the next influential unassigned variable at or after
// order position oi. Variables whose direct uses are all masked cannot
// change any event and are skipped (their mass marginalises out).
func (s *state) nextVar(oi int) (int, event.VarID, bool) {
	for ; oi < len(s.order); oi++ {
		x := s.order[oi]
		id := s.net.VarNode[x]
		if s.masks[id].bval != bUnknown {
			continue // assigned on this branch
		}
		if s.opts.SkipDisabled {
			return oi, x, true
		}
		if s.targetsAt[id] >= 0 {
			return oi, x, true // the leaf itself is a compilation target
		}
		for _, pid := range s.net.Parents[id] {
			pm := &s.masks[pid]
			if s.net.Nodes[pid].Kind.IsBool() {
				if pm.bval == bUnknown {
					return oi, x, true
				}
			} else if !pm.decided() {
				return oi, x, true
			}
		}
	}
	return oi, -1, false
}

// allSettled reports the termination condition of Algorithm 1: every target
// masked on this branch or already within 2ε globally.
func (s *state) allSettled() bool {
	if s.nUnmasked == 0 {
		return true
	}
	if s.bounds.allTight() {
		return true
	}
	if s.bounds.eps2 == 0 {
		return false // exact: tight only at full convergence
	}
	nTight := int64(len(s.tMasked)) - s.bounds.nLoose.Load()
	if int64(s.nUnmasked) > nTight {
		return false // pigeonhole: some target is neither masked nor tight
	}
	return s.bounds.settledWith(s.tMasked)
}

func (r *runner) checkDeadline() {
	if !r.deadline.IsZero() && time.Now().After(r.deadline) {
		r.timedOut.Store(true)
		r.stop.Store(true)
	}
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
