package prob

import (
	"context"
	"fmt"
	"sync"
	"time"

	"enframe/internal/network"
	"enframe/internal/obs"
)

// CompileExec compiles the network by shipping depth-d decision-tree jobs
// (paper §4.4) to a JobExecutor. It is the one driver of every multi-worker
// compilation: CompileCtx with Workers > 1 runs it over an in-process
// LocalExecutor, SimulateWorkers over a one-slot LocalExecutor, and remote
// runs over internal/dist's worker pool or a MultiExecutor mix.
//
// Determinism and idempotence: each job returns an ordered stream of bound
// contributions with fork markers; the coordinator splices child streams at
// their markers, reproducing the exact add order of a sequential run, so
// exact-strategy marginals are bit-identical to Compile with Workers=1. A
// job's error budget is withdrawn from the shared pool once, at first
// dispatch, and travels with the job across retries; residuals are deposited
// once per accepted completion. Re-executed jobs (after a worker death)
// therefore reproduce the identical result and the ε-contract
// Upper−Lower ≤ 2ε survives worker loss.
func CompileExec(ctx context.Context, net *network.Net, opts Options, exec JobExecutor) (*Result, error) {
	return CompileExecObserve(ctx, net, opts, exec, nil)
}

// CompileExecObserve is CompileExec with a per-completion observer (used by
// SimulateWorkers and the distributed benchmark to collect job durations and
// the fork precedence graph). observe runs on the coordinator goroutine
// after the result is accepted; it receives the dispatched job, its result,
// and the IDs assigned to its forked children in fork order. The root job
// has ID 0.
func CompileExecObserve(ctx context.Context, net *network.Net, opts Options, exec JobExecutor, observe func(j *WireJob, res *WireResult, children []uint64)) (*Result, error) {
	opts = opts.withDefaults()
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
	budgeted := opts.Strategy.budgeted()

	span := opts.Obs.Root().Start("compile")
	defer span.End()
	span.SetStr("strategy", opts.Strategy.String())
	if opts.Strategy != Exact {
		span.SetFloat("eps", opts.Epsilon)
	}
	span.SetStr("mode", "executor")
	span.SetInt("targets", int64(len(net.Targets)))
	span.SetInt("nodes", int64(net.NumNodes()))

	tOrder := time.Now()
	orderSpan := span.Start("order")
	order := computeOrder(net, opts)
	orderSpan.SetInt("vars", int64(len(order)))
	orderSpan.End()
	orderDur := time.Since(tOrder)

	// The coordinator owns the authoritative book. The initial bottom-up
	// pass credits targets decided without any assignment, exactly as the
	// sequential run does first; job streams follow in merge order.
	book := newBoundsBook(len(net.Targets), eps2)
	tInit := time.Now()
	initSpan := span.Start("init")
	init := newCompCore(net, types, opts, book)
	init.attachRun(order, time.Time{}, nil, nil)
	init.initAll()
	initSpan.End()
	initDur := time.Since(tInit)

	tExplore := time.Now()
	dspan := span.Start("distribute")
	defer dspan.End()

	E0 := make([]float64, len(net.Targets))
	if budgeted {
		for i := range E0 {
			E0[i] = 2 * opts.Epsilon
		}
	}
	m := newMerger(book, &WireJob{ID: 0, P: 1, E: E0})
	pending := []uint64{0}
	nextID := uint64(1)
	pool := &budgetPool{}
	reg := opts.Obs.Metrics()
	depthG := reg.Gauge("prob.queue.depth")
	forkedC := reg.Counter("prob.jobs.forked")

	type execDone struct {
		id  uint64
		res *WireResult
		err error
	}
	resCh := make(chan execDone, 16)
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	var deadline time.Time
	var deadlineCh <-chan time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
		t := time.NewTimer(opts.Timeout)
		defer t.Stop()
		deadlineCh = t.C
	}

	var total Stats
	var firstErr error
	timedOut := false
	inflight := 0
	ctxDone := ctx.Done()

	for {
		if firstErr == nil && !timedOut {
			for len(pending) > 0 {
				slots := exec.Slots()
				if slots < 1 {
					if inflight == 0 {
						firstErr = fmt.Errorf("prob: compile: %w", ErrExecutorUnavailable)
					}
					break
				}
				if inflight >= slots {
					break
				}
				id := pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				cj := m.jobs[id]
				// Once every target is within 2ε the remaining subtrees
				// cannot improve the contract; skip them. Exact runs
				// (eps2 = 0) never skip, preserving bit-identity.
				if eps2 > 0 && book.allTight() {
					cj.state = jSkipped
					continue
				}
				if !deadline.IsZero() {
					rem := time.Until(deadline)
					if rem <= 0 {
						timedOut = true
						pending = append(pending, id)
						break
					}
					cj.wj.Timeout = rem
				}
				if budgeted && !cj.withdrawn {
					pool.withdraw(cj.wj.E)
					cj.withdrawn = true
				}
				cj.state = jInflight
				inflight++
				go func(id uint64, wj *WireJob) {
					// Per-job span carried on the context: a pool executor
					// propagates its trace context to the worker and splices
					// the remote subtree back underneath. Nil (tracing off)
					// flows through every call without allocating.
					jspan := dspan.Start("job")
					jspan.SetInt("id", int64(id))
					jspan.SetInt("depth", int64(len(wj.Path)))
					res, err := exec.ExecuteJob(obs.ContextWithSpan(runCtx, jspan), wj)
					if res != nil {
						jspan.SetInt("items", int64(len(res.Items)))
						jspan.SetInt("forks", int64(len(res.Forks)))
					}
					jspan.End()
					resCh <- execDone{id: id, res: res, err: err}
				}(id, cj.wj)
			}
		}
		if firstErr != nil || timedOut {
			for _, id := range pending {
				m.jobs[id].state = jSkipped
			}
			pending = pending[:0]
		}
		depthG.Set(float64(len(pending)))
		if inflight == 0 {
			if len(pending) == 0 {
				break
			}
			continue // re-enter dispatch (or the skip branch above)
		}
		select {
		case d := <-resCh:
			inflight--
			cj := m.jobs[d.id]
			if d.err != nil {
				if firstErr == nil && !timedOut && ctx.Err() == nil {
					firstErr = fmt.Errorf("prob: compile: %w", d.err)
					cancelRun()
				}
				cj.state = jSkipped
				continue
			}
			cj.state = jDone
			cj.res = d.res
			if budgeted && len(d.res.Residual) > 0 {
				pool.deposit(d.res.Residual)
			}
			if d.res.TimedOut {
				timedOut = true
			}
			cj.children = make([]uint64, len(d.res.Forks))
			for k := range d.res.Forks {
				fk := d.res.Forks[k]
				cid := nextID
				nextID++
				cj.children[k] = cid
				m.jobs[cid] = &cjob{wj: &WireJob{ID: cid, Path: fk.Path, OI: fk.OI, P: fk.P, E: fk.E}}
			}
			forkedC.Add(int64(len(cj.children)))
			// LIFO with children reversed: the leftmost child runs first,
			// keeping dispatch close to sequential DFS order so the merge
			// stack rarely stalls.
			for k := len(cj.children) - 1; k >= 0; k-- {
				pending = append(pending, cj.children[k])
			}
			st := d.res.Stats
			total.Branches += st.Branches
			total.Assignments += st.Assignments
			total.MaskUpdates += st.MaskUpdates
			total.BudgetPrunes += st.BudgetPrunes
			if st.MaxDepth > total.MaxDepth {
				total.MaxDepth = st.MaxDepth
			}
			total.Jobs++
			if observe != nil {
				observe(cj.wj, d.res, cj.children)
			}
			m.run()
		case <-deadlineCh:
			timedOut = true
			deadlineCh = nil
		case <-ctxDone:
			if firstErr == nil {
				firstErr = fmt.Errorf("prob: compile: %w", ctx.Err())
			}
			cancelRun()
			ctxDone = nil
		}
	}

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("prob: compile: %w", err)
	}
	m.run()

	total.MaskUpdates += init.st().MaskUpdates
	if !opts.LegacyCore {
		total.MaskWords = int64(bitsetWords(net.NumNodes()))
	}
	total.BatchTargets = int64(len(net.Targets))
	total.NetworkNodes = net.NumNodes()
	total.Timings.Order = orderDur
	total.Timings.Init = initDur
	total.Timings.Explore = time.Since(tExplore)
	total.Duration = orderDur + initDur + total.Timings.Explore
	dspan.SetInt("jobs", total.Jobs)
	span.SetInt("branches", total.Branches)
	span.SetInt("max_depth", total.MaxDepth)
	if reg != nil {
		reg.Counter("prob.branches").Add(total.Branches)
		reg.Counter("prob.assignments").Add(total.Assignments)
		reg.Counter("prob.mask_updates").Add(total.MaskUpdates)
		reg.Counter("prob.budget_prunes").Add(total.BudgetPrunes)
		reg.Counter("prob.jobs").Add(total.Jobs)
		reg.Counter("prob.mask_words").Add(total.MaskWords)
		reg.Counter("prob.batch_targets").Add(total.BatchTargets)
		reg.Gauge("prob.tree.max_depth").SetMax(float64(total.MaxDepth))
	}

	lo, hi := book.snapshot()
	res := &Result{Stats: total, TimedOut: timedOut}
	for i, t := range net.Targets {
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

// compileWorkers runs a Workers > 1 compilation through the coordinator
// over an in-process LocalExecutor. Real runs give the executor Workers
// slots and report its per-slot accounting. Simulated runs execute one job
// at a time and list-schedule the measured job DAG onto Workers virtual
// workers (ListSchedule), reporting the virtual makespan.
func compileWorkers(ctx context.Context, net *network.Net, opts Options) (*Result, error) {
	sess, err := NewSession(net, opts)
	if err != nil {
		return nil, err
	}
	if !opts.SimulateWorkers {
		exec := NewLocalExecutor(sess, opts.Workers)
		res, err := CompileExec(ctx, net, opts, exec)
		if err != nil {
			return nil, err
		}
		res.Stats.PerWorker = exec.WorkerStats()
		publishUtilization(opts.Obs, res.Stats.PerWorker, res.Stats.Timings.Explore)
		return res, nil
	}
	jobs := map[uint64]SimJob{}
	res, err := CompileExecObserve(ctx, net, opts, NewLocalExecutor(sess, 1),
		func(j *WireJob, r *WireResult, children []uint64) {
			jobs[j.ID] = SimJob{
				Dur:      time.Duration(r.Stats.DurNanos),
				Branches: r.Stats.Branches,
				Children: children,
			}
		})
	if err != nil {
		return nil, err
	}
	res.Stats.SimulatedMakespan, res.Stats.PerWorker = ListSchedule(jobs, []uint64{0}, opts.Workers)
	publishUtilization(opts.Obs, res.Stats.PerWorker, res.Stats.SimulatedMakespan)
	return res, nil
}

// publishUtilization sets prob.worker.<i>.utilization to each worker's busy
// share of the makespan.
func publishUtilization(tr *obs.Trace, per []WorkerStats, makespan time.Duration) {
	reg := tr.Metrics()
	if reg == nil {
		return
	}
	for wi, ws := range per {
		reg.Gauge(fmt.Sprintf("prob.worker.%d.utilization", wi)).Set(ws.Utilization(makespan))
	}
}

// Coordinator job states.
const (
	jPending uint8 = iota
	jInflight
	jDone
	jSkipped
)

// cjob is the coordinator's record of one job: what was shipped, the
// accepted result, and the IDs assigned to its forks in fork order.
type cjob struct {
	wj        *WireJob
	res       *WireResult
	children  []uint64
	state     uint8
	withdrawn bool
}

// mergeFrame is a position in one job's item stream.
type mergeFrame struct {
	id   uint64
	item int
}

// merger replays accepted item streams into the book in sequential DFS
// order: an explicit stack of (job, item-index) frames walks the streams
// depth-first, descending into a child at its fork marker and pausing
// whenever the next needed result has not arrived yet. A job's entry is
// deleted when its frame pops — by then its stream and every child's are
// merged — so the table holds only jobs still pending, in flight, or on the
// merge path, not every result of the run.
type merger struct {
	book  *boundsBook
	jobs  map[uint64]*cjob
	stack []mergeFrame
}

func newMerger(book *boundsBook, root *WireJob) *merger {
	return &merger{
		book:  book,
		jobs:  map[uint64]*cjob{root.ID: {wj: root}},
		stack: []mergeFrame{{id: root.ID}},
	}
}

// run merges as far as the arrived results allow.
func (m *merger) run() {
	for len(m.stack) > 0 {
		f := &m.stack[len(m.stack)-1]
		cj := m.jobs[f.id]
		if cj.state == jSkipped {
			m.pop()
			continue
		}
		if cj.state != jDone {
			return
		}
		descended := false
		for f.item < len(cj.res.Items) {
			it := cj.res.Items[f.item]
			f.item++
			if it.Kind == ItemAdd {
				m.book.add(int(it.Target), it.IsTrue, it.Mass)
				continue
			}
			m.stack = append(m.stack, mergeFrame{id: cj.children[it.Fork]})
			descended = true
			break
		}
		if !descended {
			m.pop()
		}
	}
}

func (m *merger) pop() {
	delete(m.jobs, m.stack[len(m.stack)-1].id)
	m.stack = m.stack[:len(m.stack)-1]
}

// budgetPool redistributes residual error budgets between jobs.
type budgetPool struct {
	mu   sync.Mutex
	pool []float64
}

// deposit returns a job's residual budgets to the pool.
func (b *budgetPool) deposit(E []float64) {
	b.mu.Lock()
	if b.pool == nil {
		b.pool = make([]float64, len(E))
	}
	for i, e := range E {
		if e > 0 {
			b.pool[i] += e
		}
	}
	b.mu.Unlock()
}

// withdraw moves the whole pooled budget into E.
func (b *budgetPool) withdraw(E []float64) {
	b.mu.Lock()
	if b.pool != nil {
		for i := range E {
			E[i] += b.pool[i]
			b.pool[i] = 0
		}
	}
	b.mu.Unlock()
}
