package prob

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"enframe/internal/event"
	"enframe/internal/obs"
)

// ErrExecutorUnavailable marks transport-level executor failures: the worker
// process died, the connection broke, or no executor has free capacity left.
// The coordinator and MultiExecutor treat it as retryable on a different
// executor; execution errors (a job that genuinely failed) are not wrapped in
// it and fail the compilation.
var ErrExecutorUnavailable = errors.New("prob: job executor unavailable")

// Assign is one Shannon-expansion decision: variable x set to Val. A job's
// Path is the sequence of Assigns from the decision-tree root to the job's
// fork point; replaying it against the post-init state reproduces the
// forking worker's masks bit-exactly (propagation is deterministic), which
// is why jobs ship paths instead of mask snapshots.
type Assign struct {
	Var event.VarID
	Val bool
}

// WireJob is one depth-d decision-tree fragment shipped to an executor
// (paper §4.4). OI is the variable-order position to resume from, P the
// branch probability at the fork point, and E the per-target error budgets
// the job carries (all zero for exact compilation). Timeout, when positive,
// bounds the job's execution from its start; the result then returns
// partial with TimedOut set.
type WireJob struct {
	ID      uint64
	Path    []Assign
	OI      int
	P       float64
	E       []float64
	Timeout time.Duration
}

// ItemKind discriminates WireItem entries.
type ItemKind uint8

const (
	// ItemAdd records one bound contribution (boundsBook.add).
	ItemAdd ItemKind = iota
	// ItemFork marks where a continuation job was forked; Fork indexes the
	// result's Forks slice. The coordinator splices the child's full item
	// stream at this position, reproducing sequential DFS order.
	ItemFork
)

// WireItem is one entry of a job's ordered result stream. Float addition is
// not associative, so bit-identical marginals require replaying the adds in
// the exact order the sequential run would produce them; the item stream,
// with fork markers spliced recursively, is that order.
type WireItem struct {
	Kind   ItemKind
	Target int32
	IsTrue bool
	Fork   int32
	Mass   float64
}

// WireFork describes a continuation job forked while executing a job: the
// full root-relative assignment path, resume position, branch probability,
// and the budget shipped with it.
type WireFork struct {
	Path []Assign
	OI   int
	P    float64
	E    []float64
}

// JobStats counts the work one job performed (worker-side).
type JobStats struct {
	Branches     int64
	Assignments  int64
	MaskUpdates  int64
	BudgetPrunes int64
	MaxDepth     int64
	// DurNanos is the job's busy time on the worker; the distributed
	// benchmark schedules these durations onto virtual clusters.
	DurNanos int64
}

// WireResult is a completed job: the ordered item stream, the fork specs the
// stream references, the residual error budget to return to the shared pool,
// and work stats. Results are deterministic for exact compilation — re-
// executing the same job after a worker loss reproduces the same stream, so
// merging a duplicate completion is idempotent by construction.
type WireResult struct {
	ID       uint64
	Items    []WireItem
	Forks    []WireFork
	Residual []float64
	TimedOut bool
	Stats    JobStats
}

// JobExecutor executes decision-tree jobs. The in-process Session-backed
// LocalExecutor is one implementation; internal/dist's remote worker pool is
// another; MultiExecutor composes them. Implementations must be safe for
// concurrent ExecuteJob calls.
type JobExecutor interface {
	// ExecuteJob runs one job to completion. Transport-level failures
	// (worker death, broken pipe, no capacity) are reported as errors
	// wrapping ErrExecutorUnavailable; other errors are permanent.
	ExecuteJob(ctx context.Context, j *WireJob) (*WireResult, error)
	// Slots is the executor's current parallel capacity; the coordinator
	// keeps at most this many jobs in flight. It may change over time as
	// workers join or die; 0 means the executor cannot take work.
	Slots() int
}

// LocalExecutor runs jobs in-process against a Session. Each job borrows
// one of its slot ids for its duration: the job's span moves to that slot's
// trace lane, and the slot accounts the job in its WorkerStats.
type LocalExecutor struct {
	sess *Session
	free chan int // idle slot ids; a semaphore of capacity slots

	mu    sync.Mutex
	stats []WorkerStats
}

// NewLocalExecutor wraps a session as a JobExecutor with the given
// concurrency (minimum 1).
func NewLocalExecutor(sess *Session, slots int) *LocalExecutor {
	if slots < 1 {
		slots = 1
	}
	l := &LocalExecutor{sess: sess, free: make(chan int, slots), stats: make([]WorkerStats, slots)}
	for i := 0; i < slots; i++ {
		l.free <- i
	}
	return l
}

func (l *LocalExecutor) ExecuteJob(ctx context.Context, j *WireJob) (*WireResult, error) {
	var slot int
	select {
	case slot = <-l.free:
	case <-ctx.Done():
		return nil, fmt.Errorf("prob: job %d: %w", j.ID, ctx.Err())
	}
	defer func() { l.free <- slot }()
	if sp := obs.SpanFromContext(ctx); sp != nil {
		sp.SetTID(slot + 2) // lane 1 is the coordinator's
		sp.SetInt("worker", int64(slot))
	}
	res, err := l.sess.ExecJob(ctx, j)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	ws := &l.stats[slot]
	ws.Jobs++
	ws.Branches += res.Stats.Branches
	ws.Busy += time.Duration(res.Stats.DurNanos)
	l.mu.Unlock()
	return res, nil
}

func (l *LocalExecutor) Slots() int { return cap(l.free) }

// WorkerStats returns each slot's jobs, branches and busy time so far.
func (l *LocalExecutor) WorkerStats() []WorkerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]WorkerStats(nil), l.stats...)
}

// MultiExecutor fans jobs out over several executors, routing each job to
// the least-loaded live one. An executor that fails with
// ErrExecutorUnavailable is marked dead and the job retries on the others,
// which is how mixed local+remote execution degrades gracefully when remote
// workers die.
type MultiExecutor struct {
	mu       sync.Mutex
	execs    []JobExecutor
	inflight []int
	dead     []bool
}

// NewMultiExecutor composes executors; at least one is required.
func NewMultiExecutor(execs ...JobExecutor) *MultiExecutor {
	return &MultiExecutor{
		execs:    execs,
		inflight: make([]int, len(execs)),
		dead:     make([]bool, len(execs)),
	}
}

// pick returns the live executor with the most free capacity, skipping
// excluded indices; -1 when none qualifies.
func (m *MultiExecutor) pick(exclude []bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	best, bestFree := -1, 0
	for i, e := range m.execs {
		if m.dead[i] || (exclude != nil && exclude[i]) {
			continue
		}
		free := e.Slots() - m.inflight[i]
		if best == -1 || free > bestFree {
			best, bestFree = i, free
		}
	}
	if best >= 0 {
		m.inflight[best]++
	}
	return best
}

func (m *MultiExecutor) release(i int) {
	m.mu.Lock()
	m.inflight[i]--
	m.mu.Unlock()
}

func (m *MultiExecutor) markDead(i int) {
	m.mu.Lock()
	m.dead[i] = true
	m.mu.Unlock()
}

func (m *MultiExecutor) ExecuteJob(ctx context.Context, j *WireJob) (*WireResult, error) {
	tried := make([]bool, len(m.execs))
	for {
		i := m.pick(tried)
		if i < 0 {
			return nil, fmt.Errorf("prob: all executors failed: %w", ErrExecutorUnavailable)
		}
		res, err := m.execs[i].ExecuteJob(ctx, j)
		m.release(i)
		if err != nil && errors.Is(err, ErrExecutorUnavailable) && ctx.Err() == nil {
			m.markDead(i)
			tried[i] = true
			continue
		}
		return res, err
	}
}

// Slots sums the live executors' capacity.
func (m *MultiExecutor) Slots() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for i, e := range m.execs {
		if !m.dead[i] {
			n += e.Slots()
		}
	}
	return n
}
