package prob

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"enframe/internal/network"
	"enframe/internal/obs"
)

// execCompile runs CompileExec over a fresh local session.
func execCompile(t *testing.T, net *network.Net, opts Options, slots int) *Result {
	t.Helper()
	sess, err := NewSession(net, opts)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	res, err := CompileExec(context.Background(), net, opts, NewLocalExecutor(sess, slots))
	if err != nil {
		t.Fatalf("CompileExec: %v", err)
	}
	return res
}

// TestCompileExecBitIdentical is the byte-identity contract of the
// executor-driven plane: exact marginals from job-sharded execution must
// equal the sequential run bit for bit, because the coordinator replays
// bound contributions in sequential DFS order.
func TestCompileExecBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for trial := 0; trial < 40; trial++ {
		net := randomNet(rng, 3+rng.Intn(8), 1+rng.Intn(4))
		seq, err := Compile(net, Options{Strategy: Exact, JobDepth: 2})
		if err != nil {
			t.Fatalf("trial %d: sequential: %v", trial, err)
		}
		for _, slots := range []int{1, 3} {
			got := execCompile(t, net, Options{Strategy: Exact, JobDepth: 2}, slots)
			for i, tb := range got.Targets {
				want := seq.Targets[i]
				if math.Float64bits(tb.Lower) != math.Float64bits(want.Lower) ||
					math.Float64bits(tb.Upper) != math.Float64bits(want.Upper) {
					t.Fatalf("trial %d slots %d target %s: got [%x, %x], want [%x, %x]",
						trial, slots, tb.Name,
						math.Float64bits(tb.Lower), math.Float64bits(tb.Upper),
						math.Float64bits(want.Lower), math.Float64bits(want.Upper))
				}
			}
		}
	}
}

// TestCompileExecApproxContract checks Upper−Lower ≤ 2ε and enclosure of the
// true probability for the budgeted strategies under the executor plane.
func TestCompileExecApproxContract(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	const eps = 0.05
	for trial := 0; trial < 25; trial++ {
		net := randomNet(rng, 3+rng.Intn(7), 1+rng.Intn(3))
		want := exactByEnumeration(net)
		for _, strat := range []Strategy{Eager, Lazy, Hybrid} {
			res := execCompile(t, net, Options{Strategy: strat, Epsilon: eps, JobDepth: 2}, 2)
			for i, tb := range res.Targets {
				if tb.Gap() > 2*eps+1e-9 {
					t.Fatalf("trial %d %v target %s: gap %g > 2ε", trial, strat, tb.Name, tb.Gap())
				}
				if want[i] < tb.Lower-1e-9 || want[i] > tb.Upper+1e-9 {
					t.Fatalf("trial %d %v target %s: %g outside [%g, %g]",
						trial, strat, tb.Name, want[i], tb.Lower, tb.Upper)
				}
			}
		}
	}
}

// flakyExecutor fails every job with a transport error until failLeft hits
// zero, then delegates — exercising MultiExecutor dead-marking and the
// duplicate-free budget discipline across retries.
type flakyExecutor struct {
	inner    JobExecutor
	failLeft atomic.Int64
}

func (f *flakyExecutor) ExecuteJob(ctx context.Context, j *WireJob) (*WireResult, error) {
	if f.failLeft.Add(-1) >= 0 {
		return nil, ErrExecutorUnavailable
	}
	return f.inner.ExecuteJob(ctx, j)
}

func (f *flakyExecutor) Slots() int { return 1 }

func TestMultiExecutorFailover(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	net := randomNet(rng, 8, 3)
	opts := Options{Strategy: Exact, JobDepth: 2}
	seq, err := Compile(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	bad := &flakyExecutor{inner: NewLocalExecutor(sess, 1)}
	bad.failLeft.Store(1 << 30) // never recovers: always unavailable
	multi := NewMultiExecutor(bad, NewLocalExecutor(sess, 2))
	res, err := CompileExec(context.Background(), net, opts, multi)
	if err != nil {
		t.Fatalf("CompileExec with failover: %v", err)
	}
	for i, tb := range res.Targets {
		if math.Float64bits(tb.Lower) != math.Float64bits(seq.Targets[i].Lower) {
			t.Fatalf("target %s: failover broke bit-identity", tb.Name)
		}
	}
}

func TestMultiExecutorAllDead(t *testing.T) {
	bad := &flakyExecutor{}
	bad.failLeft.Store(1 << 30)
	multi := NewMultiExecutor(bad)
	_, err := multi.ExecuteJob(context.Background(), &WireJob{})
	if !errors.Is(err, ErrExecutorUnavailable) {
		t.Fatalf("want ErrExecutorUnavailable, got %v", err)
	}
}

func TestCompileExecCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(174))
	net := randomNet(rng, 10, 3)
	sess, err := NewSession(net, Options{Strategy: Exact})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = CompileExec(ctx, net, Options{Strategy: Exact}, NewLocalExecutor(sess, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// cancelingExecutor cancels the compilation from inside its first job, so
// the cancellation provably lands mid-run without a wall-clock sleep.
type cancelingExecutor struct {
	inner  JobExecutor
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelingExecutor) ExecuteJob(ctx context.Context, j *WireJob) (*WireResult, error) {
	c.once.Do(c.cancel)
	return c.inner.ExecuteJob(ctx, j)
}

func (c *cancelingExecutor) Slots() int { return c.inner.Slots() }

// TestCompileCtxCancelUnblocksDistributed: cancelling a multi-worker
// compilation, mid-run or before it starts, returns context.Canceled rather
// than hanging or returning a partial result.
func TestCompileCtxCancelUnblocksDistributed(t *testing.T) {
	rng := rand.New(rand.NewSource(175))
	net := randomNet(rng, 14, 4)
	opts := Options{Strategy: Exact, Workers: 4, JobDepth: 1}

	sess, err := NewSession(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exec := &cancelingExecutor{inner: NewLocalExecutor(sess, opts.Workers), cancel: cancel}
	if _, err := CompileExec(ctx, net, opts, exec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel inside the first job: want context.Canceled, got %v", err)
	}

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := CompileCtx(pre, net, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled CompileCtx: want context.Canceled, got %v", err)
	}
}

// TestQueueMetrics checks the coordinator publishes the pending-job gauge
// and counts every forked job.
func TestQueueMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(176))
	net := randomNet(rng, 10, 3)
	tr := obs.New("test")
	res, err := Compile(net, Options{Strategy: Exact, Workers: 3, JobDepth: 1, Obs: tr})
	if err != nil {
		t.Fatal(err)
	}
	reg := tr.Metrics()
	// Every job but the root was forked by another.
	if forked := reg.Counter("prob.jobs.forked").Value(); forked == 0 || forked != res.Stats.Jobs-1 {
		t.Fatalf("prob.jobs.forked = %d, want jobs-1 = %d > 0", forked, res.Stats.Jobs-1)
	}
	found := false
	for _, v := range reg.Values() {
		if v.Name == "prob.queue.depth" {
			found = true
		}
	}
	if !found {
		t.Fatal("prob.queue.depth gauge not registered")
	}
}

// TestWorkersDeterministic: the job driver makes multi-worker exact runs
// repeatable — work counters as well as marginals, which must equal the
// sequential run bit for bit.
func TestWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(177))
	for trial := 0; trial < 15; trial++ {
		net := randomNet(rng, 6+rng.Intn(8), 1+rng.Intn(4))
		seq, err := Compile(net, Options{Strategy: Exact})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			opts := Options{Strategy: Exact, Workers: w, JobDepth: 1}
			first, err := Compile(net, opts)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ {
				again, err := Compile(net, opts)
				if err != nil {
					t.Fatal(err)
				}
				a, b := first.Stats, again.Stats
				if a.Branches != b.Branches || a.Assignments != b.Assignments ||
					a.MaskUpdates != b.MaskUpdates || a.Jobs != b.Jobs {
					t.Fatalf("trial %d W=%d: repeat changed counters: branches %d/%d assignments %d/%d mask_updates %d/%d jobs %d/%d",
						trial, w, a.Branches, b.Branches, a.Assignments, b.Assignments,
						a.MaskUpdates, b.MaskUpdates, a.Jobs, b.Jobs)
				}
			}
			for i, tb := range first.Targets {
				want := seq.Targets[i]
				if math.Float64bits(tb.Lower) != math.Float64bits(want.Lower) ||
					math.Float64bits(tb.Upper) != math.Float64bits(want.Upper) {
					t.Fatalf("trial %d W=%d target %s: [%x, %x], sequential [%x, %x]", trial, w, tb.Name,
						math.Float64bits(tb.Lower), math.Float64bits(tb.Upper),
						math.Float64bits(want.Lower), math.Float64bits(want.Upper))
				}
			}
		}
	}
}
