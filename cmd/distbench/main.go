// Command distbench exercises the distributed compilation plane
// (internal/dist, DESIGN.md) across real process boundaries: it spawns
// `enframe worker` child processes, ships jobs to them over TCP, and checks
// the results against the in-process pipeline.
//
// Modes:
//
//	distbench -smoke
//	    Spawn two workers, compile the builtin kmedoids workload over them,
//	    and require the marginals to be byte-identical to the sequential
//	    in-process compile; then repeat with a worker configured to kill
//	    itself mid-run and require the surviving worker to absorb the jobs
//	    with the same bit-exact result. Exits non-zero on any divergence.
//
//	distbench -trace-smoke
//	    Spawn one worker, run `enframe -remote ADDR -trace-out FILE` through
//	    the real CLI, and require the emitted Chrome trace to parse and to
//	    carry the worker's spans on its own named process lane — the
//	    cross-process trace propagation path end to end.
//
//	distbench -out BENCH_distributed.json
//	    Measure per-job busy times over a real worker and compute virtual
//	    makespans for 1/2/4 workers with an event-driven list scheduler over
//	    the measured job DAG. The container is single-CPU, so real N-process
//	    scaling is unmeasurable here; the virtual makespan — the schedule
//	    length if each job ran on its own CPU — is the honest proxy (the
//	    paper's §5 scalability methodology). Real wall-clock numbers are
//	    recorded alongside, labeled as such. Fails unless the 4-worker
//	    virtual throughput is ≥ 1.5× the 1-worker one.
//
// The enframe binary is built on demand unless -enframe points at one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"enframe/internal/benchutil"
	"enframe/internal/core"
	"enframe/internal/dist"
	"enframe/internal/prob"
	"enframe/internal/server"
)

var (
	enframeFlag = flag.String("enframe", "", "path to an enframe binary (empty: go build one into a temp dir)")
	smokeFlag   = flag.Bool("smoke", false, "run the two-process byte-identity and fault smoke checks")
	traceFlag   = flag.Bool("trace-smoke", false, "run one remote compile via the CLI and verify the Chrome trace carries worker-process lanes")
	outFlag     = flag.String("out", "", "write the virtual-scaling benchmark to this JSON file")
	nFlag       = flag.Int("n", 16, "bench workload: data points")
	iterFlag    = flag.Int("iter", 3, "bench workload: kmedoids iterations")
	depthFlag   = flag.Int("depth", 1, "bench workload: job depth d")
)

func main() {
	flag.Parse()
	if !*smokeFlag && !*traceFlag && *outFlag == "" {
		fmt.Fprintln(os.Stderr, "distbench: nothing to do (want -smoke, -trace-smoke, and/or -out FILE)")
		os.Exit(2)
	}
	bin, cleanup, err := ensureEnframe()
	if err != nil {
		fatal(err)
	}
	defer cleanup()
	if *smokeFlag {
		if err := runSmoke(bin); err != nil {
			fatal(err)
		}
	}
	if *traceFlag {
		if err := runTraceSmoke(bin); err != nil {
			fatal(err)
		}
	}
	if *outFlag != "" {
		if err := runBench(bin, *outFlag); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distbench:", err)
	os.Exit(1)
}

// ensureEnframe returns a runnable enframe binary, building one when the
// flag doesn't name it.
func ensureEnframe() (string, func(), error) {
	return benchutil.BuildEnframe(*enframeFlag)
}

// spawnWorker starts one `enframe worker` child on an ephemeral port via the
// shared LISTEN spawn protocol (benchutil).
func spawnWorker(bin string, extra ...string) (addr string, stop func(), err error) {
	args := append([]string{"worker", "-listen", "127.0.0.1:0", "-quiet"}, extra...)
	p, err := benchutil.SpawnListen(bin, args...)
	if err != nil {
		return "", nil, err
	}
	return p.Addr, p.Stop, nil
}

// workload is the benchmark/smoke request: the paper's kmedoids program over
// the synthetic sensor feed, in the served request shape both the pool and
// the workers resolve identically.
func workload(n, iter, depth int) server.RunRequest {
	return server.RunRequest{
		Program:  "kmedoids",
		Data:     server.DataSpec{N: n, Scheme: "positive", Vars: 10, L: 8, Seed: 1},
		Params:   server.ParamSpec{K: 2, Iter: iter},
		Strategy: "exact",
		JobDepth: depth,
	}
}

// prepare resolves the request into an artifact plus ready-to-ship options.
func prepare(req server.RunRequest) (*core.Artifact, string, []byte, prob.Options, error) {
	spec, key, err := server.BuildSpec(req)
	if err != nil {
		return nil, "", nil, prob.Options{}, err
	}
	art, err := core.PrepareContext(context.Background(), spec)
	if err != nil {
		return nil, "", nil, prob.Options{}, err
	}
	specJSON, err := json.Marshal(server.ArtifactRequest(req))
	if err != nil {
		return nil, "", nil, prob.Options{}, err
	}
	opts := prob.Options{Strategy: prob.Exact, JobDepth: req.JobDepth}
	opts.Order = art.Order(opts.Heuristic)
	return art, key, specJSON, opts, nil
}

func sameMarginals(got, want *prob.Result) error {
	if len(got.Targets) != len(want.Targets) {
		return fmt.Errorf("target count %d vs %d", len(got.Targets), len(want.Targets))
	}
	for i, g := range got.Targets {
		w := want.Targets[i]
		if g.Name != w.Name ||
			math.Float64bits(g.Lower) != math.Float64bits(w.Lower) ||
			math.Float64bits(g.Upper) != math.Float64bits(w.Upper) {
			return fmt.Errorf("target %s: remote [%v,%v] vs local [%v,%v]",
				g.Name, g.Lower, g.Upper, w.Lower, w.Upper)
		}
	}
	return nil
}

func runSmoke(bin string) error {
	ctx := context.Background()
	req := workload(12, 2, 1)
	art, key, specJSON, opts, err := prepare(req)
	if err != nil {
		return err
	}
	local, err := prob.CompileCtx(ctx, art.Net, opts)
	if err != nil {
		return fmt.Errorf("local reference: %w", err)
	}

	// Pass 1: two healthy worker processes, byte-identical marginals.
	a1, stop1, err := spawnWorker(bin)
	if err != nil {
		return err
	}
	defer stop1()
	a2, stop2, err := spawnWorker(bin)
	if err != nil {
		return err
	}
	defer stop2()
	pool, err := dist.NewPool(ctx, dist.PoolConfig{Addrs: []string{a1, a2}})
	if err != nil {
		return err
	}
	remote, err := prob.CompileExec(ctx, art.Net, opts, pool.Session(key, specJSON, dist.FromOptions(opts)))
	pool.Close()
	if err != nil {
		return fmt.Errorf("remote compile: %w", err)
	}
	if err := sameMarginals(remote, local); err != nil {
		return fmt.Errorf("two-worker pass: %w", err)
	}
	fmt.Printf("distbench: smoke: %d marginals byte-identical across 2 worker processes (%d jobs)\n",
		len(remote.Targets), remote.Stats.Jobs)

	// Pass 2: one worker kills itself mid-run; the survivor must absorb the
	// reassigned jobs and the merged result must still be bit-exact.
	ak, stopK, err := spawnWorker(bin, "-fault-kill-after", "3")
	if err != nil {
		return err
	}
	defer stopK()
	pool, err = dist.NewPool(ctx, dist.PoolConfig{
		Addrs: []string{ak, a1}, MaxRetries: 6, JobTimeout: 5 * time.Second,
	})
	if err != nil {
		return err
	}
	remote, err = prob.CompileExec(ctx, art.Net, opts, pool.Session(key, specJSON, dist.FromOptions(opts)))
	alive := pool.AliveWorkers()
	pool.Close()
	if err != nil {
		return fmt.Errorf("fault-pass compile: %w", err)
	}
	if err := sameMarginals(remote, local); err != nil {
		return fmt.Errorf("fault pass: %w", err)
	}
	if alive != 1 {
		return fmt.Errorf("fault pass: want 1 surviving worker, have %d", alive)
	}
	fmt.Println("distbench: smoke: worker killed mid-run, survivor absorbed the jobs bit-exactly")
	return nil
}

// runTraceSmoke drives the user-facing distributed-tracing path: a real
// worker process, a real `enframe -remote ... -trace-out` coordinator run,
// and structural checks on the emitted Chrome trace — it must parse, hold
// spans on at least two distinct pid lanes, and name the worker's lane.
func runTraceSmoke(bin string) error {
	addr, stop, err := spawnWorker(bin)
	if err != nil {
		return err
	}
	defer stop()

	dir, err := os.MkdirTemp("", "trace-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	traceFile := filepath.Join(dir, "trace.json")

	cmd := exec.Command(bin,
		"-remote", addr, "-trace-out", traceFile, "-json",
		"-n", "10", "-iter", "2", "-job", "2")
	cmd.Stdout = os.Stderr // the JSON result is not under test; keep stdout clean
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("enframe -remote -trace-out: %w", err)
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		return err
	}
	var trace struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		return fmt.Errorf("trace output is not valid Chrome trace JSON: %w", err)
	}

	spanPIDs := map[int]int{}
	laneNames := map[int]string{}
	for _, ev := range trace.TraceEvents {
		switch ev.Phase {
		case "X":
			spanPIDs[ev.PID]++
		case "M":
			if ev.Name == "process_name" {
				name, _ := ev.Args["name"].(string)
				laneNames[ev.PID] = name
			}
		}
	}
	if len(spanPIDs) < 2 {
		return fmt.Errorf("trace has spans on %d pid lane(s), want >= 2 (coordinator + worker)", len(spanPIDs))
	}
	workerLanes := 0
	for pid, n := range spanPIDs {
		if pid == 1 {
			continue
		}
		name := laneNames[pid]
		if name == "" {
			return fmt.Errorf("pid lane %d has %d spans but no process_name metadata", pid, n)
		}
		workerLanes++
		fmt.Printf("distbench: trace-smoke: lane pid=%d %q carries %d worker spans\n", pid, name, n)
	}
	if workerLanes == 0 {
		return fmt.Errorf("no worker pid lanes in trace")
	}
	fmt.Printf("distbench: trace-smoke: single Chrome trace, %d coordinator spans + %d worker lane(s)\n",
		spanPIDs[1], workerLanes)
	return nil
}

// benchReport is the BENCH_distributed.json shape.
type benchReport struct {
	Workload          string             `json:"workload"`
	Jobs              int                `json:"jobs"`
	TotalJobMs        float64            `json:"total_job_busy_ms"`
	CriticalPathMs    float64            `json:"critical_path_ms"`
	VirtualMakespanMs map[string]float64 `json:"virtual_makespan_ms"`
	VirtualSpeedup    map[string]float64 `json:"virtual_speedup"`
	RealWallClockMs   map[string]float64 `json:"real_wall_clock_ms"`
	Note              string             `json:"note"`
}

func runBench(bin, out string) error {
	ctx := context.Background()
	req := workload(*nFlag, *iterFlag, *depthFlag)
	art, key, specJSON, opts, err := prepare(req)
	if err != nil {
		return err
	}

	tLocal := time.Now()
	if _, err := prob.CompileCtx(ctx, art.Net, opts); err != nil {
		return fmt.Errorf("local reference: %w", err)
	}
	localMs := ms(time.Since(tLocal))

	addr, stop, err := spawnWorker(bin)
	if err != nil {
		return err
	}
	defer stop()
	pool, err := dist.NewPool(ctx, dist.PoolConfig{Addrs: []string{addr}})
	if err != nil {
		return err
	}
	defer pool.Close()

	// Record the fork DAG and each job's worker-side busy time.
	jobs := map[uint64]prob.SimJob{}
	exec := pool.Session(key, specJSON, dist.FromOptions(opts))
	tRemote := time.Now()
	_, err = prob.CompileExecObserve(ctx, art.Net, opts, exec,
		func(j *prob.WireJob, res *prob.WireResult, children []uint64) {
			jobs[j.ID] = prob.SimJob{Dur: time.Duration(res.Stats.DurNanos), Children: children}
		})
	if err != nil {
		return fmt.Errorf("remote measure run: %w", err)
	}
	remoteMs := ms(time.Since(tRemote))

	var total time.Duration
	for _, j := range jobs {
		total += j.Dur
	}
	roots := []uint64{0} // the coordinator's root job; every other job is forked
	critical, _ := prob.ListSchedule(jobs, roots, len(jobs))

	rep := benchReport{
		Workload: fmt.Sprintf("kmedoids n=%d k=2 iter=%d depth=%d scheme=positive vars=10",
			*nFlag, *iterFlag, *depthFlag),
		Jobs:              len(jobs),
		TotalJobMs:        ms(total),
		CriticalPathMs:    ms(critical),
		VirtualMakespanMs: map[string]float64{},
		VirtualSpeedup:    map[string]float64{},
		RealWallClockMs: map[string]float64{
			"local_sequential":        localMs,
			"remote_1worker_measured": remoteMs,
		},
		Note: "virtual makespans: event-driven list schedule over per-job worker busy times " +
			"and the measured fork DAG; the CI container is single-CPU, so real multi-process " +
			"wall clock cannot show scaling and is recorded only for context",
	}
	base, _ := prob.ListSchedule(jobs, roots, 1)
	for _, w := range []int{1, 2, 4, 8} {
		m, _ := prob.ListSchedule(jobs, roots, w)
		rep.VirtualMakespanMs[fmt.Sprint(w)] = ms(m)
		if m > 0 {
			rep.VirtualSpeedup[fmt.Sprint(w)] = float64(base) / float64(m)
		}
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("distbench: %d jobs, virtual speedup ×%.2f at 4 workers (wrote %s)\n",
		rep.Jobs, rep.VirtualSpeedup["4"], out)
	if rep.VirtualSpeedup["4"] < 1.5 {
		return fmt.Errorf("virtual speedup at 4 workers is ×%.2f, below the ×1.5 floor", rep.VirtualSpeedup["4"])
	}
	return nil
}

func ms(d time.Duration) float64 { return benchutil.Ms(d) }
