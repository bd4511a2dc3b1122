// Command perfbench is the repository benchmark: one seeded command that
// runs a named workload (offline, serve or stream) against the in-process
// ENFrame packages, checks the outputs, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are its per-layer metrics, taken from a traced run in
// which the benchmark times each of its own calls into a layer. See
// README.md in this directory.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

//go:embed config.json
var configJSON []byte

// config is the part of config.json the benchmark reads: the fixed settings
// BENCHMARK.json's fixed schema has no place for. The file also records, for
// readers, the held-out seed and the layer → metric mapping.
type config struct {
	DefaultSeed int64 `json:"default_seed"`
	Serve       struct {
		LowRPS          float64 `json:"low_rps"`
		HighRPS         float64 `json:"high_rps"`
		RampFactor      float64 `json:"ramp_factor"`
		RampMaxSteps    int     `json:"ramp_max_steps"`
		Clients         int     `json:"clients"`
		SLOP99Ms        float64 `json:"slo_p99_ms"`
		SLOMaxFailShare float64 `json:"slo_max_fail_share"`
		SLOMaxBacklogMs float64 `json:"slo_max_backlog_ms"`
	} `json:"serve"`
	CountOps      map[string]int `json:"count_ops"`
	SelfTimeSlack float64        `json:"self_time_slack"`
}

// benchSpec is the part of BENCHMARK.json the binary reads: the names and
// units of the metrics it must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	outDir   string
	cfg      config
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one workload; the exit code is 0 only for a run whose
// outputs all checked correct.
func run(args []string, stdout io.Writer) (int, error) {
	var cfg config
	if err := json.Unmarshal(configJSON, &cfg); err != nil {
		return 2, fmt.Errorf("config.json: %w", err)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "offline", "workload: offline, serve or stream")
	seed := fs.Int64("seed", cfg.DefaultSeed, "input seed")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition (metric names and units)")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for spans, results and the count ledger")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	bs, err := readSpec(*spec)
	if err != nil {
		return 2, err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, errors.New("-seconds must be > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return 2, err
	}
	rc := runConfig{
		workload: *workload, seed: *seed, trace: *trace == 1, outDir: *outDir, cfg: cfg,
		duration: time.Duration(*seconds * float64(time.Second)),
	}
	env := currentEnv()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		rc.workload, rc.seed, *seconds, *trace, env.NumCPU, env.GOMAXPROCS, env.GoVersion)

	var rep *report
	switch rc.workload {
	case "offline":
		rep, err = runOffline(rc)
	case "serve":
		rep, err = runServe(rc)
	case "stream":
		rep, err = runStream(rc)
	default:
		return 2, fmt.Errorf("unknown workload %q (want offline, serve or stream)", rc.workload)
	}
	if err != nil {
		return 1, err
	}
	if err := rep.ledger(filepath.Join(rc.outDir, "counts.json"), rc.seed); err != nil {
		rep.checkf("%v", err)
	}
	if rc.trace {
		if err := rep.spans.write(filepath.Join(rc.outDir, fmt.Sprintf("spans-%s-%d.json", rc.workload, rc.seed))); err != nil {
			return 1, err
		}
	}

	want := bs.EndToEnd
	values := rep.e2e
	if rc.trace {
		want, values = bs.PerLayer, rep.layer
	}
	units := map[string]string{}
	for _, m := range append(bs.EndToEnd, bs.PerLayer...) {
		units[m.Name] = m.Unit
	}
	rep.print(stdout, rc.trace, units)
	if rc.trace {
		verdict := "ok"
		if e := rep.layer["trace.reconcile_error"]; e > cfg.SelfTimeSlack {
			verdict = "over slack"
		}
		fmt.Fprintf(stdout, "reconcile: layers leave %.1f%% of traced op time unexplained (slack %.0f%%): %s\n",
			100*rep.layer["trace.reconcile_error"], 100*cfg.SelfTimeSlack, verdict)
	}
	out := result{Correct: len(rep.failures) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.Correct = false
			rep.failures = append(rep.failures, fmt.Sprintf("metric %s not measured", m.Name))
			v = 0
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	rec := record{Env: env, Workload: rc.workload, Seed: rc.seed, Trace: rc.trace, Inputs: rep.fingerprint, Result: out}
	if err := writeJSON(filepath.Join(rc.outDir, fmt.Sprintf("result-%s-%d-trace%d.json", rc.workload, rc.seed, *trace)), rec); err != nil {
		return 1, err
	}
	for _, f := range rep.failures {
		fmt.Fprintln(stdout, "check FAILED:", f)
	}
	verdict := "ok"
	if !out.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(stdout, "check: %s (%d sampled outputs verified, %d failures)\n", verdict, rep.checksRun, len(rep.failures))
	b, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1, errors.New("output check failed")
	}
	return 0, nil
}

func readSpec(path string) (benchSpec, error) {
	var bs benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return bs, err
	}
	if err := json.Unmarshal(b, &bs); err != nil {
		return bs, fmt.Errorf("%s: %w", path, err)
	}
	return bs, nil
}

// result is the last output line: the verdict, the op counts and the metrics.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is recorded with every result; compare refuses records whose
// environments differ.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func currentEnv() env {
	return env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// record is one result file under the output directory.
type record struct {
	Env      env    `json:"env"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Inputs   string `json:"inputs_sha256"`
	Result   result `json:"result"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report is what a workload measured.
type report struct {
	workload    string
	fingerprint string
	attempted   int
	failed      int
	checksRun   int
	failures    []string
	e2e         map[string]float64
	layer       map[string]float64
	counts      counts
	notes       []string
	spans       *tracer
}

func newReport(workload, fp string) *report {
	return &report{workload: workload, fingerprint: fp, e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) checkf(format string, args ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latencies records p50/p90/p99 of ms under prefix, each percentile only
// where the percentile rule allows it.
func (r *report) latencies(prefix string, ms []float64) {
	r.e2e[prefix+"_ms_p50"] = median(ms)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p90", 0.90}, {"p99", 0.99}} {
		v, ok := percentile(ms, q.q)
		if ok {
			r.e2e[prefix+"_ms_"+q.name] = v
		} else {
			r.notef("%s_ms_%s not reported: %d samples, the percentile rule needs %d", prefix, q.name, len(ms), minSamples(q.q))
		}
	}
	r.notef("%s samples: %d", prefix, len(ms))
}

// Metrics of the layers one workload may not exercise.
var (
	serverLayerMetrics = []string{"server.rtt_ms_p50.exact", "server.rtt_ms_p50.hybrid", "server.rtt_ms_p50.whatif",
		"server.rtt_ms_p50.cold", "server.rtt_ms_p50.push", "server.rtt_ms_p50.query", "server.overhead_ms_p50",
		"server.cache_hit_rate", "server.refused_share"}
	streamLayerMetrics = []string{"stream.apply_ms.prob", "stream.apply_ms.structural", "stream.apply_ms.advance",
		"stream.query_ms", "stream.reground_per_push", "stream.retrace_per_push", "stream.reused_circuits", "stream.full_rebuilds"}
)

// notExercised records metrics of layers this workload never calls as a
// measured zero, and says so in the table.
func (r *report) notExercised(names ...string) {
	for _, n := range names {
		r.layer[n] = 0
	}
	r.notef("not exercised by %s (reported as 0): %s", r.workload, strings.Join(names, ", "))
}

// layerCounts copies the exact count-window sums into the per-layer metrics.
func (r *report) layerCounts(c counts) {
	for k, v := range c {
		r.layer[k] = float64(v)
	}
}

// print writes the human-readable tables: every metric the workload
// measured, by name with its unit (from BENCHMARK.json where listed).
func (r *report) print(w io.Writer, traced bool, units map[string]string) {
	fmt.Fprintf(w, "inputs sha256=%s\n", r.fingerprint)
	names := make([]string, 0, len(r.counts))
	for k := range r.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "count %-28s %d\n", k, r.counts[k])
	}
	table := r.e2e
	title := "end-to-end"
	if traced {
		table, title = r.layer, "per-layer"
	}
	fmt.Fprintf(w, "%s metrics (%s):\n", title, r.workload)
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		u, ok := units[k]
		if !ok {
			u = unitOf(k)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, table[k], u)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// unitOf is the unit of a printed metric BENCHMARK.json does not list.
func unitOf(name string) string {
	switch {
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "rps"):
		return "1/s"
	case strings.Contains(name, "share"):
		return "ratio"
	}
	return "count"
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

// repeatSetup runs setup setupRepeats times, tearing down all but the last,
// and returns the median wall time in seconds with the last teardown.
func repeatSetup(setup func() (teardown func(), err error)) (float64, func(), error) {
	var times []float64
	teardown := func() {}
	for i := 0; i < setupRepeats; i++ {
		teardown()
		t0 := time.Now()
		td, err := setup()
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		teardown = td
	}
	return median(times), teardown, nil
}
