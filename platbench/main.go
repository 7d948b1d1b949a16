// Command platbench is the sweep platform's benchmark.  One process runs
// one of three workloads and prints every metric with its unit:
//
//	suite-sweep   an in-process paper-style sweep (8 machines × 17 benchmarks)
//	serve-mix     a closed loop of POST /run requests against a wbserve subprocess
//	remote-sweep  a sweep dispatched to two loopback `wbserve -worker` subprocesses
//
// Usage, from the repository root:
//
//	bash platbench/run.sh --workload suite-sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the end-to-end metrics are measured; with --trace 1 the
// same window runs and the per-layer metrics are added, each measured from
// outside the layer by timing calls into its public functions.  The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// README.md maps every metric to its layer and workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose suite-sweep digest is committed
// (oracle.go); with it the synthetic benchmarks keep their registered
// streams, and any other seed reseeds them.
const defaultSeed = 1

// setupProbeEnv, when set in the environment, turns the process into the
// suite-sweep set-up probe (setupProbeMain) instead of the benchmark.
const setupProbeEnv = "PLATBENCH_SETUP_PROBE"

func main() {
	if os.Getenv(setupProbeEnv) != "" {
		os.Exit(setupProbeMain())
	}
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload: suite-sweep, serve-mix or remote-sweep")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the timed window in seconds")
		traced  = flag.Int("trace", 0, "1 adds the per-layer metrics")
		build   = flag.String("build", ".bench_build", "directory for temporary files")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "platbench: want --workload suite-sweep|serve-mix|remote-sweep, --seconds > 0, --trace 0|1\n")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "platbench: %v\n", err)
		return 1
	}
	base, err := filepath.Abs(filepath.Join(*build, "tmp"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "platbench: %v\n", err)
		return 1
	}
	e, err := newEnv(root, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "platbench: %v\n", err)
		return 1
	}
	defer e.cleanup()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	p := params{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		sizes:    defaultSizes(),
	}
	steal0 := readCPUStat()
	res, err := run(ctx, e, p)
	steal := readCPUStat().stealShare(steal0)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "platbench: %s: %v\n", *name, err)
		return 1
	}
	if err := report(os.Stdout, os.Stderr, e, p, res, steal); err != nil {
		fmt.Fprintf(os.Stderr, "platbench: %v\n", err)
		return 1
	}
	return 0
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(context.Context, *env, params) (*result, error){
	"suite-sweep":  runSuiteSweep,
	"serve-mix":    runServeMix,
	"remote-sweep": runRemoteSweep,
}

// params is one benchmark invocation.
type params struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	sizes    sizes
}

// sizes fixes how much work each workload does per job.  The benchmark
// always uses defaultSizes; the package tests shrink them.
type sizes struct {
	sweepN   uint64 // instructions per suite-sweep job
	serveN   uint64 // instructions per served job
	remoteN  uint64 // instructions per remote-sweep job
	probeN   uint64 // instructions per job of the traced suite probe
	warmSet  int    // serve-mix configurations stored before timing
	minTail  int    // samples wanted for a tail percentile (10 beyond it)
	setups   int    // set-up repetitions; setup_s is their median
	storeOps int    // store puts the traced store probe makes at least
}

func defaultSizes() sizes {
	return sizes{
		sweepN:   400_000,
		serveN:   50_000,
		remoteN:  50_000,
		probeN:   50_000,
		warmSet:  64,
		minTail:  1000,
		setups:   21,
		storeOps: 1000,
	}
}

// repoRoot walks up from the working directory to the repository's root
// module, whose sources the benchmark builds and measures.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && modulePath(data) == "repro" {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing repro module: run from the repository root")
		}
		dir = parent
	}
}

func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	return ""
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

// report prints the human-readable table to w2, then the protocol record
// and the final JSON line to w.
func report(w, w2 io.Writer, e *env, p params, res *result, steal float64) error {
	metrics := res.e2e
	if p.trace {
		metrics = res.tracedMetrics()
	}
	fmt.Fprintf(w2, "%-36s %14s  %-6s %8s  %s\n", "metric", "value", "unit", "samples", "layer")
	for _, m := range metrics {
		v := "n/a"
		if m.ok {
			v = fmt.Sprintf("%.6g", m.value)
		}
		fmt.Fprintf(w2, "%-36s %14s  %-6s %8d  %s%s\n", m.name, v, m.unit, m.samples, m.layer, m.note())
	}
	fmt.Fprintf(w2, "failed_share %d/%d; checks: %v\n", res.failed, res.attempted, res.checkSummary())

	rec := map[string]any{
		"workload":  p.workload,
		"seed":      p.seed,
		"seconds":   p.window.Seconds(),
		"trace":     p.trace,
		"n":         res.n,
		"host":      hostRecord(e.root),
		"cpu_steal": steal,
		"attempted": res.attempted,
		"failed":    res.failed,
		"checks":    res.checks,
		"metrics":   metrics,
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))

	out := finalLine{
		Correct:   res.correct(),
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range metrics {
		mv := metricValue{Unit: m.unit}
		if m.ok {
			v := m.value
			mv.Value = &v
		}
		out.Metrics[m.name] = mv
	}
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}
