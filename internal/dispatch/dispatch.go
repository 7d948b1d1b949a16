// Package dispatch executes the (benchmark, configuration) jobs of a
// matrix sweep through a pluggable Backend, so the same experiment code
// runs on one machine or across a fleet of wbserve workers.
//
// A sweep is an embarrassingly parallel bag of Jobs: each names a
// benchmark from the registered suite, a complete machine configuration,
// and an instruction count, and every job is deterministic — the same Job
// produces bit-identical Measurements on any machine running this code.
// That determinism is what makes the distributed backends safe: a retried
// job cannot produce a second, different answer, and a stored result can
// answer a resumed sweep without re-running anything.
//
// Three Backend implementations cover the deployment spectrum:
//
//   - Local runs the job in-process (the default the experiment harness
//     uses when no backend is configured).
//   - Remote dispatches jobs over HTTP to a pool of `wbserve -worker`
//     processes (the POST /job endpoint served by WorkerHandler), with
//     per-job timeouts, bounded retries under exponential backoff with
//     jitter, and quarantine plus background re-probing of workers that
//     fail repeatedly.
//   - Cached wraps either with the content-addressed result store
//     (internal/resultstore), keyed on `bench|n|machconf-hash`: a job any
//     process already paid for is never simulated again, and a killed
//     sweep rerun over the same store resumes where it stopped.
//
// The experiment harness threads a Backend through
// experiment.Options.Backend; cmd/wbexp and cmd/wbopt expose the remote
// and store tiers as the -workers and -store flags (BuildBackendOpts).
// See docs/DISTRIBUTED.md for the operator guide.
package dispatch

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Job is one unit of a matrix sweep: run benchmark Bench for N dynamic
// instructions on the machine described by Cfg.  Bench must name a
// benchmark resolvable by workload.ByName — distributed backends ship the
// name, not the stream, and rely on every machine regenerating the same
// deterministic reference stream from it.
type Job struct {
	// Bench is the benchmark name (workload.ByName).
	Bench string
	// Label is the configuration's display label, carried through to the
	// Measurement; it does not affect execution or result identity.
	Label string
	// Cfg is the complete machine configuration.
	Cfg sim.Config
	// N is the dynamic instruction count; the first quarter is warm-up.
	N uint64
}

// Measurement is the outcome of one job — the paper's per-(benchmark,
// configuration) data point.  experiment.Measurement aliases this type, so
// the harness and the backends share it.  Every field is a scalar or a
// fixed-size array and survives a JSON round trip bit-exactly, which the
// remote backend and the result store depend on.
type Measurement struct {
	Bench string
	Label string
	C     stats.Counters
	WBHit float64 // write-buffer store hit rate
	L1Hit float64 // L1 load hit rate
	L2Hit float64 // finite-L2 demand-read hit rate (1 for perfect L2)
}

// Backend runs jobs.  Implementations must be safe for concurrent use:
// the experiment harness calls Run from many worker goroutines at once.
type Backend interface {
	// Run executes one job and returns its measurement.  An error means
	// the job did not produce a result (after whatever retries the backend
	// performs internally); the harness aborts the sweep on the first one.
	Run(ctx context.Context, job Job) (Measurement, error)
}

// ErrUnknownBenchmark marks a job whose Bench resolves to no registered
// benchmark; workers report it as a client error, not a machine failure.
var ErrUnknownBenchmark = errors.New("dispatch: unknown benchmark")

// Execute runs a job in this process.  When reg is non-nil the finished
// machine's counters are folded into it (sim_* series).  Bench resolves
// through the registered suite, falling back to the deterministic
// transformed variants — both regenerate bit-identical streams on any
// machine, so either kind of name is safe to ship.  The error is
// ErrUnknownBenchmark-wrapped for an unresolvable benchmark name and a
// sim validation error for an inconsistent configuration.
func Execute(job Job, reg *metrics.Registry) (Measurement, error) {
	b, ok := workload.ByName(job.Bench)
	if !ok {
		for _, t := range workload.Transformed() {
			if t.Name == job.Bench {
				b, ok = t, true
				break
			}
		}
	}
	if !ok {
		return Measurement{}, fmt.Errorf("%w: %q", ErrUnknownBenchmark, job.Bench)
	}
	return ExecuteBench(b, job.Label, job.Cfg, job.N, reg)
}

// ExecuteBench is Execute for a benchmark value already in hand.  The
// experiment harness uses it directly so benchmark variants that are not
// name-resolvable (reseeded generators) still run locally.
func ExecuteBench(b workload.Benchmark, label string, cfg sim.Config, n uint64, reg *metrics.Registry) (Measurement, error) {
	m, err := sim.New(cfg)
	if err != nil {
		return Measurement{}, err
	}
	WarmRun(m, b.Stream(n), n)
	c := m.Counters()
	l2 := 1.0
	if cfg.L2 != nil {
		l2 = m.L2Stats().ReadHitRate()
	}
	if reg != nil {
		m.PublishMetrics(reg)
	}
	return Measurement{
		Bench: b.Name,
		Label: label,
		C:     c,
		WBHit: m.WBStoreHitRate(),
		L1Hit: c.L1LoadHitRate(),
		L2Hit: l2,
	}, nil
}

// WarmRun executes the first quarter of the stream unmeasured, then runs
// the remainder with statistics on — the repository's standard warm-up
// split (experiment.Run documents why).  The stream is consumed through its
// batched generator view (trace.GeneratorOf), so every backend — local,
// worker, and the experiment harness — gets the simulator's fused hot path;
// docs/PERFORMANCE.md quantifies the difference.
func WarmRun(m *sim.Machine, s trace.Stream, n uint64) {
	WarmRunGenerator(m, trace.GeneratorOf(s), n)
}

// WarmRunGenerator is WarmRun for a generator already in hand.
func WarmRunGenerator(m *sim.Machine, g trace.Generator, n uint64) {
	m.RunGeneratorN(g, n/4)
	m.ResetStats()
	m.RunGenerator(g)
}

// Local is the in-process backend: Run executes the job on the calling
// goroutine.  The zero value is ready to use.
type Local struct {
	// Metrics, when non-nil, receives each finished machine's counters,
	// exactly as the harness's default (backend-less) path does.
	Metrics *metrics.Registry
}

// Run implements Backend.
func (l *Local) Run(ctx context.Context, job Job) (Measurement, error) {
	if err := ctx.Err(); err != nil {
		return Measurement{}, err
	}
	return Execute(job, l.Metrics)
}
