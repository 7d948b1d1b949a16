// Package experiment regenerates every table and figure of the paper's
// evaluation: Figure 3 (baseline stalls) through Figure 13 (memory
// latency), and Tables 4 through 7.  Each experiment runs a set of machine
// configurations over the benchmark suite and formats the results the way
// the paper reports them — stall cycles as a percentage of execution time,
// split into the three write-buffer-induced categories.
//
// The harness is observable while it runs.  Options.Progress registers a
// callback fired after every completed (benchmark, configuration) job —
// ProgressReporter turns it into a live terminal line with ETA and
// aggregate MIPS — and Options.Metrics names a metrics.Registry that
// accumulates per-job wall time, simulated instructions and cycles, and
// every simulator counter (stall categories, occupancy, retirement
// latency) across the run; cmd/wbserve serves the same registry over
// HTTP.
//
// Execution is pluggable.  Matrix jobs are fully independent and
// deterministic, so Options.Backend can swap the in-process runner for
// any internal/dispatch backend: a dispatch.Remote shards the sweep
// across `wbserve -worker` processes, and a dispatch.Cached stores every
// completed job so a killed sweep, rerun over the same store, resumes
// where it stopped.  The default (nil) backend runs every job in this
// process, unchanged.  Experiment.Run takes a context and returns an
// error, so a failed or cancelled distributed sweep reaches the caller as
// an error.
// docs/DISTRIBUTED.md is the operator guide for the distributed path.
//
// The per-experiment index in DESIGN.md maps every experiment ID here to
// the paper item it reproduces; EXPERIMENTS.md records measured-vs-paper
// outcomes.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options controls experiment execution.
type Options struct {
	// Instructions is the dynamic instruction count per benchmark run.
	// Zero selects the default of one million.
	Instructions uint64
	// Benchmarks overrides the benchmark list (default: the full suite).
	Benchmarks []workload.Benchmark
	// Progress, when non-nil, is called after each completed (benchmark,
	// configuration) job of a matrix run.  Calls are serialised and Done
	// increases by exactly one per call, so a matrix of B benchmarks and
	// C configurations produces exactly B×C calls with Done running from
	// 1 to B×C.  The callback runs on worker goroutines while the matrix
	// is executing; keep it fast.
	Progress func(ProgressEvent)
	// Metrics, when non-nil, accumulates observability counters for the
	// run: experiment_* throughput series (jobs, wall time, instructions,
	// simulated cycles) and — on the default in-process path — the sim_*
	// counters published by every finished machine.
	Metrics *metrics.Registry
	// Backend, when non-nil, executes matrix jobs through
	// internal/dispatch instead of in-process: dispatch.Remote shards a
	// sweep across wbserve workers, dispatch.Cached stores completed jobs
	// so a rerun resumes, and dispatch.Local reproduces the default path
	// explicitly.  nil keeps today's behaviour exactly.
	// Benchmarks handed to a matrix run must be name-resolvable
	// (workload.ByName) for a distributed backend, since jobs travel by
	// benchmark name; every registered experiment satisfies this.
	Backend dispatch.Backend
}

func (o Options) instructions() uint64 {
	if o.Instructions == 0 {
		return 1_000_000
	}
	return o.Instructions
}

func (o Options) benchmarks() []workload.Benchmark {
	if o.Benchmarks == nil {
		return workload.All()
	}
	return o.Benchmarks
}

// Measurement is the outcome of one (benchmark, configuration) run.  It
// is an alias of dispatch.Measurement so the harness and the execution
// backends share one type; fields are documented there.
type Measurement = dispatch.Measurement

// Run executes one benchmark on one configuration.  The first quarter of
// the stream is warm-up: it executes normally but is excluded from the
// statistics, so cold-start misses do not distort hit rates the way they
// would not in the paper's full-execution runs.  Execution lives in
// dispatch.ExecuteBench so the local path and the distributed workers run
// byte-for-byte the same code; an invalid configuration panics, matching
// the sim.MustNew behaviour this wrapped historically.
func Run(b workload.Benchmark, label string, cfg sim.Config, n uint64) Measurement {
	m, err := dispatch.ExecuteBench(b, label, cfg, n, nil)
	if err != nil {
		panic(err)
	}
	return m
}

// ConfigSpec pairs a configuration with its display label.
type ConfigSpec struct {
	Label string
	Cfg   sim.Config
}

// Canonical renders the spec's machine in machconf's canonical form — the
// same bytes the dispatch wire format ships and wbsim -dump-config prints.
func (s ConfigSpec) Canonical() ([]byte, error) {
	return machconf.Encode(s.Cfg)
}

// Hash returns the machine's canonical machconf content address, the
// identity the result store and the wbserve result cache key on.
func (s ConfigSpec) Hash() (string, error) {
	return machconf.Hash(s.Cfg)
}

// CustomSweep builds an unregistered experiment over caller-supplied
// configurations — the wbexp -config path, where the specs come from
// machconf files rather than a paper figure.  The report has the standard
// stall-figure shape.
func CustomSweep(specs []ConfigSpec) Experiment {
	return stallFigure("custom", "Custom sweep (machconf configurations)",
		func() []ConfigSpec { return specs })
}

// RunMatrixCtx runs every benchmark against every configuration and
// returns measurements indexed as [benchmark][config] following the input
// orders.  o.Progress is invoked once per completed job (serialised, Done
// monotone from 1 to len(benches)×len(specs)) and o.Metrics accumulates
// throughput and simulator counters.  o.Instructions selects the per-run
// instruction count; o.Benchmarks is ignored — the benchmark list is the
// explicit argument.
//
// Jobs run on a pool of goroutines — sized by GOMAXPROCS, or by the
// backend's Concurrency hint when it offers one (a remote pool wants
// width proportional to its workers, not to local cores).  With o.Backend
// nil every job executes in-process, and a job fails only on a machine the
// simulator rejects.  The first job failure, or ctx's cancellation, stops
// the remaining jobs and is returned; the partial matrix is discarded (a
// store-backed backend keeps the completed jobs for the rerun).
func RunMatrixCtx(ctx context.Context, benches []workload.Benchmark, specs []ConfigSpec, o Options) ([][]Measurement, error) {
	n := o.instructions()
	out := make([][]Measurement, len(benches))
	for i := range out {
		out[i] = make([]Measurement, len(specs))
	}
	total := len(benches) * len(specs)
	var (
		progressMu sync.Mutex
		done       int
	)
	report := func(mnt Measurement, jobTime time.Duration) {
		if o.Metrics != nil {
			o.Metrics.Counter("experiment_jobs_total").Inc()
			o.Metrics.Counter("experiment_instructions_total").Add(mnt.C.Instructions)
			o.Metrics.Counter("experiment_sim_cycles_total").Add(mnt.C.Cycles)
			o.Metrics.Histogram("experiment_job_microseconds").Observe(uint64(jobTime.Microseconds()))
		}
		if o.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		o.Progress(ProgressEvent{
			Done:         done,
			Total:        total,
			Bench:        mnt.Bench,
			Label:        mnt.Label,
			Instructions: mnt.C.Instructions,
			Cycles:       mnt.C.Cycles,
			JobTime:      jobTime,
		})
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}

	workers := runtime.GOMAXPROCS(0)
	if o.Backend != nil {
		if h, ok := o.Backend.(interface{ Concurrency() int }); ok {
			if k := h.Concurrency(); k > 0 {
				workers = k
			}
		}
	}
	type job struct{ bi, ci int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					continue // drain; the sweep is aborting
				}
				start := time.Now()
				b, spec := benches[j.bi], specs[j.ci]
				var (
					mnt Measurement
					err error
				)
				if o.Backend == nil {
					mnt, err = dispatch.ExecuteBench(b, spec.Label, spec.Cfg, n, o.Metrics)
				} else {
					mnt, err = o.Backend.Run(ctx, dispatch.Job{Bench: b.Name, Label: spec.Label, Cfg: spec.Cfg, N: n})
				}
				// ErrResultNotStored: the measurement is valid, only the
				// store write failed — a full disk must not fail the sweep;
				// the store's metrics record the miss.
				if err != nil && !errors.Is(err, dispatch.ErrResultNotStored) {
					fail(fmt.Errorf("experiment: job %s/%s: %w", b.Name, spec.Label, err))
					continue
				}
				out[j.bi][j.ci] = mnt
				report(mnt, time.Since(start))
			}
		}()
	}
feed:
	for bi := range benches {
		for ci := range specs {
			select {
			case jobs <- job{bi, ci}:
			case <-ctx.Done():
				break feed
			}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Experiment is one reproducible paper item.
type Experiment struct {
	// ID is the lookup key: "fig3" … "fig13", "table4" … "table7", or an
	// ablation id like "abl-fixedrate".
	ID string
	// Title describes the experiment, echoing the paper's caption.
	Title string
	// Run executes the experiment and formats its report.  It fails when
	// ctx is cancelled or a matrix job fails (see RunMatrixCtx).
	Run func(context.Context, Options) (*Report, error)
}

var experimentRegistry = map[string]Experiment{}

func registerExperiment(e Experiment) {
	if _, dup := experimentRegistry[e.ID]; dup {
		panic(fmt.Sprintf("experiment: duplicate id %q", e.ID))
	}
	experimentRegistry[e.ID] = e
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := experimentRegistry[id]
	return e, ok
}

// IDs returns all experiment IDs, figures first, then tables, then
// ablations, each in numeric order.
func IDs() []string {
	ids := make([]string, 0, len(experimentRegistry))
	for id := range experimentRegistry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return idKey(ids[i]) < idKey(ids[j]) })
	return ids
}

// All returns every experiment in IDs() order.
func All() []Experiment {
	ids := IDs()
	out := make([]Experiment, len(ids))
	for i, id := range ids {
		out[i] = experimentRegistry[id]
	}
	return out
}

// idKey produces a sortable key: fig3 < fig10 < table4 < abl-*.
func idKey(id string) string {
	var prefix string
	var num int
	if n, _ := fmt.Sscanf(id, "fig%d", &num); n == 1 {
		prefix = "0fig"
	} else if n, _ := fmt.Sscanf(id, "table%d", &num); n == 1 {
		prefix = "1table"
	} else {
		prefix = "2" + id
	}
	return fmt.Sprintf("%s%04d%s", prefix, num, id)
}
