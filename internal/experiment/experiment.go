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
// accumulates per-job time, simulated instructions and cycles, and
// every simulator counter (stall categories, occupancy, retirement
// latency) across the run; cmd/wbserve serves the same registry over
// HTTP.
//
// Execution is pluggable.  Matrix jobs are fully independent and
// deterministic.  The default (nil) backend runs them in this process, a
// benchmark and up to eight of its configurations at a time, in lockstep
// over one generated reference stream (dispatch.ExecuteGroup).
// Options.Backend swaps that for any internal/dispatch backend, which
// runs one job at a time: a dispatch.Remote shards the sweep across
// `wbserve -worker` processes, and a dispatch.Cached stores every
// completed job so a killed sweep, rerun over the same store, resumes
// where it stopped.  Every path produces the same measurements.
// Experiment.Run takes a context and returns an error, so a failed or
// cancelled distributed sweep reaches the caller as an error.
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
	// Backend, when non-nil, executes matrix jobs one at a time through
	// internal/dispatch: dispatch.Remote shards a sweep across wbserve
	// workers, dispatch.Cached stores completed jobs so a rerun resumes,
	// and dispatch.Local runs each job in-process.  Every backend gives
	// the same results as nil, which runs in-process in lockstep groups
	// (see RunMatrixCtx).
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

// ConfigSpec pairs a configuration with its display label.  It is an
// alias of dispatch.ConfigSpec, the unit the lockstep groups run; its
// Canonical and Hash methods give the machine's machconf form and content
// address.
type ConfigSpec = dispatch.ConfigSpec

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
// Work runs on a pool of goroutines — sized by GOMAXPROCS, or by the
// backend's Concurrency hint when it offers one (a remote pool wants
// width proportional to its workers, not to local cores).  With o.Backend
// nil the unit of work is a benchmark and up to eight of its
// configurations, run in lockstep over one reference stream
// (dispatch.ExecuteGroup), and a job fails only on a machine the
// simulator rejects.  A backend runs one job per unit.  The first
// failure, or ctx's cancellation, stops the remaining work and is
// returned; the partial matrix is discarded (a store-backed backend keeps
// the completed jobs for the rerun).
func RunMatrixCtx(ctx context.Context, benches []workload.Benchmark, specs []ConfigSpec, o Options) ([][]Measurement, error) {
	n := o.instructions()
	out := make([][]Measurement, len(benches))
	for i := range out {
		out[i] = make([]Measurement, len(specs))
	}
	total := len(benches) * len(specs)
	begin := time.Now()
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
			Elapsed:      time.Since(begin),
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
	// run executes one unit and returns its measurements and job times.
	run := func(b workload.Benchmark, group []ConfigSpec) ([]Measurement, []time.Duration, error) {
		if o.Backend == nil {
			return dispatch.ExecuteGroup(ctx, b, group, n, o.Metrics)
		}
		start := time.Now()
		mnt, err := o.Backend.Run(ctx, dispatch.Job{Bench: b.Name, Label: group[0].Label, Cfg: group[0].Cfg, N: n})
		if err != nil {
			err = fmt.Errorf("%s: %w", group[0].Label, err) // as ExecuteGroup names it
		}
		return []Measurement{mnt}, []time.Duration{time.Since(start)}, err
	}
	perUnit := 1
	if o.Backend == nil {
		perUnit = unitSpecs
	}
	units := make(chan unit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range units {
				if ctx.Err() != nil {
					continue // drain; the sweep is aborting
				}
				b, group := benches[u.bench], specs[u.lo:u.hi]
				mnts, times, err := run(b, group)
				// ErrResultNotStored: the measurement is valid, only the
				// store write failed — a full disk must not fail the sweep;
				// the store's metrics record the miss.
				if err != nil && !errors.Is(err, dispatch.ErrResultNotStored) {
					if ctx.Err() == nil {
						fail(fmt.Errorf("experiment: job %s/%w", b.Name, err))
					}
					continue
				}
				for i, mnt := range mnts {
					out[u.bench][u.lo+i] = mnt
					report(mnt, times[i])
				}
			}
		}()
	}
feed:
	for _, u := range splitUnits(len(benches), len(specs), perUnit, workers) {
		select {
		case units <- u:
		case <-ctx.Done():
			break feed
		}
	}
	close(units)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// unitSpecs is the most configurations one in-process unit runs in
// lockstep.  It caps the machines alive per worker, and past eight less
// than ~4% of a job's time — its share of reference generation — is left
// to save.
const unitSpecs = 8

// unit is one benchmark and the specs [lo, hi) run together.
type unit struct{ bench, lo, hi int }

// splitUnits cuts a benches × specs matrix into units of at most per
// consecutive specs of one benchmark, benchmark-major.  When that leaves
// fewer units than workers, each benchmark's specs are split further so
// every worker has a unit; the split is as even as the counts allow.
func splitUnits(benches, specs, per, workers int) []unit {
	if specs == 0 {
		return nil
	}
	parts := (specs + per - 1) / per
	if benches > 0 && benches*parts < workers {
		parts = (workers + benches - 1) / benches
	}
	if parts > specs {
		parts = specs
	}
	out := make([]unit, 0, benches*parts)
	for b := 0; b < benches; b++ {
		for p := 0; p < parts; p++ {
			out = append(out, unit{b, p * specs / parts, (p + 1) * specs / parts})
		}
	}
	return out
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
