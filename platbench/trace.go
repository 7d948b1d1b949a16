package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// jobTrace is the layer split of one traced job.
type jobTrace struct {
	label string
	instr uint64        // dynamic instructions, warm-up included
	setup time.Duration // sim.New
	warm  time.Duration // the n/4 warm-up, its generation included
	gen   time.Duration // inside Generator.Fill, warm-up included
	total time.Duration // the whole job
}

// timedGen wraps a generator and accumulates the time spent inside Fill.
type timedGen struct {
	g  trace.Generator
	ns time.Duration
}

func (t *timedGen) Fill(buf []trace.Ref) int {
	start := time.Now()
	n := t.g.Fill(buf)
	t.ns += time.Since(start)
	return n
}

// tracedExecute runs a job exactly as dispatch.ExecuteBench does — sim.New,
// the n/4 warm-up, a stats reset, the measured remainder, the same
// Measurement fields — timing each step from outside.  The oracle checks
// that its measurements equal the untraced path's.
func tracedExecute(b workload.Benchmark, job dispatch.Job) (dispatch.Measurement, jobTrace, error) {
	start := time.Now()
	m, err := sim.New(job.Cfg)
	if err != nil {
		return dispatch.Measurement{}, jobTrace{}, err
	}
	setup := time.Since(start)
	g := &timedGen{g: trace.GeneratorOf(b.Stream(job.N))}
	warmStart := time.Now()
	m.RunGeneratorN(g, job.N/4)
	warm := time.Since(warmStart)
	m.ResetStats()
	m.RunGenerator(g)
	total := time.Since(start)

	c := m.Counters()
	l2 := 1.0
	if job.Cfg.L2 != nil {
		l2 = m.L2Stats().ReadHitRate()
	}
	meas := dispatch.Measurement{
		Bench: b.Name,
		Label: job.Label,
		C:     c,
		WBHit: m.WBStoreHitRate(),
		L1Hit: c.L1LoadHitRate(),
		L2Hit: l2,
	}
	return meas, jobTrace{label: job.Label, instr: job.N, setup: setup, warm: warm, gen: g.ns, total: total}, nil
}

// tracer is a dispatch.Backend that runs jobs through tracedExecute and
// keeps every job's split.  benches resolves job names, so reseeded
// benchmarks run too.
type tracer struct {
	benches map[string]workload.Benchmark
	mu      sync.Mutex
	jobs    []jobTrace
}

func newTracer(benches []workload.Benchmark) *tracer {
	t := &tracer{benches: map[string]workload.Benchmark{}}
	for _, b := range benches {
		t.benches[b.Name] = b
	}
	return t
}

func (t *tracer) Run(ctx context.Context, job dispatch.Job) (dispatch.Measurement, error) {
	if err := ctx.Err(); err != nil {
		return dispatch.Measurement{}, err
	}
	b, ok := t.benches[job.Bench]
	if !ok {
		return dispatch.Measurement{}, fmt.Errorf("tracer: unknown benchmark %q", job.Bench)
	}
	m, jt, err := tracedExecute(b, job)
	if err != nil {
		return dispatch.Measurement{}, err
	}
	t.mu.Lock()
	t.jobs = append(t.jobs, jt)
	t.mu.Unlock()
	return m, nil
}

// take returns and clears the collected traces.
func (t *tracer) take() []jobTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.jobs
	t.jobs = nil
	return out
}

// passStats describes one matrix pass through experiment.RunMatrixCtx.
type passStats struct {
	wall     time.Duration
	jobTimes []time.Duration // ProgressEvent.JobTime, completion order
	tail     time.Duration   // the last job's start to the pass's end
	workers  int
	mallocs  uint64  // runtime.MemStats.Mallocs growth over the pass
	steal    float64 // CPU steal share during the pass
}

func (p passStats) jobs() int { return len(p.jobTimes) }

// idleShare is 1 − Σ job time ÷ (workers × wall).
func (p passStats) idleShare() float64 {
	var busy time.Duration
	for _, d := range p.jobTimes {
		busy += d
	}
	return 1 - ratio(float64(busy), float64(p.workers)*float64(p.wall))
}

// runPass runs one matrix through experiment.RunMatrixCtx, timing every
// job through the harness's own Progress events.
func runPass(ctx context.Context, benches []workload.Benchmark, specs []experiment.ConfigSpec, n uint64, backend dispatch.Backend) ([][]experiment.Measurement, passStats, error) {
	st := passStats{workers: runtime.GOMAXPROCS(0)}
	if h, ok := backend.(interface{ Concurrency() int }); ok && h.Concurrency() > 0 {
		st.workers = h.Concurrency()
	}
	var lastStart time.Time
	o := experiment.Options{
		Instructions: n,
		Backend:      backend,
		Progress: func(ev experiment.ProgressEvent) {
			now := time.Now()
			st.jobTimes = append(st.jobTimes, ev.JobTime)
			if s := now.Add(-ev.JobTime); s.After(lastStart) {
				lastStart = s
			}
		},
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readCPUStat()
	start := time.Now()
	out, err := experiment.RunMatrixCtx(ctx, benches, specs, o)
	end := time.Now()
	st.steal = readCPUStat().stealShare(cpu0)
	runtime.ReadMemStats(&ms1)
	st.wall = end.Sub(start)
	st.tail = end.Sub(lastStart)
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	return out, st, err
}

// quietPasses is the half of passes (at least one) during which the
// hypervisor stole the smallest share of CPU time, in time order.  The
// host is shared: a run can land in a burst of steal, and without this the
// burst, not the program, sets the figure.
func quietPasses(passes []passStats) []passStats {
	steal := make([]float64, len(passes))
	for i, p := range passes {
		steal[i] = p.steal
	}
	var out []passStats
	for _, i := range quietHalf(steal) {
		out = append(out, passes[i])
	}
	return out
}

// addSimLayers reports the generation / simulation / warm-up split of
// traced jobs; mallocs is the allocation count over those jobs.
func addSimLayers(ls *layerSet, jobs []jobTrace, mallocs uint64) {
	var instr uint64
	var gen, setup, warm, total time.Duration
	setups := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		instr += j.instr
		gen += j.gen
		setup += j.setup
		warm += j.warm
		total += j.total
		setups = append(setups, us(j.setup))
	}
	fi := float64(instr)
	ls.add("workload", "workload.gen_ns_per_instr", "ns", ratio(float64(gen), fi), len(jobs), "")
	ls.add("workload", "workload.gen_share", "ratio", ratio(float64(gen), float64(total)), len(jobs), "")
	ls.add("sim", "sim.step_ns_per_instr", "ns", ratio(float64(total-gen-setup), fi), len(jobs), "job time minus Fill and sim.New")
	ls.add("sim", "sim.allocs_per_job", "count", ratio(float64(mallocs), float64(len(jobs))), len(jobs), "MemStats.Mallocs growth per job")
	ls.add("job-warmup", "dispatch.job_setup_us", "us", median(setups), len(setups), "sim.New, median")
	ls.add("job-warmup", "dispatch.warmup_share", "ratio", ratio(float64(warm), float64(total)), len(jobs), "")
}

// addMachineLayers reports sim.step_ns_per_instr.<machine> for each suite
// machine from traced jobs labelled with the machine's name.
func addMachineLayers(ls *layerSet, jobs []jobTrace, why string) {
	for _, spec := range suiteMachines {
		var instr uint64
		var step time.Duration
		k := 0
		for _, j := range jobs {
			if j.label == spec.Label {
				instr += j.instr
				step += j.total - j.gen - j.setup
				k++
			}
		}
		ls.add("sim", "sim.step_ns_per_instr."+spec.Label, "ns", ratio(float64(step), float64(instr)), k, why)
	}
}

// traceJobs re-executes jobs one at a time through tracedExecute, checks
// each result against want (the untraced result of the same job) and
// returns the traces with the allocation count over them.
func traceJobs(ctx context.Context, res *result, benches []workload.Benchmark, jobs []dispatch.Job, want []dispatch.Measurement) ([]jobTrace, uint64, error) {
	tr := newTracer(benches)
	bad := 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, job := range jobs {
		m, err := tr.Run(ctx, job)
		if err != nil {
			return nil, 0, err
		}
		if !reflect.DeepEqual(m, want[i]) {
			bad++
		}
	}
	runtime.ReadMemStats(&ms1)
	res.addCheck(check{Name: "traced-equals-untraced", Checked: len(jobs), Mismatches: bad})
	return tr.take(), ms1.Mallocs - ms0.Mallocs, nil
}

// addProbeLayers runs the suite probe — the eight suite machines over the
// suite at probe size, traced — and reports the per-machine step times and
// the harness layer from it.  Workloads whose own jobs do not cover the
// suite machines use it.
func addProbeLayers(ctx context.Context, ls *layerSet, p params) error {
	benches := suiteBenches(p.seed)
	tr := newTracer(benches)
	_, st, err := runPass(ctx, benches, suiteMachines, p.sizes.probeN, tr)
	if err != nil {
		return err
	}
	addMachineLayers(ls, tr.take(), "suite probe")
	addHarnessLayers(ls, []passStats{st})
	return nil
}

// addHarnessLayers reports the experiment harness's idle share and tail
// over traced passes (medians across passes).
func addHarnessLayers(ls *layerSet, passes []passStats) {
	idle := make([]float64, len(passes))
	tail := make([]float64, len(passes))
	for i, p := range passes {
		idle[i] = p.idleShare()
		tail[i] = p.tail.Seconds()
	}
	ls.add("experiment", "experiment.idle_share", "ratio", median(idle), len(passes), "median over passes")
	ls.add("experiment", "experiment.tail_s", "s", median(tail), len(passes), "median over passes")
}
