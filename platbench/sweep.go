package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// suiteMachines are the suite-sweep machines.  Each takes a different sim
// path — FIFO flush-full, deep read-from-WB, flush-partial, a finite L2,
// the write cache, the FTL organization, the banked backend, two-wide
// issue — so a hot-path change that helps one path and slows another
// shows in sweep_mips.
var suiteMachines = []experiment.ConfigSpec{
	{Label: "base", Cfg: sim.Baseline()},
	{Label: "deep-rfwb", Cfg: sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB)},
	{Label: "flush-partial", Cfg: sim.Baseline().WithHazard(core.FlushPartial)},
	{Label: "l2-512k", Cfg: sim.Baseline().WithL2(512 << 10)},
	{Label: "wcache", Cfg: sim.Baseline().WithWriteCache(8)},
	{Label: "ftl", Cfg: sim.Baseline().WithOrg(core.FTLOrg{NumBuffers: 2, SectorBits: 1})},
	{Label: "banked", Cfg: sim.Baseline().WithBackend(backend.BankedSpec{Banks: 4, RowMiss: 18})},
	{Label: "ss2", Cfg: sim.Baseline().WithIssueWidth(2)},
}

// suiteBenches is the 17-benchmark suite; a seed other than the default
// reseeds every synthetic benchmark (the kernels have no seed).
func suiteBenches(seed uint64) []workload.Benchmark {
	all := workload.All()
	if seed == defaultSeed {
		return all
	}
	for i, b := range all {
		all[i], _ = workload.Reseeded(b, seed)
	}
	return all
}

// setupProbeMain is the suite-sweep set-up measured from process launch:
// resolve the (reseeded) suite, construct every machine, and produce each
// benchmark's first reference batch — everything before the first job's
// simulation.  It prints "ready" when done.
func setupProbeMain() int {
	seed, err := strconv.ParseUint(os.Getenv(setupProbeEnv), 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "platbench setup probe:", err)
		return 2
	}
	benches := suiteBenches(seed)
	for _, s := range suiteMachines {
		if _, err := sim.New(s.Cfg); err != nil {
			fmt.Fprintln(os.Stderr, "platbench setup probe:", err)
			return 1
		}
	}
	buf := make([]trace.Ref, 4096)
	for _, b := range benches {
		trace.GeneratorOf(b.Stream(1 << 20)).Fill(buf)
	}
	fmt.Println("ready")
	return 0
}

// probeSetup launches the set-up probe and times launch to "ready".
func probeSetup(ctx context.Context, seed uint64) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), setupProbeEnv+"="+strconv.FormatUint(seed, 10))
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, _ := bufio.NewReader(out).ReadString('\n')
	d := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("setup probe: %v", err)
	}
	if line != "ready\n" {
		return 0, fmt.Errorf("setup probe printed %q", line)
	}
	return d, nil
}

// errWarmMiss is what a warm pass's inner backend returns: every job of a
// warm pass must be answered by the store.
var errWarmMiss = errors.New("store miss in a warm pass")

type missBackend struct{}

func (missBackend) Run(context.Context, dispatch.Job) (dispatch.Measurement, error) {
	return dispatch.Measurement{}, errWarmMiss
}

// sweepRun is what the two sweep workloads share: timed cold passes, then
// warm passes answered by dispatch.Cached over a store holding the cold
// results.
type sweepRun struct {
	benches []workload.Benchmark
	specs   []experiment.ConfigSpec
	n       uint64
	want    [][]experiment.Measurement

	first    [][]experiment.Measurement // the results warm passes must return
	warm     []passStats
	warmB    dispatch.Backend
	warmReg  *metrics.Registry
	warmJobs int
	warmBad  int
}

func (s *sweepRun) jobs() []dispatch.Job {
	out := make([]dispatch.Job, 0, len(s.benches)*len(s.specs))
	for _, b := range s.benches {
		for _, c := range s.specs {
			out = append(out, dispatch.Job{Bench: b.Name, Label: c.Label, Cfg: c.Cfg, N: s.n})
		}
	}
	return out
}

// startWarm fills a memory store with the first cold pass's results
// (label-stripped, as dispatch.Cached stores them) and readies warm
// passes: the sweep repeated through dispatch.Cached(inner), every job a
// store hit.
func (s *sweepRun) startWarm(first [][]experiment.Measurement, inner dispatch.Backend) error {
	jobs := s.jobs()
	store, err := resultstore.Open("", resultstore.Options{MemoryEntries: len(jobs)})
	if err != nil {
		return err
	}
	for i, job := range jobs {
		if err := putMeasurement(store, job, first[i/len(s.specs)][i%len(s.specs)]); err != nil {
			return err
		}
	}
	s.first = first
	s.warmReg = metrics.NewRegistry()
	s.warmB = oneWorker{dispatch.NewCached(inner, store, s.warmReg)}
	return nil
}

// warmFor runs warm passes for about d, and then until at least minJobs
// warm jobs have been timed in total.  The sweeps call it after every cold pass
// with a tenth of that pass's time, so warm passes spread over the whole
// window.
func (s *sweepRun) warmFor(ctx context.Context, d time.Duration, minJobs int) error {
	// Warm passes last milliseconds and allocate the same amount each
	// time, so a collection started by the cold pass lands on the same
	// warm passes in every round; starting them on a fresh heap, as
	// testing.B starts a benchmark, keeps that alignment out of the figure.
	runtime.GC()
	cpu0 := readCPUStat()
	start := time.Now()
	first := len(s.warm)
	for time.Since(start) < d || s.warmJobs < minJobs {
		out, st, err := runPass(ctx, s.benches, s.specs, s.n, s.warmB)
		if err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
		s.warmBad += mismatches(out, s.first)
		s.warm = append(s.warm, st)
		s.warmJobs += st.jobs()
	}
	// A warm pass is too short for the kernel's steal accounting; each
	// takes its burst's share.
	steal := readCPUStat().stealShare(cpu0)
	for i := first; i < len(s.warm); i++ {
		s.warm[i].steal = steal
	}
	return nil
}

// warmCheck records that every warm job returned the first cold pass's
// result from the store.
func (s *sweepRun) warmCheck(res *result) {
	misses := int(s.warmReg.Counter("dispatch_store_misses_total").Value())
	res.addCheck(check{Name: "warm-equals-cold", Checked: s.warmJobs, Mismatches: s.warmBad + misses})
}

// oneWorker runs warm passes on one harness worker: a store hit is a few
// microseconds, and with two workers the figure measured how the two
// contended for the store's lock more than the hit path itself.
type oneWorker struct{ dispatch.Backend }

func (oneWorker) Concurrency() int { return 1 }

// sweepE2E computes the end-to-end metrics of a sweep workload from the
// quiet half of its cold passes and of its warm passes.
func (s *sweepRun) sweepE2E(set e2eSet, cold []passStats) {
	passes, warm := quietPasses(cold), quietPasses(s.warm)
	mips := median(mipsOf(s.n, passes))
	ops, wall := 0, time.Duration(0)
	for _, p := range append(append([]passStats(nil), passes...), warm...) {
		ops += p.jobs()
		wall += p.wall
	}
	set.put("sweep_mips", mips, len(passes), true, "median over passes")
	set.put("remote_jobs_per_s", mips*1e6/float64(s.n), len(passes), true, "median over passes")
	coldMs, warmMs := durations(jobTimesOf(passes), ms), durations(jobTimesOf(warm), ms)
	v, ok := groupedQuantile(coldMs, 0.5)
	set.put("run_cold_ms_p50", v, len(coldMs), ok, "job time")
	v, ok = groupedQuantile(coldMs, 0.9)
	set.put("run_cold_ms_p90", v, len(coldMs), ok, "job time")
	v, ok = groupedQuantile(warmMs, 0.5)
	set.put("run_warm_ms_p50", v, len(warmMs), ok, "store-hit job time")
	v, ok = groupedQuantile(warmMs, 0.99)
	set.put("run_warm_ms_p99", v, len(warmMs), ok, "store-hit job time")
	set.put("serve_req_per_s", float64(ops)/wall.Seconds(), ops, true, "cold and warm jobs")
}

func runSuiteSweep(ctx context.Context, e *env, p params) (*result, error) {
	s := &sweepRun{benches: suiteBenches(p.seed), specs: suiteMachines, n: p.sizes.sweepN}
	res := &result{n: map[string]uint64{"suite-sweep": s.n}}
	perPass := len(s.benches) * len(s.specs)

	var setups []float64
	for i := 0; i < p.sizes.setups; i++ {
		d, err := probeSetup(ctx, p.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	// One untimed pass at an eighth of the size lets code, caches and the
	// heap settle before timing.
	if _, _, err := runPass(ctx, s.benches, s.specs, s.n/8, nil); err != nil {
		return nil, err
	}

	// Timed passes.  A traced run alternates untraced passes (the default
	// in-process path) with traced ones; the per-layer metrics and the
	// traced end-to-end metrics come from the traced passes, and the gap
	// between the two kinds is the tracing overhead.
	tr := newTracer(s.benches)
	var untraced, traced []passStats
	var traces []jobTrace
	var tracedMallocs uint64
	badPasses, badTraced := 0, 0
	start := time.Now()
	for i := 0; time.Since(start) < p.window || len(untraced) < 2 || (p.trace && len(traced) < 2); i++ {
		useTracer := p.trace && i%2 == 1
		var b dispatch.Backend
		if useTracer {
			b = tr
		}
		out, st, err := runPass(ctx, s.benches, s.specs, s.n, b)
		if err != nil {
			return nil, err
		}
		switch {
		case s.want == nil:
			s.want = out
			untraced = append(untraced, st)
			if err := s.startWarm(out, missBackend{}); err != nil {
				return nil, err
			}
		case useTracer:
			badTraced += mismatches(out, s.want)
			traced = append(traced, st)
			traces = append(traces, tr.take()...)
			tracedMallocs += st.mallocs
		default:
			badPasses += mismatches(out, s.want)
			untraced = append(untraced, st)
		}
		if err := s.warmFor(ctx, st.wall/10, 0); err != nil {
			return nil, err
		}
	}
	res.addCheck(check{Name: "passes-agree", Checked: perPass * len(untraced), Mismatches: badPasses})
	if p.trace {
		res.addCheck(check{Name: "traced-equals-untraced", Checked: perPass * len(traced), Mismatches: badTraced})
	}
	if p.seed == defaultSeed && s.n == defaultSizes().sweepN {
		c := check{Name: "committed-digest", Checked: 1, Detail: digest(s.want)}
		if c.Detail != suiteDigest {
			c.Mismatches = 1
		}
		res.addCheck(c)
	}
	if err := s.warmFor(ctx, 0, 5*p.sizes.minTail+10); err != nil {
		return nil, err
	}
	s.warmCheck(res)

	timed := untraced
	if p.trace {
		timed = traced
	}
	set := e2eSet{}
	s.sweepE2E(set, timed)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	set.put("peak_rss_mb", rss, 1, true, "VmHWM of the benchmark process")
	set.put("setup_s", median(setups), len(setups), true, "launch to first job, median")
	if err := set.fill(res); err != nil {
		return nil, err
	}
	for _, ps := range [][]passStats{untraced, traced, s.warm} {
		for _, st := range ps {
			res.attempted += st.jobs()
		}
	}
	if !p.trace {
		return res, nil
	}

	ls := &layerSet{}
	addSimLayers(ls, traces, tracedMallocs)
	addMachineLayers(ls, traces, "traced passes")
	addHarnessLayers(ls, traced)
	pr, err := probeLayers(ctx, e.tmp, storeJobsOf(s), p.sizes.storeOps)
	if err != nil {
		return nil, err
	}
	absentRemote(ls)
	pr.add(ls, "probe replays the sweep's keys")
	ls.add("resultstore", "resultstore.hit_ratio", "ratio", pr.hitRatio(), int(pr.hits+pr.misses), "probe store")
	ls.add("jobqueue", "jobqueue.dedup_ratio", "ratio", pr.dedupRatio(), int(pr.enq+pr.dedup), "probe queue")
	ls.absent("wbserve", "wbserve.job_ms_p50", "ms", "no wbserve")
	ls.absent("wbserve", "wbserve.cold_nonsim_share", "ratio", "no wbserve")
	ls.add("wbserve", "wbserve.warm_overhead_us", "us", 1000*res.e2eValue("run_warm_ms_p50")-median(pr.getMem), 0, "run_warm_ms_p50 minus resultstore.get_mem_us")
	ls.add("tracing", "trace.overhead_share", "ratio", 1-ratio(median(mipsOf(s.n, quietPasses(traced))), median(mipsOf(s.n, quietPasses(untraced)))), len(traced), "traced vs untraced passes of this run")
	res.layers = ls.ms
	return res, nil
}

func jobTimesOf(passes []passStats) []time.Duration {
	var out []time.Duration
	for _, p := range passes {
		out = append(out, p.jobTimes...)
	}
	return out
}

func mipsOf(n uint64, passes []passStats) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = float64(n) * float64(p.jobs()) / p.wall.Seconds() / 1e6
	}
	return out
}
