package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// machine is one drawn write-buffer machine, in the terms of a POST /run
// request.  serve-mix and remote-sweep draw their machines from this space
// (depth × retire × hazard × L1 × L2 latency) with the workload seed.
type machine struct {
	Depth  int    `json:"depth"`
	Retire int    `json:"retire_at"`
	Hazard string `json:"hazard"`
	L1     int    `json:"l1_size"`
	L2Lat  uint64 `json:"l2_lat"`
}

var (
	l1Sizes = []int{4 << 10, 8 << 10, 16 << 10, 32 << 10}
	l2Lats  = []uint64{3, 6, 10}
)

func drawMachine(r *rng.RNG) machine {
	depth := 2 + r.Intn(15)
	return machine{
		Depth:  depth,
		Retire: 1 + r.Intn(depth),
		Hazard: core.HazardPolicies[r.Intn(len(core.HazardPolicies))].String(),
		L1:     l1Sizes[r.Intn(len(l1Sizes))],
		L2Lat:  l2Lats[r.Intn(len(l2Lats))],
	}
}

// config builds the machine as POST /run documents its request fields:
// the paper's baseline with these fields replaced.
func (m machine) config() sim.Config {
	var hazard core.HazardPolicy
	for _, h := range core.HazardPolicies {
		if h.String() == m.Hazard {
			hazard = h
		}
	}
	return sim.Baseline().
		WithDepth(m.Depth).
		WithRetire(core.RetireAt{N: m.Retire}).
		WithHazard(hazard).
		WithL1Size(m.L1).
		WithL2Latency(m.L2Lat)
}

func (m machine) label() string {
	return fmt.Sprintf("d%d-r%d-%s-l1_%dk-l2lat%d", m.Depth, m.Retire, m.Hazard, m.L1>>10, m.L2Lat)
}

// remoteMachines draws the remote-sweep's four distinct machines.
func remoteMachines(seed uint64) []experiment.ConfigSpec {
	r := rng.New(seed)
	seen := map[machine]bool{}
	var out []experiment.ConfigSpec
	for len(out) < 4 {
		m := drawMachine(r)
		if seen[m] {
			continue
		}
		seen[m] = true
		out = append(out, experiment.ConfigSpec{Label: m.label(), Cfg: m.config()})
	}
	return out
}

// startWorkers launches two `wbserve -worker` processes and returns them
// with the time until both answered /healthz.
func startWorkers(ctx context.Context, e *env) ([]*server, time.Duration, error) {
	start := time.Now()
	var ws []*server
	for i := 0; i < 2; i++ {
		w, _, err := e.startWbserve(ctx, "-worker", "-maxn", "100000000")
		if err != nil {
			for _, w := range ws {
				e.stop(w)
			}
			return nil, 0, err
		}
		ws = append(ws, w)
	}
	return ws, time.Since(start), nil
}

func runRemoteSweep(ctx context.Context, e *env, p params) (*result, error) {
	s := &sweepRun{benches: workload.All(), specs: remoteMachines(p.seed), n: p.sizes.remoteN}
	res := &result{n: map[string]uint64{"remote-sweep": s.n}}
	perPass := len(s.benches) * len(s.specs)

	var setups []float64
	for i := 0; i < p.sizes.setups; i++ {
		ws, d, err := startWorkers(ctx, e)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			e.stop(w)
		}
		setups = append(setups, d.Seconds())
	}
	ws, _, err := startWorkers(ctx, e)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, w := range ws {
			e.stop(w)
		}
	}()
	// The remote stack as the CLIs build it (dispatch.BuildBackendOpts):
	// hedging at the pool's p95 and local fallback, here with one
	// connection per worker.
	reg := metrics.NewRegistry()
	rem, err := dispatch.NewRemote([]string{ws[0].url, ws[1].url}, dispatch.RemoteOptions{
		Metrics:              reg,
		Logf:                 func(f string, a ...any) { fmt.Fprintf(os.Stderr, "platbench: remote: "+f+"\n", a...) },
		HedgePercentile:      0.95,
		FallbackLocal:        true,
		ConcurrencyPerWorker: 1,
	})
	if err != nil {
		return nil, err
	}
	defer rem.Close()

	// One untimed pass warms both workers and fills the hedge estimator.
	if _, _, err := runPass(ctx, s.benches, s.specs, s.n, rem); err != nil {
		return nil, err
	}
	before := make([]map[string]float64, len(ws))
	for i, w := range ws {
		if before[i], err = scrape(w.url); err != nil {
			return nil, err
		}
	}
	retries0 := reg.Counter("dispatch_jobs_retried_total").Value()
	hedges0 := reg.Counter("dispatch_hedge_attempts_total").Value()
	wins0 := reg.Counter("dispatch_hedge_wins_total").Value()
	down0 := reg.Counter("dispatch_downgrades_total").Value()
	var outs [][][]experiment.Measurement
	var cold []passStats
	start := time.Now()
	for time.Since(start) < p.window || len(cold) < 2 {
		out, st, err := runPass(ctx, s.benches, s.specs, s.n, rem)
		if err != nil {
			return nil, err
		}
		if outs == nil {
			if err := s.startWarm(out, rem); err != nil {
				return nil, err
			}
		}
		outs = append(outs, out)
		cold = append(cold, st)
		if err := s.warmFor(ctx, st.wall/10, 0); err != nil {
			return nil, err
		}
	}
	if err := s.warmFor(ctx, 0, 5*p.sizes.minTail+10); err != nil {
		return nil, err
	}
	var scrapeJobMs []float64
	jobSamples := 0
	for i, w := range ws {
		after, err := scrape(w.url)
		if err != nil {
			return nil, err
		}
		q, k := histQuantile(before[i], after, "dispatch_worker_job_microseconds", 0.5)
		scrapeJobMs = append(scrapeJobMs, q/1000)
		jobSamples += k
	}
	downgrades := int(reg.Counter("dispatch_downgrades_total").Value() - down0)
	rss := 0.0
	for _, w := range ws {
		v, err := peakRSSMB(w.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss += v
	}

	// Oracle: every remote result against an in-process dispatch.Execute of
	// the same job, timed one at a time for dispatch.remote_overhead_us.
	jobs := s.jobs()
	s.want = make([][]experiment.Measurement, len(s.benches))
	var local []time.Duration
	for i, job := range jobs {
		bi, ci := i/len(s.specs), i%len(s.specs)
		if ci == 0 {
			s.want[bi] = make([]experiment.Measurement, len(s.specs))
		}
		start := time.Now()
		m, err := dispatch.Execute(job, nil)
		local = append(local, time.Since(start))
		if err != nil {
			return nil, err
		}
		s.want[bi][ci] = m
	}
	bad := 0
	for _, out := range outs {
		bad += mismatches(out, s.want)
	}
	res.addCheck(check{Name: "remote-equals-local", Checked: perPass * len(outs), Mismatches: bad})
	res.addCheck(check{Name: "no-local-fallback", Checked: perPass * len(outs), Mismatches: downgrades})
	s.warmCheck(res)

	set := e2eSet{}
	s.sweepE2E(set, cold)
	set.put("peak_rss_mb", rss, len(ws), true, "VmHWM summed over both workers")
	set.put("setup_s", median(setups), len(setups), true, "launch to both workers' /healthz 200, median")
	if err := set.fill(res); err != nil {
		return nil, err
	}
	for _, ps := range [][]passStats{cold, s.warm} {
		for _, st := range ps {
			res.attempted += st.jobs()
		}
	}
	if !p.trace {
		return res, nil
	}

	ls := &layerSet{}
	traces, mallocs, err := traceJobs(ctx, res, s.benches, jobs, flatten(s.want))
	if err != nil {
		return nil, err
	}
	addSimLayers(ls, traces, mallocs)
	if err := addProbeLayers(ctx, ls, p); err != nil {
		return nil, err
	}
	pr, err := probeLayers(ctx, e.tmp, storeJobsOf(s), p.sizes.storeOps)
	if err != nil {
		return nil, err
	}
	coldUs := 1000 * res.e2eValue("run_cold_ms_p50")
	ls.add("dispatch-remote", "dispatch.remote_overhead_us", "us", coldUs-median(durations(local, us)), len(local), "median Remote job time minus median in-process Execute")
	ls.add("dispatch-remote", "dispatch.retries", "count", float64(reg.Counter("dispatch_jobs_retried_total").Value()-retries0), 0, "timed window")
	hedges := float64(reg.Counter("dispatch_hedge_attempts_total").Value() - hedges0)
	wins := float64(reg.Counter("dispatch_hedge_wins_total").Value() - wins0)
	ls.add("dispatch-remote", "dispatch.hedges", "count", hedges, 0, "timed window")
	ls.add("dispatch-remote", "dispatch.hedge_win_ratio", "ratio", ratio(wins, hedges), int(hedges), "timed window")
	pr.add(ls, "probe replays the sweep's keys")
	ls.add("resultstore", "resultstore.hit_ratio", "ratio", pr.hitRatio(), int(pr.hits+pr.misses), "probe store")
	ls.add("jobqueue", "jobqueue.dedup_ratio", "ratio", pr.dedupRatio(), int(pr.enq+pr.dedup), "probe queue")
	jobMs := median(scrapeJobMs)
	ls.add("wbserve", "wbserve.job_ms_p50", "ms", jobMs, jobSamples, "workers' dispatch_worker_job_microseconds")
	ls.add("wbserve", "wbserve.cold_nonsim_share", "ratio", ratio(coldUs/1000-jobMs, coldUs/1000), 0, "(Remote job time − worker job time) ÷ Remote job time, p50s")
	ls.add("wbserve", "wbserve.warm_overhead_us", "us", 1000*res.e2eValue("run_warm_ms_p50")-median(pr.getMem), 0, "run_warm_ms_p50 minus resultstore.get_mem_us")
	ls.add("tracing", "trace.overhead_share", "ratio", 0, 0, "no tracing runs inside the timed window")
	res.layers = ls.ms
	return res, nil
}
