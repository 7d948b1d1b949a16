package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dispatch"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Request kinds of the serve-mix closed loop.
const (
	warmReq  = iota // a configuration stored before timing: the store-hit fast path
	coldReq         // a fresh single-bench configuration: queue, simulate, fsynced put
	multiReq        // a fresh configuration over four benchmarks: one queued run of four jobs
)

// serveReq is one POST /run request.
type serveReq struct {
	kind    int
	m       machine
	benches []string
}

// body is the JSON request; the machine fields are the machine's.
func (r serveReq) body(n uint64) []byte {
	req := struct {
		machine
		Bench   string   `json:"bench,omitempty"`
		Benches []string `json:"benches,omitempty"`
		N       uint64   `json:"n"`
	}{machine: r.m, N: n}
	if r.kind == multiReq {
		req.Benches = r.benches
	} else {
		req.Bench = r.benches[0]
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain struct
	}
	return b
}

func (r serveReq) jobs(n uint64) []dispatch.Job {
	out := make([]dispatch.Job, len(r.benches))
	for i, b := range r.benches {
		out[i] = dispatch.Job{Bench: b, Label: r.m.label(), Cfg: r.m.config(), N: n}
	}
	return out
}

// servePlan is the whole serve-mix input, drawn from the seed: the warm
// set stored before timing and the request sequence the two clients take
// turns consuming.  About 60% of requests repeat a warm configuration,
// 30% are fresh single-bench configurations, 10% fresh four-bench runs;
// no (benchmark, machine) pair is ever cold twice.
type servePlan struct {
	warm []serveReq
	reqs []serveReq
}

func newServePlan(seed uint64, warmSet, count int) servePlan {
	r := rng.New(seed)
	names := workload.Names()
	used := map[string]bool{}
	fresh := func(kind, k int) serveReq {
		for {
			m := drawMachine(r)
			var benches []string
			for len(benches) < k {
				if b := names[r.Intn(len(names))]; !slices.Contains(benches, b) {
					benches = append(benches, b)
				}
			}
			taken := false
			for _, b := range benches {
				taken = taken || used[b+"|"+m.label()]
			}
			if taken {
				continue
			}
			for _, b := range benches {
				used[b+"|"+m.label()] = true
			}
			return serveReq{kind: kind, m: m, benches: benches}
		}
	}
	var p servePlan
	for len(p.warm) < warmSet {
		p.warm = append(p.warm, fresh(warmReq, 1))
	}
	for len(p.reqs) < count {
		switch u := r.Float64(); {
		case u < 0.6:
			p.reqs = append(p.reqs, p.warm[r.Intn(len(p.warm))])
		case u < 0.9:
			p.reqs = append(p.reqs, fresh(coldReq, 1))
		default:
			p.reqs = append(p.reqs, fresh(multiReq, 4))
		}
	}
	return p
}

// servedReply is one completed request.
type servedReply struct {
	req    serveReq
	lat    time.Duration
	done   time.Duration // completion, from the window's start
	status int
	body   []byte
	err    error
}

var serveClient = &http.Client{
	Timeout:   2 * time.Minute,
	Transport: &http.Transport{MaxIdleConnsPerHost: 4},
}

func post(url string, body []byte) (int, []byte, error) {
	resp, err := serveClient.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// slice is one tenth of the closed loop's window and the CPU steal share
// during it.
type slice struct {
	start, end time.Duration // from the window's start
	steal      float64
}

// closedLoop runs two clients, each sending its next request only after
// the previous reply, taking requests from reqs in order.  It stops at the
// window's end once at least minCold cold and minWarm warm replies are in,
// or at three windows regardless.  Replies come back in completion order,
// with the window cut into slices of a tenth of its length.
func closedLoop(url string, reqs []serveReq, n uint64, window time.Duration, minCold, minWarm int) ([]servedReply, []slice) {
	var (
		next       atomic.Int64
		cold, warm atomic.Int64
		mu         sync.Mutex
		replies    []servedReply
		wg         sync.WaitGroup
		start      = time.Now()
		end        = start.Add(window)
		hardEnd    = start.Add(3 * window)
	)
	more := func() bool {
		now := time.Now()
		if now.After(hardEnd) {
			return false
		}
		return now.Before(end) || cold.Load() < int64(minCold) || warm.Load() < int64(minWarm)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []servedReply
			for more() {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					break
				}
				r := reqs[i]
				t := time.Now()
				status, body, err := post(url, r.body(n))
				done := time.Now()
				mine = append(mine, servedReply{req: r, lat: done.Sub(t), done: done.Sub(start), status: status, body: body, err: err})
				switch r.kind {
				case coldReq:
					cold.Add(1)
				case warmReq:
					warm.Add(1)
				}
			}
			mu.Lock()
			replies = append(replies, mine...)
			mu.Unlock()
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	var slices []slice
	tick := time.NewTicker(window / 10)
	defer tick.Stop()
	last, lastAt := readCPUStat(), time.Duration(0)
	for done := false; !done; {
		select {
		case <-tick.C:
		case <-finished:
			done = true
		}
		now, at := readCPUStat(), time.Since(start)
		if n := len(slices); done && n > 0 && at-lastAt < window/20 {
			slices[n-1].end = at // too short to stand alone
			break
		}
		slices = append(slices, slice{start: lastAt, end: at, steal: now.stealShare(last)})
		last, lastAt = now, at
	}
	sort.Slice(replies, func(i, j int) bool { return replies[i].done < replies[j].done })
	return replies, slices
}

func runServeMix(ctx context.Context, e *env, p params) (*result, error) {
	n := p.sizes.serveN
	res := &result{n: map[string]uint64{"serve-mix": n}}
	plan := newServePlan(p.seed, p.sizes.warmSet, 40000)
	dir := filepath.Join(e.tmp, "serve")
	args := []string{"-store", filepath.Join(dir, "store"), "-queue", filepath.Join(dir, "queue.jsonl"),
		"-maxn", strconv.FormatUint(n, 10), "-dispatchers", "1"}

	// Fill the warm set, then restart: set-up is restart to /healthz 200
	// over the store and journal the fill left, repeated; the last restart
	// serves the timed window.
	srv, _, err := e.startWbserve(ctx, args...)
	if err != nil {
		return nil, err
	}
	fillBad := 0
	for _, r := range plan.warm {
		status, body, err := post(srv.url, r.body(n))
		if err != nil || status != http.StatusOK {
			fillBad++
			fmt.Fprintf(os.Stderr, "platbench: warm fill: %d %v %s\n", status, err, body)
		}
	}
	res.addCheck(check{Name: "warm-fill", Checked: len(plan.warm), Mismatches: fillBad})
	e.stop(srv)
	var setups []float64
	for i := 0; i < p.sizes.setups; i++ {
		s, d, err := e.startWbserve(ctx, args...)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < p.sizes.setups-1 {
			e.stop(s)
		} else {
			srv = s
		}
	}
	defer e.stop(srv)

	before, err := scrape(srv.url)
	if err != nil {
		return nil, err
	}
	// Twice the samples the tail percentiles need: only the quiet half of
	// the window is used.
	replies, slices := closedLoop(srv.url, plan.reqs, n, p.window, p.sizes.minTail/5, 2*p.sizes.minTail)
	after, err := scrape(srv.url)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	e.stop(srv)
	if len(replies) >= len(plan.reqs) {
		return nil, fmt.Errorf("the closed loop consumed all %d planned requests; enlarge the plan", len(plan.reqs))
	}

	// Oracle: every reply against an in-process dispatch.Execute of the
	// same job.
	want := map[string]dispatch.Measurement{}
	var unique []dispatch.Job
	var coldJobs []dispatch.Job
	var stored []storeJob
	for i, r := range replies {
		for _, job := range r.req.jobs(n) {
			id := job.Bench + "|" + job.Label
			if _, ok := want[id]; ok {
				continue
			}
			want[id] = dispatch.Measurement{}
			unique = append(unique, job)
			if r.req.kind != warmReq && r.status == http.StatusOK {
				coldJobs = append(coldJobs, job)
				stored = append(stored, storeJob{job: job, run: i})
			}
		}
	}
	got, err := executeAll(unique)
	if err != nil {
		return nil, err
	}
	for i, job := range unique {
		want[job.Bench+"|"+job.Label] = got[i]
	}
	for i := range stored {
		stored[i].payload = payloadOf(want[stored[i].job.Bench+"|"+stored[i].job.Label])
	}
	// The figures come from the quiet half of the window's slices — those
	// with the least CPU steal — as rates per slice (their median) and the
	// latencies of the replies that completed in them.
	quiet := map[int]bool{}
	steal := make([]float64, len(slices))
	for i, sl := range slices {
		steal[i] = sl.steal
	}
	for _, i := range quietHalf(steal) {
		quiet[i] = true
	}
	sliceReqs := make([]float64, len(slices))
	sliceJobs := make([]float64, len(slices))
	var coldMs, warmMs []float64
	var simJobs, okReqs int
	bad, failed, k := 0, 0, 0
	for _, r := range replies {
		if r.err != nil || r.status != http.StatusOK {
			failed++
			continue
		}
		okReqs++
		if !checkReply(r, n, want) {
			bad++
			continue
		}
		for k < len(slices)-1 && r.done >= slices[k].end {
			k++
		}
		if r.req.kind != warmReq {
			simJobs += len(r.req.benches)
		}
		if !quiet[k] {
			continue
		}
		sliceReqs[k]++
		switch r.req.kind {
		case warmReq:
			warmMs = append(warmMs, ms(r.lat))
		case coldReq:
			coldMs = append(coldMs, ms(r.lat))
		}
		if r.req.kind != warmReq {
			sliceJobs[k] += float64(len(r.req.benches))
		}
	}
	var reqRates, jobRates []float64
	for i, sl := range slices {
		if quiet[i] && sl.end > sl.start {
			secs := (sl.end - sl.start).Seconds()
			reqRates = append(reqRates, sliceReqs[i]/secs)
			jobRates = append(jobRates, sliceJobs[i]/secs)
		}
	}
	res.attempted = len(replies)
	res.failed += failed
	res.addCheck(check{Name: "served-equals-local", Checked: okReqs, Mismatches: bad})

	set := e2eSet{}
	jobsPerSec := median(jobRates)
	set.put("sweep_mips", jobsPerSec*float64(n)/1e6, simJobs, true, "instructions the server simulated per wall second")
	set.put("remote_jobs_per_s", jobsPerSec, simJobs, true, "jobs the server simulated per wall second")
	v, ok := groupedQuantile(coldMs, 0.5)
	set.put("run_cold_ms_p50", v, len(coldMs), ok, "POST /run, cold single-bench")
	v, ok = groupedQuantile(coldMs, 0.9)
	set.put("run_cold_ms_p90", v, len(coldMs), ok, "POST /run, cold single-bench")
	v, ok = groupedQuantile(warmMs, 0.5)
	set.put("run_warm_ms_p50", v, len(warmMs), ok, "POST /run, warm")
	v, ok = groupedQuantile(warmMs, 0.99)
	set.put("run_warm_ms_p99", v, len(warmMs), ok, "POST /run, warm")
	set.put("serve_req_per_s", median(reqRates), okReqs, true, "2 closed-loop clients")
	set.put("peak_rss_mb", rss, 1, true, "VmHWM of wbserve")
	set.put("setup_s", median(setups), len(setups), true, "restart to /healthz 200, median")
	if err := set.fill(res); err != nil {
		return nil, err
	}
	if !p.trace {
		return res, nil
	}

	ls := &layerSet{}
	flat := make([]dispatch.Measurement, len(coldJobs))
	for i, job := range coldJobs {
		flat[i] = want[job.Bench+"|"+job.Label]
	}
	traces, mallocs, err := traceJobs(ctx, res, workload.All(), coldJobs, flat)
	if err != nil {
		return nil, err
	}
	addSimLayers(ls, traces, mallocs)
	if err := addProbeLayers(ctx, ls, p); err != nil {
		return nil, err
	}
	absentRemote(ls)
	pr, err := probeLayers(ctx, e.tmp, stored, p.sizes.storeOps)
	if err != nil {
		return nil, err
	}
	pr.add(ls, "probe replays the served cold keys")
	hits := delta(before, after, `resultstore_hits_total{tier="memory"}`) + delta(before, after, `resultstore_hits_total{tier="disk"}`)
	misses := delta(before, after, "resultstore_misses_total")
	ls.add("resultstore", "resultstore.hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses), "scraped from wbserve")
	enq, dedup := delta(before, after, "jobqueue_enqueued_total"), delta(before, after, "jobqueue_deduped_total")
	ls.add("jobqueue", "jobqueue.dedup_ratio", "ratio", ratio(dedup, enq+dedup), int(enq+dedup), "scraped from wbserve")
	jobUs, k := histQuantile(before, after, "experiment_job_microseconds", 0.5)
	coldP50, warmP50 := res.e2eValue("run_cold_ms_p50"), res.e2eValue("run_warm_ms_p50")
	ls.add("wbserve", "wbserve.job_ms_p50", "ms", jobUs/1000, k, "scraped experiment_job_microseconds")
	ls.add("wbserve", "wbserve.cold_nonsim_share", "ratio", ratio(coldP50-jobUs/1000, coldP50), len(coldMs), "(cold latency − server job time) ÷ cold latency, p50s")
	ls.add("wbserve", "wbserve.warm_overhead_us", "us", warmP50*1000-median(pr.getMem), len(warmMs), "run_warm_ms_p50 minus resultstore.get_mem_us")
	ls.add("tracing", "trace.overhead_share", "ratio", 0, 0, "no tracing runs inside the timed window")
	res.layers = ls.ms
	return res, nil
}

// checkReply compares a 200 reply with the in-process measurements of its
// jobs: a single-bench reply field by field, and, for a four-bench run,
// each result in job order.  The cached flag must say whether the reply
// came from the store.
func checkReply(r servedReply, n uint64, want map[string]dispatch.Measurement) bool {
	jobs := r.req.jobs(n)
	var got []servedResult
	if r.req.kind == multiReq {
		var doc struct {
			Complete bool           `json:"complete"`
			Results  []servedResult `json:"results"`
		}
		if json.Unmarshal(r.body, &doc) != nil || !doc.Complete || len(doc.Results) != len(jobs) {
			return false
		}
		got = doc.Results
	} else {
		var one struct {
			servedResult
			Cached bool `json:"cached"`
		}
		if json.Unmarshal(r.body, &one) != nil || one.Cached != (r.req.kind == warmReq) {
			return false
		}
		got = []servedResult{one.servedResult}
	}
	for i, job := range jobs {
		if !reflect.DeepEqual(got[i], expectServed(want[job.Bench+"|"+job.Label])) {
			return false
		}
	}
	return true
}
