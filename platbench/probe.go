package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/jobqueue"
	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/resultstore"
)

// storeJob is one result the workload stored: the job, the payload
// dispatch.Cached would store for it, and the run (one POST /run, or one
// sweep job) it was submitted in.
type storeJob struct {
	job     dispatch.Job
	payload []byte
	run     int
}

// storeJobsOf lists a sweep's jobs with their cold results, one run per job.
func storeJobsOf(s *sweepRun) []storeJob {
	jobs := s.jobs()
	out := make([]storeJob, len(jobs))
	for i, job := range jobs {
		out[i] = storeJob{job: job, payload: payloadOf(s.want[i/len(s.specs)][i%len(s.specs)]), run: i}
	}
	return out
}

// payloadOf is the label-stripped encoding dispatch.Cached stores.
func payloadOf(m dispatch.Measurement) []byte {
	m.Label = ""
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // Measurement is scalars and arrays only
	}
	return b
}

func putMeasurement(store resultstore.KV, job dispatch.Job, m dispatch.Measurement) error {
	key, hash, err := dispatch.StoreKey(job)
	if err != nil {
		return err
	}
	return store.Put(key, hash, payloadOf(m))
}

// probeResult holds the timed calls into resultstore, dispatch.Cached and
// jobqueue made by probeLayers.
type probeResult struct {
	put, getDisk, getMem, cachedHit []float64 // µs
	hits, misses                    float64
	submit, done                    []float64 // µs
	wait                            []float64 // ms
	enq, dedup                      float64
}

func (pr *probeResult) hitRatio() float64   { return ratio(pr.hits, pr.hits+pr.misses) }
func (pr *probeResult) dedupRatio() float64 { return ratio(pr.dedup, pr.enq+pr.dedup) }

// add reports the timed store, cache and queue calls.
func (pr *probeResult) add(ls *layerSet, why string) {
	ls.add("dispatch-cached", "dispatch.cached_hit_us", "us", median(pr.cachedHit), len(pr.cachedHit), "Cached.Run on a hit, median; "+why)
	v, _ := quantile(pr.put, 0.5)
	ls.add("resultstore", "resultstore.put_us_p50", "us", v, len(pr.put), "fsynced; "+why)
	v, ok := quantile(pr.put, 0.99)
	ls.ms = append(ls.ms, metric{name: "resultstore.put_us_p99", value: v, unit: "us", layer: "resultstore", samples: len(pr.put), ok: ok, why: "fsynced; " + why})
	ls.add("resultstore", "resultstore.get_mem_us", "us", median(pr.getMem), len(pr.getMem), "median; "+why)
	ls.add("resultstore", "resultstore.get_disk_us", "us", median(pr.getDisk), len(pr.getDisk), "median; "+why)
	ls.add("jobqueue", "jobqueue.submit_us", "us", median(pr.submit), len(pr.submit), "journal append, not fsynced; median")
	ls.add("jobqueue", "jobqueue.done_us", "us", median(pr.done), len(pr.done), "median")
	ls.add("jobqueue", "jobqueue.wait_ms", "ms", median(pr.wait), len(pr.wait), "Submit return to Dequeue return, 2 dequeuers; median")
}

// probeLayers replays a workload's stored results through a fresh on-disk
// resultstore (Get miss then Put, as dispatch.Cached does; then a disk Get
// and a memory Get from a reopened store; then Cached.Run hits), repeated
// in fresh directories until at least minPuts puts are timed, and through
// a fresh jobqueue journal drained by two dequeuers.
func probeLayers(ctx context.Context, dir string, jobs []storeJob, minPuts int) (*probeResult, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("layer probe: no jobs")
	}
	pr := &probeResult{}
	reg := metrics.NewRegistry()
	opts := resultstore.Options{MemoryEntries: len(jobs) + 1, Metrics: reg}
	for rep := 0; len(pr.put) < minPuts; rep++ {
		d := filepath.Join(dir, "probe-store-"+strconv.Itoa(rep))
		s, err := resultstore.Open(d, opts)
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			key, hash, err := dispatch.StoreKey(j.job)
			if err != nil {
				return nil, err
			}
			s.Get(key)
			start := time.Now()
			if err := s.Put(key, hash, j.payload); err != nil {
				return nil, err
			}
			pr.put = append(pr.put, us(time.Since(start)))
		}
		s2, err := resultstore.Open(d, opts)
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			key, _, _ := dispatch.StoreKey(j.job)
			start := time.Now()
			_, ok1 := s2.Get(key)
			mid := time.Now()
			_, ok2 := s2.Get(key)
			end := time.Now()
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("layer probe: stored key %s not found", key)
			}
			pr.getDisk = append(pr.getDisk, us(mid.Sub(start)))
			pr.getMem = append(pr.getMem, us(end.Sub(mid)))
		}
		cached := dispatch.NewCached(missBackend{}, s2, nil)
		for _, j := range jobs {
			start := time.Now()
			if _, err := cached.Run(ctx, j.job); err != nil {
				return nil, fmt.Errorf("layer probe: Cached.Run: %w", err)
			}
			pr.cachedHit = append(pr.cachedHit, us(time.Since(start)))
		}
	}
	pr.hits = float64(reg.Counter(metrics.Label("resultstore_hits_total", "tier", "memory")).Value() +
		reg.Counter(metrics.Label("resultstore_hits_total", "tier", "disk")).Value())
	pr.misses = float64(reg.Counter("resultstore_misses_total").Value())
	if err := probeQueue(ctx, filepath.Join(dir, "probe-queue.jsonl"), jobs, pr); err != nil {
		return nil, err
	}
	return pr, nil
}

// probeQueue submits the workload's runs, in order, to a fresh journal
// while two goroutines dequeue and mark each job done.
func probeQueue(ctx context.Context, path string, jobs []storeJob, pr *probeResult) error {
	reg := metrics.NewRegistry()
	q, err := jobqueue.Open(path, reg, nil)
	if err != nil {
		return err
	}
	defer q.Close()
	var runs []jobqueue.Run
	for _, j := range jobs {
		blob, err := machconf.Encode(j.job.Cfg)
		if err != nil {
			return err
		}
		key, _, _ := dispatch.StoreKey(j.job)
		qj := jobqueue.Job{Bench: j.job.Bench, Label: j.job.Label, N: j.job.N, Config: blob, Key: key}
		if len(runs) == 0 || runs[len(runs)-1].ID != "run-"+strconv.Itoa(j.run) {
			runs = append(runs, jobqueue.Run{ID: "run-" + strconv.Itoa(j.run)})
		}
		runs[len(runs)-1].Jobs = append(runs[len(runs)-1].Jobs, qj)
	}

	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		dequeued = map[string]time.Time{}
		wg       sync.WaitGroup
	)
	got := make(chan struct{}, len(jobs)) // one send per dequeued job
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, err := q.Dequeue(dctx)
				if err != nil {
					return
				}
				at := time.Now()
				err = q.Done(j.Key)
				d := time.Since(at)
				mu.Lock()
				dequeued[j.Key] = at
				pr.done = append(pr.done, us(d))
				mu.Unlock()
				if err != nil {
					cancel()
					return
				}
				got <- struct{}{}
			}
		}()
	}
	submitted := map[string]time.Time{}
	queued := 0
	for _, run := range runs {
		start := time.Now()
		k, err := q.Submit(run, nil)
		end := time.Now()
		if err != nil {
			cancel()
			wg.Wait()
			return err
		}
		queued += k
		pr.submit = append(pr.submit, us(end.Sub(start)))
		for _, j := range run.Jobs {
			submitted[j.Key] = end
		}
	}
	for i := 0; i < queued; i++ {
		select {
		case <-got:
		case <-dctx.Done():
			wg.Wait()
			return fmt.Errorf("layer probe: queue drain: %v", dctx.Err())
		}
	}
	cancel()
	wg.Wait()
	for key, at := range dequeued {
		w := at.Sub(submitted[key])
		if w < 0 {
			w = 0 // dequeued before Submit returned
		}
		pr.wait = append(pr.wait, ms(w))
	}
	pr.enq = float64(reg.Counter("jobqueue_enqueued_total").Value())
	pr.dedup = float64(reg.Counter("jobqueue_deduped_total").Value())
	return nil
}
