package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/machconf"
	"repro/internal/metrics"
)

// RemoteOptions tunes the Remote backend.  The zero value selects
// defaults suited to LAN workers running million-instruction jobs; the
// resilience features (hedging, local fallback, result verification) are
// opt-in so library users get exactly the behaviour they configure, and
// BuildBackendOpts turns the defenses on for the CLIs.
type RemoteOptions struct {
	// JobTimeout bounds one dispatch attempt, connection to decoded
	// response (default 2 minutes — a sim job is milliseconds to seconds,
	// so a hung worker, not a slow one, is what this catches).
	JobTimeout time.Duration
	// MaxRetries is how many times a failed job is re-dispatched after
	// its first attempt (default 3).  Determinism makes retries safe: a
	// duplicate execution returns the identical measurement.
	MaxRetries int
	// BaseBackoff is the first retry delay; each further retry doubles
	// it, capped at MaxBackoff, and the actual sleep is jittered over
	// [d/2, d) so a burst of failures does not re-converge on one worker
	// (defaults 100ms and 5s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// QuarantineAfter is the consecutive-failure count at which a worker
	// is removed from rotation and handed to the background prober
	// (default 2).
	QuarantineAfter int
	// ProbeInterval is how often a quarantined worker's /healthz is
	// retried; a success returns it to rotation (default 2s).  A worker
	// answering anything but 200 — including the 503 a starting or
	// draining worker reports — stays out of rotation, so no job is
	// burned probing a machine that would refuse it.
	ProbeInterval time.Duration
	// ConcurrencyPerWorker is the dispatch parallelism granted per worker
	// URL (default 4); the harness reads the product through Concurrency.
	ConcurrencyPerWorker int

	// HedgePercentile, in (0, 1), enables hedged requests: once an
	// attempt has been in flight longer than this percentile of the
	// pool's observed job latency, the job is speculatively re-issued to
	// a second worker and the first valid answer wins.  Jobs are
	// deterministic, so the duplicate execution is free of side effects
	// and both answers are interchangeable.  0 disables hedging.
	HedgePercentile float64
	// HedgeAfter, when positive, is a fixed hedge delay that overrides
	// the percentile estimate — chiefly for tests and for pools whose
	// latency the operator already knows.
	HedgeAfter time.Duration
	// HedgeMinSamples is how many job latencies must accumulate before
	// the percentile estimate is trusted (default 16); until then no
	// hedge fires (unless HedgeAfter forces one).
	HedgeMinSamples int
	// HedgeMinDelay floors the computed hedge delay (default 1ms) so a
	// burst of fast jobs cannot turn hedging into double-dispatching
	// everything.
	HedgeMinDelay time.Duration

	// FallbackLocal enables graceful degradation: when no healthy worker
	// remains (all quarantined or partitioned), jobs run in this process
	// through the Local backend — with a logged downgrade event and the
	// dispatch_downgrades_total counter — instead of failing the sweep.
	FallbackLocal bool

	// VerifyFraction, in (0, 1], re-executes a seeded sample of remote
	// jobs locally and compares bit-for-bit.  Every job is deterministic,
	// so any divergence proves a fault (a worker with bad hardware, a
	// mismatched binary, a hostile pool) and aborts the sweep loudly
	// rather than letting a wrong measurement contaminate results.
	// VerifySeed seeds the sample choice (0 picks a fixed seed).
	VerifyFraction float64
	VerifySeed     uint64

	// RequireChecksum rejects measurement responses that lack the
	// integrity checksum header (old or foreign workers).  Off by
	// default: responses carrying the header are always verified.
	RequireChecksum bool

	// Metrics, when non-nil, receives the dispatcher-side series:
	// dispatch_jobs_dispatched_total / _retried_total / _failed_total,
	// dispatch_workers_healthy, dispatch_worker_quarantines_total,
	// dispatch_hedge_attempts_total / _wins_total,
	// dispatch_integrity_rejections_total, dispatch_downgrades_total,
	// dispatch_verify_runs_total / _failures_total, a pool-wide and a
	// per-worker dispatch job latency histogram.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives operational events worth a human's
	// attention: the downgrade to local execution, verification runs and
	// failures.  CLIs point it at stderr.
	Logf func(format string, args ...any)
	// Seed seeds the backoff jitter (0 picks a fixed seed; jitter needs
	// spread, not secrecy).
	Seed int64
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.JobTimeout <= 0 {
		o.JobTimeout = 2 * time.Minute
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.QuarantineAfter <= 0 {
		o.QuarantineAfter = 2
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ConcurrencyPerWorker <= 0 {
		o.ConcurrencyPerWorker = 4
	}
	if o.HedgeMinSamples <= 0 {
		o.HedgeMinSamples = 16
	}
	if o.HedgeMinDelay <= 0 {
		o.HedgeMinDelay = time.Millisecond
	}
	if o.VerifySeed == 0 {
		o.VerifySeed = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Remote dispatches jobs to a pool of wbserve workers over HTTP.  Workers
// that fail QuarantineAfter jobs in a row leave the rotation and are
// re-probed in the background until /healthz answers again; jobs retry on
// the remaining pool under exponential backoff, so one dead worker slows
// a sweep instead of failing it.  Optional defenses harden the path
// further: hedged requests cut straggler tail latency, checksummed
// responses reject corrupted measurements, a seeded verification sample
// re-executes remote answers locally, and a fully dead pool degrades to
// in-process execution instead of failing the sweep (see RemoteOptions).
type Remote struct {
	workers []*remoteWorker
	client  *http.Client
	opts    RemoteOptions
	reg     *metrics.Registry
	local   Local

	dispatched   *metrics.Counter
	retried      *metrics.Counter
	failed       *metrics.Counter
	quarCount    *metrics.Counter
	healthyG     *metrics.Gauge
	hedges       *metrics.Counter
	hedgeWins    *metrics.Counter
	integrityRej *metrics.Counter
	downgrades   *metrics.Counter
	verifyRuns   *metrics.Counter
	verifyFails  *metrics.Counter
	poolLatency  *metrics.Histogram

	rngMu sync.Mutex
	rng   *rand.Rand

	downgradeOnce sync.Once

	done      chan struct{}
	closeOnce sync.Once
}

// remoteWorker is the dispatcher's view of one worker process.
type remoteWorker struct {
	url      string // normalised base URL, no trailing slash
	healthy  bool   // under mu
	fails    int    // consecutive failures, under mu
	probing  bool   // a re-probe goroutine is live, under mu
	mu       sync.Mutex
	inflight int // under mu
	latency  *metrics.Histogram
}

// NewRemote builds a Remote over the given worker addresses.  An address
// without a scheme gets "http://"; an empty list is an error.
func NewRemote(addrs []string, opts RemoteOptions) (*Remote, error) {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r := &Remote{
		client: &http.Client{},
		opts:   opts,
		reg:    reg,
		local:  Local{Metrics: reg},

		dispatched:   reg.Counter("dispatch_jobs_dispatched_total"),
		retried:      reg.Counter("dispatch_jobs_retried_total"),
		failed:       reg.Counter("dispatch_jobs_failed_total"),
		quarCount:    reg.Counter("dispatch_worker_quarantines_total"),
		healthyG:     reg.Gauge("dispatch_workers_healthy"),
		hedges:       reg.Counter("dispatch_hedge_attempts_total"),
		hedgeWins:    reg.Counter("dispatch_hedge_wins_total"),
		integrityRej: reg.Counter("dispatch_integrity_rejections_total"),
		downgrades:   reg.Counter("dispatch_downgrades_total"),
		verifyRuns:   reg.Counter("dispatch_verify_runs_total"),
		verifyFails:  reg.Counter("dispatch_verify_failures_total"),
		poolLatency:  reg.Histogram("dispatch_job_pool_microseconds"),

		rng:  rand.New(rand.NewSource(opts.Seed)),
		done: make(chan struct{}),
	}
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		a = strings.TrimRight(a, "/")
		r.workers = append(r.workers, &remoteWorker{
			url:     a,
			healthy: true,
			latency: reg.Histogram(metrics.Label("dispatch_job_microseconds", "worker", a)),
		})
	}
	if len(r.workers) == 0 {
		return nil, errors.New("dispatch: remote backend needs at least one worker address")
	}
	r.healthyG.Set(float64(len(r.workers)))
	return r, nil
}

// Close stops the background re-probe goroutines.  Jobs in flight finish
// normally; Run may still be called, but quarantined workers will no
// longer return to rotation.
func (r *Remote) Close() {
	r.closeOnce.Do(func() { close(r.done) })
}

// Concurrency reports how many jobs the pool should be handed at once:
// ConcurrencyPerWorker for every configured worker.  The experiment
// harness sizes its dispatch pool from this instead of local core count,
// since remote jobs cost this process only a blocked goroutine.
func (r *Remote) Concurrency() int {
	return len(r.workers) * r.opts.ConcurrencyPerWorker
}

// Healthy returns the URLs of the workers currently in rotation, for
// status displays and tests.
func (r *Remote) Healthy() []string {
	var out []string
	for _, w := range r.workers {
		w.mu.Lock()
		if w.healthy {
			out = append(out, w.url)
		}
		w.mu.Unlock()
	}
	return out
}

// Downgrades reports how many jobs degraded to local execution because no
// healthy worker remained.
func (r *Remote) Downgrades() uint64 { return r.downgrades.Value() }

func (r *Remote) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// permanentError marks a worker response that retrying cannot fix: the
// job itself was rejected (unknown benchmark, invalid configuration).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Run implements Backend: dispatch the job to the healthiest worker,
// retrying elsewhere with backoff on transient failures, hedging
// stragglers when configured, and degrading to local execution when the
// pool is gone and FallbackLocal is set.
func (r *Remote) Run(ctx context.Context, job Job) (Measurement, error) {
	wj, err := encodeJob(job)
	if err != nil {
		return Measurement{}, err
	}
	body, err := json.Marshal(wj)
	if err != nil {
		return Measurement{}, err
	}
	// The canonical hash exists whenever the job encodes; it anchors the
	// response integrity checksum.
	cfgHash, err := machconf.Hash(job.Cfg)
	if err != nil {
		return Measurement{}, err
	}
	r.dispatched.Inc()

	var lastErr error
	attempts := r.opts.MaxRetries + 1
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			r.retried.Inc()
			if err := r.sleep(ctx, r.backoff(attempt)); err != nil {
				r.failed.Inc()
				return Measurement{}, err
			}
		}
		w := r.pick(nil)
		if w == nil {
			if r.opts.FallbackLocal {
				return r.downgrade(ctx, job)
			}
			lastErr = errors.New("no healthy workers in the pool")
			continue
		}
		m, err := r.attempt(ctx, w, body, cfgHash)
		if err == nil {
			if verr := r.maybeVerify(ctx, job, m); verr != nil {
				r.failed.Inc()
				return Measurement{}, verr
			}
			return m, nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			// The worker is fine; the job is unrunnable anywhere.
			r.failed.Inc()
			return Measurement{}, fmt.Errorf("dispatch: job %s/%s rejected by %s: %w",
				job.Bench, job.Label, w.url, perm.err)
		}
		if ctx.Err() != nil {
			r.failed.Inc()
			return Measurement{}, ctx.Err()
		}
		lastErr = fmt.Errorf("worker %s: %w", w.url, err)
	}
	// Retry budget spent.  If the failures emptied the pool meanwhile, the
	// sweep can still finish locally.
	if r.opts.FallbackLocal && len(r.Healthy()) == 0 {
		return r.downgrade(ctx, job)
	}
	r.failed.Inc()
	return Measurement{}, fmt.Errorf("dispatch: job %s/%s failed after %d attempts: %w",
		job.Bench, job.Label, attempts, lastErr)
}

// downgrade runs a job in-process because the worker pool has no healthy
// member — the graceful-degradation path.  The event is logged once (the
// counter tracks volume) so a thousand-job sweep does not scroll a
// thousand warnings.
func (r *Remote) downgrade(ctx context.Context, job Job) (Measurement, error) {
	r.downgrades.Inc()
	r.downgradeOnce.Do(func() {
		r.logf("no healthy workers in the pool; degrading to local execution (dispatch_downgrades_total counts affected jobs)")
	})
	return r.local.Run(ctx, job)
}

// maybeVerify re-executes a seeded sample of remote jobs locally and
// compares the measurements bit for bit.  A divergence is unforgivable —
// determinism guarantees equal answers — so it aborts the sweep.
func (r *Remote) maybeVerify(ctx context.Context, job Job, got Measurement) error {
	if r.opts.VerifyFraction <= 0 {
		return nil
	}
	key, err := job.Key()
	if err != nil {
		return nil // unkeyable jobs cannot travel in the first place
	}
	if !sampleHash(key, r.opts.VerifySeed, r.opts.VerifyFraction) {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	r.verifyRuns.Inc()
	want, err := Execute(job, nil)
	if err != nil {
		return fmt.Errorf("dispatch: verification re-execution of %s/%s failed: %w", job.Bench, job.Label, err)
	}
	if want != got {
		r.verifyFails.Inc()
		r.logf("VERIFICATION DIVERGENCE for job %s/%s: remote and local measurements differ — aborting", job.Bench, job.Label)
		return fmt.Errorf("dispatch: verification divergence for %s/%s: remote measurement %+v, local %+v — remote results cannot be trusted",
			job.Bench, job.Label, got, want)
	}
	return nil
}

// attempt performs one (possibly hedged) dispatch of a job.  Worker
// health accounting happens here: the worker that produced the winning
// answer is marked good, a worker whose attempt failed is marked bad, and
// an attempt abandoned because the race was already won counts neither
// way.  Exactly one measurement is returned no matter how many requests
// were in flight, so the store and the dispatched/failed counters never
// double-count a job.
func (r *Remote) attempt(ctx context.Context, w *remoteWorker, body []byte, cfgHash string) (Measurement, error) {
	delay, hedge := r.hedgeDelay()
	if !hedge {
		m, err := r.post(ctx, w, body, cfgHash)
		if err == nil {
			r.noteSuccess(w)
		} else if !isPermanent(err) {
			r.noteFailure(w)
		} else {
			r.noteSuccess(w) // the job was bad, not the worker
		}
		return m, err
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // the loser is cancelled the moment a winner returns

	type outcome struct {
		m      Measurement
		err    error
		w      *remoteWorker
		hedged bool
	}
	ch := make(chan outcome, 2) // buffered: an abandoned attempt must not leak its goroutine
	launch := func(target *remoteWorker, hedged bool) {
		go func() {
			m, err := r.post(hctx, target, body, cfgHash)
			ch <- outcome{m: m, err: err, w: target, hedged: hedged}
		}()
	}
	launch(w, false)
	inFlight := 1
	hedgeFired := false
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case o := <-ch:
			inFlight--
			if o.err == nil {
				r.noteSuccess(o.w)
				if o.hedged {
					r.hedgeWins.Inc()
				}
				return o.m, nil
			}
			if isPermanent(o.err) {
				r.noteSuccess(o.w)
				return Measurement{}, o.err
			}
			if ctx.Err() == nil {
				// A loss caused by our own cancellation is not the
				// worker's fault; anything else is.
				r.noteFailure(o.w)
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if inFlight == 0 && (hedgeFired || ctx.Err() != nil) {
				return Measurement{}, firstErr
			}
			if inFlight == 0 {
				// Primary failed before the hedge timer; fail the attempt
				// and let the retry loop re-dispatch with backoff.
				return Measurement{}, firstErr
			}
		case <-timer.C:
			if hedgeFired {
				continue
			}
			hedgeFired = true
			if w2 := r.pick(w); w2 != nil {
				r.hedges.Inc()
				launch(w2, true)
				inFlight++
			}
		}
	}
}

// isPermanent reports whether err marks a job rejection rather than a
// worker fault.
func isPermanent(err error) bool {
	var perm *permanentError
	return errors.As(err, &perm)
}

// hedgeDelay returns the straggler threshold after which an attempt is
// hedged, and whether hedging is active at all.  A fixed HedgeAfter wins;
// otherwise the delay is the configured percentile of the pool-wide job
// latency histogram, floored by HedgeMinDelay, once enough samples exist.
func (r *Remote) hedgeDelay() (time.Duration, bool) {
	if r.opts.HedgeAfter > 0 {
		return r.opts.HedgeAfter, true
	}
	p := r.opts.HedgePercentile
	if p <= 0 || p >= 1 {
		return 0, false
	}
	if r.poolLatency.Count() < uint64(r.opts.HedgeMinSamples) {
		return 0, false
	}
	d := time.Duration(r.poolLatency.Quantile(p)) * time.Microsecond
	if d < r.opts.HedgeMinDelay {
		d = r.opts.HedgeMinDelay
	}
	return d, true
}

// pick chooses the healthy worker with the fewest jobs in flight and
// reserves a slot on it; the caller must release via post's defer.  A
// non-nil exclude skips that worker, so a hedge lands elsewhere.
func (r *Remote) pick(exclude *remoteWorker) *remoteWorker {
	var best *remoteWorker
	bestLoad := 0
	for _, w := range r.workers {
		if w == exclude {
			continue
		}
		w.mu.Lock()
		ok, load := w.healthy, w.inflight
		w.mu.Unlock()
		if !ok {
			continue
		}
		if best == nil || load < bestLoad {
			best, bestLoad = w, load
		}
	}
	if best != nil {
		best.mu.Lock()
		best.inflight++
		best.mu.Unlock()
	}
	return best
}

// post performs one dispatch attempt against one worker, verifying the
// response's integrity checksum when present (or required).
func (r *Remote) post(ctx context.Context, w *remoteWorker, body []byte, cfgHash string) (Measurement, error) {
	defer func() {
		w.mu.Lock()
		w.inflight--
		w.mu.Unlock()
	}()
	ctx, cancel := context.WithTimeout(ctx, r.opts.JobTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/job", bytes.NewReader(body))
	if err != nil {
		return Measurement{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return Measurement{}, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Measurement{}, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to verify and decode
	case http.StatusBadRequest, http.StatusUnprocessableEntity:
		return Measurement{}, &permanentError{fmt.Errorf("status %d: %s",
			resp.StatusCode, strings.TrimSpace(string(payload)))}
	default:
		return Measurement{}, fmt.Errorf("status %d: %s",
			resp.StatusCode, strings.TrimSpace(string(payload)))
	}
	if sum := resp.Header.Get(ChecksumHeader); sum != "" {
		if sum != Checksum(cfgHash, payload) {
			r.integrityRej.Inc()
			return Measurement{}, fmt.Errorf("integrity: response checksum mismatch (%d payload bytes)", len(payload))
		}
	} else if r.opts.RequireChecksum {
		r.integrityRej.Inc()
		return Measurement{}, errors.New("integrity: response carries no checksum and RequireChecksum is set")
	}
	var m Measurement
	if err := json.Unmarshal(payload, &m); err != nil {
		return Measurement{}, fmt.Errorf("undecodable response: %v", err)
	}
	if m.Bench == "" {
		return Measurement{}, errors.New("response carries no measurement")
	}
	elapsed := uint64(time.Since(start).Microseconds())
	w.latency.Observe(elapsed)
	r.poolLatency.Observe(elapsed)
	return m, nil
}

func (r *Remote) noteSuccess(w *remoteWorker) {
	w.mu.Lock()
	w.fails = 0
	w.mu.Unlock()
}

// noteFailure counts a consecutive failure and quarantines the worker at
// the threshold, starting its background re-probe.
func (r *Remote) noteFailure(w *remoteWorker) {
	w.mu.Lock()
	w.fails++
	quarantine := w.healthy && w.fails >= r.opts.QuarantineAfter
	if quarantine {
		w.healthy = false
		if !w.probing {
			w.probing = true
			go r.probe(w)
		}
	}
	w.mu.Unlock()
	if quarantine {
		r.quarCount.Inc()
		r.healthyG.Set(float64(len(r.Healthy())))
	}
}

// probe polls a quarantined worker's /healthz until it answers, then
// returns it to rotation.  One goroutine per quarantined worker; exits on
// Close.
func (r *Remote) probe(w *remoteWorker) {
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			w.mu.Lock()
			w.probing = false
			w.mu.Unlock()
			return
		case <-t.C:
			if r.probeOnce(w) {
				w.mu.Lock()
				w.healthy = true
				w.fails = 0
				w.probing = false
				w.mu.Unlock()
				r.healthyG.Set(float64(len(r.Healthy())))
				return
			}
		}
	}
}

// probeOnce checks a worker's /healthz.  Only a 200 means "ready for
// work": a starting or draining worker answers 503 and stays out of
// rotation rather than being handed a job it would refuse.
func (r *Remote) probeOnce(w *remoteWorker) bool {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// backoff returns the jittered delay before retry number attempt (1-based):
// exponential from BaseBackoff, capped at MaxBackoff, uniform over [d/2, d).
func (r *Remote) backoff(attempt int) time.Duration {
	d := r.opts.BaseBackoff
	for i := 1; i < attempt && d < r.opts.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.opts.MaxBackoff {
		d = r.opts.MaxBackoff
	}
	half := d / 2
	r.rngMu.Lock()
	j := time.Duration(r.rng.Int63n(int64(half) + 1))
	r.rngMu.Unlock()
	return half + j
}

func (r *Remote) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
