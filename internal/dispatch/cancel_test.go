package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// goroutineBaseline polls until the goroutine count settles and returns
// it — background reprobes and finished HTTP keep-alives need a moment to
// park before a leak check is meaningful.
func goroutinesSettle(n int) bool {
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= n {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// Cancelling mid-backoff must end Run in roughly the cancellation time,
// not after the remaining backoff schedule.
func TestCancelDuringBackoffSleep(t *testing.T) {
	worker := &scriptedWorker{script: []func(http.ResponseWriter){respondError(500)}}
	ts := httptest.NewServer(worker)
	defer ts.Close()

	opts := fastOpts(nil)
	opts.MaxRetries = 10
	opts.BaseBackoff = 300 * time.Millisecond
	opts.MaxBackoff = time.Second
	rem, err := NewRemote([]string{ts.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = rem.Run(ctx, testJob())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Run succeeded against an always-failing worker")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error %q does not surface the cancellation", err)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("Run took %v after cancel; the backoff sleep did not honor the context", elapsed)
	}
}

// Cancelling while a hedged pair is in flight must stop both attempts
// promptly and leak no goroutines.
func TestCancelDuringHedgedAttempt(t *testing.T) {
	hang := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte("ok"))
			return
		}
		// Drain the body so the server's background read can detect the
		// client abort, then hold the attempt until the dispatcher gives up.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	workers := []*httptest.Server{
		httptest.NewServer(hang),
		httptest.NewServer(hang),
	}
	for _, ts := range workers {
		defer ts.Close()
	}

	baseline := runtime.NumGoroutine()
	opts := fastOpts(nil)
	opts.MaxRetries = -1 // single attempt; the hang is the whole story
	opts.JobTimeout = 10 * time.Second
	opts.HedgeAfter = 10 * time.Millisecond
	rem, err := NewRemote([]string{workers[0].URL, workers[1].URL}, opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(60 * time.Millisecond) // past the hedge delay: two attempts in flight
		cancel()
	}()
	start := time.Now()
	_, err = rem.Run(ctx, testJob())
	if err == nil {
		t.Fatal("Run succeeded against hung workers")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("Run took %v after cancel with hedged attempts in flight", elapsed)
	}
	rem.Close()
	if !goroutinesSettle(baseline + 2) {
		t.Errorf("goroutines did not settle after cancelled hedged dispatch: baseline %d, now %d",
			baseline, runtime.NumGoroutine())
	}
}

// A worker runs its job under the request's context: when the dispatcher
// abandons the attempt (here, the client cancels mid-simulation), the
// handler returns within a batch, writes nothing and counts no job error.
func TestWorkerStopsAbandonedJob(t *testing.T) {
	reg := metrics.NewRegistry()
	ts := httptest.NewServer(WorkerHandler(reg, nil))
	w, err := encodeJob(Job{Bench: "li", Label: "base", Cfg: sim.Baseline(), N: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/job", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("a 2^40-instruction job answered %s within 50ms", resp.Status)
	}

	// Close waits for the in-flight handler: it returns only once the
	// abandoned simulation has stopped.
	closed := make(chan struct{})
	go func() {
		ts.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("worker still simulating 5s after the dispatcher abandoned the job")
	}
	if got := reg.Counter("dispatch_worker_jobs_total").Value(); got != 1 {
		t.Errorf("dispatch_worker_jobs_total = %d, want 1", got)
	}
	if got := reg.Counter("dispatch_worker_job_errors_total").Value(); got != 0 {
		t.Errorf("abandoned job counted %d job errors, want 0", got)
	}
	if got := reg.Histogram("dispatch_worker_job_microseconds").Count(); got != 0 {
		t.Errorf("abandoned job recorded %d latencies, want 0", got)
	}
}
