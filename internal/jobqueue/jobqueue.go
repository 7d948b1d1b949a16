// Package jobqueue is the durable FIFO in front of the platform's dispatch
// pool: sweeps are submitted as runs, their jobs queue in arrival order,
// and an append-only, torn-tail-tolerant JSONL journal makes the whole
// thing survive a kill -9.
//
// The write-buffer analogy is deliberate.  The paper's buffer decouples a
// fast producer (the CPU issuing stores) from a slow consumer (the L2
// accepting retirements) and makes the deferred work shareable — merging
// stores to one line costs one retirement.  The queue does the same for
// the serving layer: POST /run accepts sweeps at request speed, simulation
// capacity drains them asynchronously, and deduplication by result-store
// key is the coalescing step — two tenants asking for the same
// (bench, n, machine) enqueue one job, and one execution retires both.
//
// Durability protocol.  Two journal ops:
//
//	{"op":"run","run":{...}}   a submitted run: id, tenant, ordered jobs
//	{"op":"done","key":"..."}  one job's result is durably in the store
//
// A done marker is appended only after the result store holds the payload,
// so replay can trust it.  On restart, jobs from journaled runs that lack
// a done marker are re-enqueued in their original order (at-least-once
// delivery — harmless, because jobs are deterministic and the store
// answers re-executions before they simulate).  A job that was in flight
// when the process died simply reruns.  A torn final line is skipped.
//
// Growth is bounded: Resume compacts the journal after replay, rewriting
// only the live records (runs that still have undone jobs, and the done
// markers those runs reference) and atomically swapping the file — a
// long-lived server replays a backlog, not its whole history.  The
// jobqueue_journal_bytes gauge tracks the file size between restarts.
//
// The queue does not interpret job payloads: the machconf blob rides
// through opaquely, so custom registered policies queue like built-ins.
// docs/SERVING.md covers sizing, recovery semantics, and journal rotation.
package jobqueue

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/metrics"
)

// Job is one queued simulation: the benchmark coordinates, the machine's
// canonical machconf blob, and the result-store key the finished
// measurement will live under (also the dedup identity).
type Job struct {
	Bench string `json:"bench"`
	Label string `json:"label,omitempty"`
	N     uint64 `json:"n"`
	// Config is the machconf canonical blob, opaque to the queue.
	Config json.RawMessage `json:"config"`
	// Key is the resultstore key (bench|n|machconf-hash).
	Key string `json:"key"`
	// Tenant attributes the job for quotas and per-tenant metrics.
	Tenant string `json:"tenant,omitempty"`
}

// Run is a submitted sweep: an ordered set of jobs under one identity.
// IDs are content-addressed by the caller (wbserve hashes tenant + job
// keys), so resubmitting an identical sweep converges on one run.
type Run struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	Jobs   []Job  `json:"jobs"`
}

// record is one journal line.
type record struct {
	Op  string `json:"op"`            // "run" or "done"
	Run *Run   `json:"run,omitempty"` // op == "run"
	Key string `json:"key,omitempty"` // op == "done"
}

// Queue is the durable FIFO.  All methods are safe for concurrent use.
type Queue struct {
	mu      sync.Mutex
	f       *os.File        // nil for a memory-only queue
	path    string          // journal path, "" for memory-only
	bytes   int64           // journal size (tracked so appends stay O(1))
	runs    map[string]*Run // every journaled run, by id
	order   []string        // run ids in submission order
	done    map[string]bool // keys with a durable result
	pending []Job           // FIFO of undone, deduped jobs
	active  map[string]bool // keys pending or in flight (dedup index)
	wake    chan struct{}   // closed-and-replaced to wake blocked Dequeue
	closed  bool

	loaded  int // runs replayed from the journal
	skipped int // unparsable journal lines

	enqueued  *metrics.Counter
	deduped   *metrics.Counter
	doneC     *metrics.Counter
	compacted *metrics.Counter
	depth     *metrics.Gauge
	jbytes    *metrics.Gauge
	logf      func(format string, args ...any)
}

// Open opens (creating if needed) the queue journaled at path, replaying
// any existing journal.  An empty path selects a memory-only queue: same
// semantics, no durability.  reg, when non-nil, receives the jobqueue_*
// series.  After Open, call Resume with the result store's membership test
// to build the pending FIFO from the replayed runs.
func Open(path string, reg *metrics.Registry, logf func(format string, args ...any)) (*Queue, error) {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	q := &Queue{
		runs:      map[string]*Run{},
		done:      map[string]bool{},
		active:    map[string]bool{},
		wake:      make(chan struct{}),
		enqueued:  reg.Counter("jobqueue_enqueued_total"),
		deduped:   reg.Counter("jobqueue_deduped_total"),
		doneC:     reg.Counter("jobqueue_done_total"),
		compacted: reg.Counter("jobqueue_compactions_total"),
		depth:     reg.Gauge("jobqueue_depth"),
		jbytes:    reg.Gauge("jobqueue_journal_bytes"),
		logf:      logf,
	}
	if path == "" {
		return q, nil
	}
	q.path = path
	if existing, err := os.ReadFile(path); err == nil {
		q.replay(existing)
		q.bytes = int64(len(existing))
		q.jbytes.Set(float64(q.bytes))
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobqueue: reading journal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobqueue: opening journal %s: %w", path, err)
	}
	q.f = f
	return q, nil
}

// replay loads journal lines, skipping unparsable ones (a torn tail from a
// killed writer); the affected run is simply resubmitted by its client or
// its jobs rerun.
func (q *Queue) replay(data []byte) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			q.skipped++
			if q.logf != nil {
				q.logf("jobqueue: skipping unparsable journal line %d (%d bytes)", lineNo, len(line))
			}
			continue
		}
		switch {
		case rec.Op == "run" && rec.Run != nil && rec.Run.ID != "":
			if _, dup := q.runs[rec.Run.ID]; !dup {
				q.order = append(q.order, rec.Run.ID)
				q.loaded++
			}
			q.runs[rec.Run.ID] = rec.Run // last submission wins
		case rec.Op == "done" && rec.Key != "":
			q.done[rec.Key] = true
		default:
			q.skipped++
		}
	}
}

// Resume builds the pending FIFO from the replayed runs: every job whose
// key has no done marker and fails the store membership test (isDone may
// be nil) is enqueued in original submission order.  Jobs that were in
// flight at the kill reappear here — at-least-once delivery.  Returns the
// number of jobs queued for re-execution.
func (q *Queue) Resume(isDone func(key string) bool) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, id := range q.order {
		for _, j := range q.runs[id].Jobs {
			if q.done[j.Key] || q.active[j.Key] {
				continue
			}
			if isDone != nil && isDone(j.Key) {
				q.done[j.Key] = true // store already has it; trust the store
				continue
			}
			q.pending = append(q.pending, j)
			q.active[j.Key] = true
			n++
		}
	}
	if n > 0 {
		q.depth.Set(float64(len(q.pending)))
		q.wakeAll()
		if q.logf != nil {
			q.logf("jobqueue: resumed %d pending jobs from %d journaled runs", n, q.loaded)
		}
	}
	q.compactLocked()
	return n
}

// compactLocked rewrites the journal with only its live records — runs
// that still have undone jobs, plus the done markers those runs reference —
// and atomically replaces the old file.  Without this, a long-lived server
// replays every done marker it ever wrote on each restart; with it, the
// journal's size tracks the backlog, not the history.  Completed runs drop
// out of the journal entirely (their results live in the store, and
// resubmitting the same sweep reconstructs the run instantly from store
// hits).  Callers hold mu.  Best-effort: a failed rewrite keeps the old
// journal and is logged, never fatal.
func (q *Queue) compactLocked() {
	if q.f == nil || q.path == "" {
		return
	}
	var liveIDs []string
	liveDone := map[string]bool{}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, id := range q.order {
		run := q.runs[id]
		live := false
		for _, j := range run.Jobs {
			if !q.done[j.Key] {
				live = true
				break
			}
		}
		if !live {
			continue
		}
		liveIDs = append(liveIDs, id)
		if enc.Encode(record{Op: "run", Run: run}) != nil {
			return
		}
	}
	for _, id := range liveIDs {
		for _, j := range q.runs[id].Jobs {
			if q.done[j.Key] && !liveDone[j.Key] {
				liveDone[j.Key] = true
				if enc.Encode(record{Op: "done", Key: j.Key}) != nil {
					return
				}
			}
		}
	}
	if int64(buf.Len()) >= q.bytes {
		return // nothing to reclaim
	}
	tmp, err := os.CreateTemp(filepath.Dir(q.path), ".journal-*")
	if err == nil {
		if _, err = tmp.Write(buf.Bytes()); err == nil {
			err = tmp.Sync()
		}
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), q.path)
		}
		if err != nil {
			os.Remove(tmp.Name())
		}
	}
	if err != nil {
		if q.logf != nil {
			q.logf("jobqueue: journal compaction failed (keeping old journal): %v", err)
		}
		return
	}
	// The old append handle points at the unlinked file; reopen on the new.
	old := q.f
	f, err := os.OpenFile(q.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted journal is durable but unappendable — run degraded
		// (memory-only appends) rather than crash; the next restart replays
		// the compacted file.
		q.f = nil
		if q.logf != nil {
			q.logf("jobqueue: reopening compacted journal failed, appends disabled: %v", err)
		}
	} else {
		q.f = f
	}
	old.Close()
	reclaimed := q.bytes - int64(buf.Len())
	q.bytes = int64(buf.Len())
	q.jbytes.Set(float64(q.bytes))
	q.compacted.Inc()
	if q.logf != nil {
		q.logf("jobqueue: compacted journal %s: %d live runs kept, %d bytes reclaimed",
			q.path, len(liveIDs), reclaimed)
	}
}

// JournalBytes reports the journal's current size (0 for memory-only) —
// the admin queue-status figure alongside Depth.
func (q *Queue) JournalBytes() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.bytes
}

// Loaded reports how many runs the journal replayed and how many
// unparsable lines were skipped.
func (q *Queue) Loaded() (runs, skipped int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.loaded, q.skipped
}

// Submit journals a run and enqueues its not-yet-done jobs, deduplicating
// by result-store key: a key already pending or in flight (from any run or
// tenant) or already done is not enqueued again.  isDone, when non-nil, is the result
// store's membership test — keys it accepts count as done without
// consulting the journal.  Returns how many jobs were newly enqueued.
// Resubmitting a run id that is already journaled with the same jobs is
// idempotent.
func (q *Queue) Submit(run Run, isDone func(key string) bool) (queued int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, fmt.Errorf("jobqueue: closed")
	}
	if _, exists := q.runs[run.ID]; !exists {
		q.order = append(q.order, run.ID)
	}
	q.runs[run.ID] = &run
	if err := q.append(record{Op: "run", Run: &run}); err != nil {
		return 0, err
	}
	for _, j := range run.Jobs {
		if q.done[j.Key] || q.active[j.Key] {
			q.deduped.Inc()
			continue
		}
		if isDone != nil && isDone(j.Key) {
			q.done[j.Key] = true
			q.deduped.Inc()
			continue
		}
		q.pending = append(q.pending, j)
		q.active[j.Key] = true
		q.enqueued.Inc()
		queued++
	}
	q.depth.Set(float64(len(q.pending)))
	if queued > 0 {
		q.wakeAll()
	}
	return queued, nil
}

// Dequeue removes and returns the oldest pending job, blocking until one
// is available, the context is cancelled, or the queue is closed (which
// returns an error, letting dispatcher goroutines exit).  The job's key
// stays in flight — Submit deduplicates against it — until Done or
// Release.
func (q *Queue) Dequeue(ctx context.Context) (Job, error) {
	for {
		q.mu.Lock()
		if len(q.pending) > 0 {
			j := q.pending[0]
			q.pending = q.pending[1:]
			q.depth.Set(float64(len(q.pending)))
			q.mu.Unlock()
			return j, nil
		}
		if q.closed {
			q.mu.Unlock()
			return Job{}, fmt.Errorf("jobqueue: closed")
		}
		wake := q.wake
		q.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return Job{}, ctx.Err()
		}
	}
}

// Done records that key's result is durably in the store and ends its
// flight.  Call it only after the store write succeeded: replay trusts
// done markers.
func (q *Queue) Done(key string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.active, key)
	if q.done[key] {
		return nil
	}
	q.done[key] = true
	q.doneC.Inc()
	return q.append(record{Op: "done", Key: key})
}

// Release ends a dequeued job's flight without a done marker — the job
// failed, or its result was not durably stored — so a later Submit
// enqueues it again.
func (q *Queue) Release(key string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.active, key)
}

// IsDone reports whether key has a durable result (journal view).
func (q *Queue) IsDone(key string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.done[key]
}

// RunByID returns a journaled run.
func (q *Queue) RunByID(id string) (Run, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	r, ok := q.runs[id]
	if !ok {
		return Run{}, false
	}
	return *r, true
}

// Runs returns every journaled run in submission order.
func (q *Queue) Runs() []Run {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Run, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, *q.runs[id])
	}
	return out
}

// Depth reports the number of pending jobs.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// DepthByTenant reports pending jobs per tenant — the quota denominator
// and the per-tenant autoscaling signal on /metrics.
func (q *Queue) DepthByTenant() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := map[string]int{}
	for _, j := range q.pending {
		out[j.Tenant]++
	}
	return out
}

// append journals one record; one Write call so concurrent appends never
// interleave and a crash tears at most the final line.  Callers hold mu.
func (q *Queue) append(rec record) error {
	if q.f == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobqueue: encoding journal record: %w", err)
	}
	if _, err := q.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("jobqueue: appending journal record: %w", err)
	}
	q.bytes += int64(len(line) + 1)
	q.jbytes.Set(float64(q.bytes))
	return nil
}

// wakeAll releases every blocked Dequeue.  Callers hold mu.
func (q *Queue) wakeAll() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// Close flushes and closes the journal and unblocks every Dequeue with an
// error.  Pending jobs stay journaled and reappear on the next Open+Resume.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	q.wakeAll()
	if q.f == nil {
		return nil
	}
	err := q.f.Close()
	q.f = nil
	return err
}
