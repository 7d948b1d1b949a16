package jobqueue

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func job(bench, key, tenant string) Job {
	return Job{Bench: bench, N: 1000, Key: key, Tenant: tenant, Config: []byte(`{}`)}
}

func TestFIFOOrderAndDedup(t *testing.T) {
	reg := metrics.NewRegistry()
	q, err := Open("", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	queued, err := q.Submit(Run{ID: "r1", Jobs: []Job{
		job("li", "k1", "a"), job("compress", "k2", "a"),
	}}, nil)
	if err != nil || queued != 2 {
		t.Fatalf("Submit = (%d, %v), want (2, nil)", queued, err)
	}
	// A second run sharing k2: only its fresh job enqueues.
	queued, _ = q.Submit(Run{ID: "r2", Jobs: []Job{
		job("compress", "k2", "b"), job("go", "k3", "b"),
	}}, nil)
	if queued != 1 {
		t.Fatalf("dedup failed: queued %d, want 1", queued)
	}
	if n := reg.Counter("jobqueue_deduped_total").Value(); n != 1 {
		t.Errorf("deduped counter = %d, want 1", n)
	}
	var got []string
	for i := 0; i < 3; i++ {
		j, err := q.Dequeue(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, j.Key)
	}
	want := []string{"k1", "k2", "k3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", got, want)
		}
	}
	if q.Depth() != 0 {
		t.Errorf("depth %d after draining", q.Depth())
	}
}

// A job stays deduplicated while it is in flight: a resubmission between
// Dequeue and Done must not queue it a second time.  Release (the failure
// path) ends the flight without a done marker, so the next resubmission
// queues it again; Done ends it for good.
func TestInFlightDedupUntilRelease(t *testing.T) {
	q, err := Open("", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	run := Run{ID: "r", Jobs: []Job{job("li", "k", "")}}
	submit := func(want int) {
		t.Helper()
		if queued, err := q.Submit(run, nil); err != nil || queued != want {
			t.Fatalf("Submit = (%d, %v), want (%d, nil)", queued, err, want)
		}
	}
	submit(1)
	if _, err := q.Dequeue(context.Background()); err != nil {
		t.Fatal(err)
	}
	submit(0) // in flight
	q.Release("k")
	submit(1) // released: runs again
	if _, err := q.Dequeue(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := q.Done("k"); err != nil {
		t.Fatal(err)
	}
	submit(0) // done
	if q.Depth() != 0 {
		t.Errorf("depth %d, want 0", q.Depth())
	}
}

func TestDequeueBlocksUntilSubmit(t *testing.T) {
	q, _ := Open("", nil, nil)
	defer q.Close()
	got := make(chan Job, 1)
	go func() {
		j, err := q.Dequeue(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- j
	}()
	time.Sleep(20 * time.Millisecond) // let the consumer block
	q.Submit(Run{ID: "r", Jobs: []Job{job("li", "k", "")}}, nil)
	select {
	case j := <-got:
		if j.Key != "k" {
			t.Errorf("dequeued %q", j.Key)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Dequeue never woke")
	}
}

func TestDequeueHonoursContext(t *testing.T) {
	q, _ := Open("", nil, nil)
	defer q.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := q.Dequeue(ctx); err == nil {
		t.Fatal("Dequeue returned without work or cancellation")
	}
}

// Kill-and-restart: a journaled queue reopened after losing its process
// re-delivers exactly the undone jobs, in order.
func TestJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q1, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := Run{ID: "sweep", Tenant: "t", Jobs: []Job{
		job("li", "k1", "t"), job("compress", "k2", "t"), job("go", "k3", "t"),
	}}
	if _, err := q1.Submit(run, nil); err != nil {
		t.Fatal(err)
	}
	// k1 completes; k2 is dequeued (in flight) when the process "dies".
	j, _ := q1.Dequeue(context.Background())
	if j.Key != "k1" {
		t.Fatalf("first job %q", j.Key)
	}
	q1.Done("k1")
	q1.Dequeue(context.Background()) // k2 in flight, never Done
	q1.Close()                       // the kill (journal survives)

	q2, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if runs, _ := q2.Loaded(); runs != 1 {
		t.Fatalf("replayed %d runs, want 1", runs)
	}
	if n := q2.Resume(nil); n != 2 {
		t.Fatalf("resumed %d jobs, want 2 (k2 in flight + k3 pending)", n)
	}
	r, ok := q2.RunByID("sweep")
	if !ok || len(r.Jobs) != 3 || r.Tenant != "t" {
		t.Fatalf("run record lost: %+v, %v", r, ok)
	}
	for _, want := range []string{"k2", "k3"} {
		j, err := q2.Dequeue(context.Background())
		if err != nil || j.Key != want {
			t.Fatalf("redelivery = (%q, %v), want %q", j.Key, err, want)
		}
	}
}

// A store membership test outranks a lost done marker: results that made
// it to the store before the kill are not re-run.
func TestResumeTrustsStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q1, _ := Open(path, nil, nil)
	q1.Submit(Run{ID: "r", Jobs: []Job{job("li", "k1", ""), job("go", "k2", "")}}, nil)
	q1.Close() // killed before any Done marker

	q2, _ := Open(path, nil, nil)
	defer q2.Close()
	inStore := map[string]bool{"k1": true} // k1's Put landed before the kill
	if n := q2.Resume(func(k string) bool { return inStore[k] }); n != 1 {
		t.Fatalf("resumed %d jobs, want 1", n)
	}
	j, _ := q2.Dequeue(context.Background())
	if j.Key != "k2" {
		t.Errorf("resumed job %q, want k2", j.Key)
	}
	if !q2.IsDone("k1") {
		t.Error("store-backed key not marked done")
	}
}

// A torn final journal line (killed mid-append) must not poison replay.
func TestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q1, _ := Open(path, nil, nil)
	q1.Submit(Run{ID: "r", Jobs: []Job{job("li", "k1", "")}}, nil)
	q1.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"done","key":"k1`) // torn mid-append
	f.Close()

	q2, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if _, skipped := q2.Loaded(); skipped != 1 {
		t.Errorf("skipped %d lines, want 1", skipped)
	}
	if n := q2.Resume(nil); n != 1 {
		t.Errorf("resumed %d jobs, want 1 (torn done marker ignored)", n)
	}
}

func TestDepthByTenant(t *testing.T) {
	q, _ := Open("", nil, nil)
	defer q.Close()
	q.Submit(Run{ID: "r1", Jobs: []Job{job("li", "k1", "alice"), job("go", "k2", "alice")}}, nil)
	q.Submit(Run{ID: "r2", Jobs: []Job{job("li", "k3", "bob")}}, nil)
	d := q.DepthByTenant()
	if d["alice"] != 2 || d["bob"] != 1 {
		t.Errorf("DepthByTenant = %v", d)
	}
}

func TestCloseUnblocksDequeue(t *testing.T) {
	q, _ := Open("", nil, nil)
	errc := make(chan error, 1)
	go func() {
		_, err := q.Dequeue(context.Background())
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	q.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("Dequeue on a closed queue returned a job")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock Dequeue")
	}
}

// Concurrent producers and consumers: every key delivered exactly once.
func TestConcurrentProducersConsumers(t *testing.T) {
	q, _ := Open(filepath.Join(t.TempDir(), "q.jsonl"), nil, nil)
	defer q.Close()
	const producers, perProducer, consumers = 4, 25, 3
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				key := fmt.Sprintf("p%d-k%d", p, i)
				if _, err := q.Submit(Run{ID: key, Jobs: []Job{job("li", key, "")}}, nil); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	seen := make(chan string, producers*perProducer)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				j, err := q.Dequeue(ctx)
				if err != nil {
					return
				}
				q.Done(j.Key)
				seen <- j.Key
			}
		}()
	}
	wg.Wait()
	got := map[string]bool{}
	for i := 0; i < producers*perProducer; i++ {
		select {
		case k := <-seen:
			if got[k] {
				t.Fatalf("key %s delivered twice", k)
			}
			got[k] = true
		case <-ctx.Done():
			t.Fatalf("only %d/%d jobs delivered", len(got), producers*perProducer)
		}
	}
	cancel()
	cg.Wait()
}

// Resume must compact the journal: completed runs and their done markers
// drop out, live runs and their done markers survive, and the file shrinks
// — while resumed semantics stay exactly as before.
func TestResumeCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.jsonl")
	reg := metrics.NewRegistry()
	q, err := Open(path, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One run fully completed, one half done.
	if _, err := q.Submit(Run{ID: "complete", Jobs: []Job{job("li", "k1", ""), job("li", "k2", "")}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Run{ID: "partial", Jobs: []Job{job("go", "k3", ""), job("go", "k4", "")}}, nil); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := q.Done(k); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	reg2 := metrics.NewRegistry()
	q2, err := Open(path, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if n := q2.Resume(nil); n != 1 {
		t.Fatalf("resumed %d jobs, want 1 (only k4 is undone)", n)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("journal did not shrink: %d -> %d bytes", before.Size(), after.Size())
	}
	if n := reg2.Counter("jobqueue_compactions_total").Value(); n != 1 {
		t.Errorf("compactions = %d, want 1", n)
	}
	if got := q2.JournalBytes(); got != after.Size() {
		t.Errorf("JournalBytes = %d, file is %d", got, after.Size())
	}
	if g := reg2.Gauge("jobqueue_journal_bytes").Value(); int64(g) != after.Size() {
		t.Errorf("jobqueue_journal_bytes gauge = %v, file is %d", g, after.Size())
	}

	// The compacted journal must still be a correct journal: a third open
	// sees the live run with k3 done and only k4 pending, and appends work.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	j, err := q2.Dequeue(ctx)
	if err != nil || j.Key != "k4" {
		t.Fatalf("Dequeue = %v, %v; want k4", j, err)
	}
	if err := q2.Done("k4"); err != nil {
		t.Fatal(err)
	}
	q2.Close()

	q3, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q3.Close()
	if n := q3.Resume(nil); n != 0 {
		t.Errorf("third open resumed %d jobs, want 0", n)
	}
	if _, ok := q3.RunByID("complete"); ok {
		t.Error("fully completed run survived compaction")
	}
	if !q3.IsDone("k4") {
		t.Error("done marker appended after compaction was lost")
	}
}

// A compaction with nothing to reclaim must leave the journal alone.
func TestCompactionSkippedWhenNothingToReclaim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.jsonl")
	q, err := Open(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Run{ID: "r", Jobs: []Job{job("li", "k1", "")}}, nil); err != nil {
		t.Fatal(err)
	}
	q.Close()
	before, _ := os.Stat(path)

	reg := metrics.NewRegistry()
	q2, err := Open(path, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	q2.Resume(nil)
	after, _ := os.Stat(path)
	if before.Size() != after.Size() {
		t.Errorf("journal changed size with nothing to reclaim: %d -> %d", before.Size(), after.Size())
	}
	if n := reg.Counter("jobqueue_compactions_total").Value(); n != 0 {
		t.Errorf("compactions = %d, want 0", n)
	}
}
