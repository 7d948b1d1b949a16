package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/resultstore"
	"repro/internal/sim"
)

// countingBackend counts the jobs that reach it.  It runs them on inner
// when set, and otherwise returns a cheap synthetic measurement.
type countingBackend struct {
	inner Backend
	runs  atomic.Int64
}

func (c *countingBackend) Run(ctx context.Context, job Job) (Measurement, error) {
	c.runs.Add(1)
	if c.inner != nil {
		return c.inner.Run(ctx, job)
	}
	return Measurement{Bench: job.Bench, Label: job.Label, WBHit: float64(job.N)}, nil
}

// hinted adds a Concurrency hint to a backend.
type hinted struct {
	Backend
	k int
}

func (h hinted) Concurrency() int { return h.k }

// customPolicy is a retirement policy with no registered machconf codec,
// so the wire format cannot express it.
type customPolicy struct{}

func (customPolicy) NextStart(occ int, headAlloc, lastStart, now uint64) (uint64, bool) {
	return now, occ > 0
}
func (customPolicy) Name() string { return "custom" }

func openStore(t *testing.T, dir string, reg *metrics.Registry) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(dir, resultstore.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A cached backend must simulate a job exactly once per store lifetime —
// including across a "process restart" (a fresh Cached over the same
// directory) — and must re-apply the requesting sweep's label.
func TestCachedRunsOncePerStore(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	counting := &countingBackend{inner: &Local{}}
	cached := NewCached(counting, openStore(t, dir, nil), reg)

	job := Job{Bench: "li", Label: "first", Cfg: sim.Baseline(), N: 50_000}
	want, err := Execute(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("cached miss path differs from direct execution:\n got %+v\nwant %+v", got, want)
	}
	// Same machine, different label: must hit and carry the new label.
	job.Label = "renamed"
	got, err = cached.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "renamed" {
		t.Errorf("hit label = %q, want %q", got.Label, "renamed")
	}
	want.Label = "renamed"
	if got != want {
		t.Errorf("cached hit differs from execution:\n got %+v\nwant %+v", got, want)
	}
	if n := counting.runs.Load(); n != 1 {
		t.Fatalf("inner backend ran %d times, want 1", n)
	}
	if reg.Counter("dispatch_store_hits_total").Value() != 1 ||
		reg.Counter("dispatch_store_misses_total").Value() != 1 {
		t.Errorf("hit/miss accounting: hits %d misses %d, want 1/1",
			reg.Counter("dispatch_store_hits_total").Value(),
			reg.Counter("dispatch_store_misses_total").Value())
	}

	// "Restart": a new Cached over the same directory — the simulated
	// process boundary.  Zero further executions.
	reg2 := metrics.NewRegistry()
	counting2 := &countingBackend{inner: &Local{}}
	cached2 := NewCached(counting2, openStore(t, dir, nil), reg2)
	got, err = cached2.Run(context.Background(), Job{Bench: "li", Label: "renamed", Cfg: sim.Baseline(), N: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("cross-restart hit differs from execution")
	}
	if counting2.runs.Load() != 0 {
		t.Fatalf("restarted process re-simulated a stored job")
	}
}

// failingKV is a store whose disk is gone: every Get misses, every Put is
// rejected.
type failingKV struct{}

func (failingKV) Get(string) ([]byte, bool)        { return nil, false }
func (failingKV) Put(string, string, []byte) error { return errors.New("injected: disk full") }

// A rejected store write must not lose the sweep — the measurement is in
// hand and returned — but the caller must be able to see durability failed:
// Run reports ErrResultNotStored (via errors.Is) alongside the valid
// measurement.  wbserve's done-marker protocol depends on this distinction.
func TestCachedPutFailureReturnsMeasurementAndSentinel(t *testing.T) {
	cached := NewCached(&Local{}, failingKV{}, nil)
	job := Job{Bench: "li", Label: "nostore", Cfg: sim.Baseline(), N: 50_000}
	want, err := Execute(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cached.Run(context.Background(), job)
	if !errors.Is(err, ErrResultNotStored) {
		t.Fatalf("Run with a failing store returned err = %v, want ErrResultNotStored", err)
	}
	if got != want {
		t.Errorf("measurement alongside ErrResultNotStored differs from direct execution:\n got %+v\nwant %+v", got, want)
	}
}

// Distinct machines and distinct n must not collide in the store.
func TestCachedKeysDistinguishJobs(t *testing.T) {
	cached := NewCached(&Local{}, openStore(t, t.TempDir(), nil), nil)
	base := Job{Bench: "li", Cfg: sim.Baseline(), N: 50_000}
	deep := Job{Bench: "li", Cfg: sim.Baseline().WithDepth(12), N: 50_000}
	long := Job{Bench: "li", Cfg: sim.Baseline(), N: 60_000}
	mb, err := cached.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	md, err := cached.Run(context.Background(), deep)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := cached.Run(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	if mb.C == md.C || mb.C == ml.C {
		t.Error("distinct jobs returned identical counters — store keys collided")
	}
	wd, _ := Execute(deep, nil)
	if md != wd {
		t.Error("deep-machine measurement differs from direct execution")
	}
}

// The full CLI stack: BuildBackendOpts with a Store directory produces a
// backend that answers a repeated sweep without executing anything.
func TestBuildBackendWithStore(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	backend, cleanup, err := BuildBackendOpts(BuildOptions{Store: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	job := Job{Bench: "compress", Cfg: sim.Baseline(), N: 50_000}
	if _, err := backend.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}

	reg2 := metrics.NewRegistry()
	backend2, cleanup2, err := BuildBackendOpts(BuildOptions{Store: dir, Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup2()
	if _, err := backend2.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if n := reg2.Counter("dispatch_store_misses_total").Value(); n != 0 {
		t.Errorf("second process dispatched %d simulations, want 0", n)
	}
	if n := reg2.Counter("dispatch_store_hits_total").Value(); n != 1 {
		t.Errorf("second process store hits = %d, want 1", n)
	}
}

// Kill a sweep partway, rerun it over the same store: only the remaining
// jobs may reach the inner backend, and the stored measurements must be
// what the first run returned.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	var jobs []Job
	for _, bench := range []string{"li", "compress", "espresso"} {
		for _, depth := range []int{4, 8} {
			jobs = append(jobs, Job{Bench: bench, Label: fmt.Sprintf("d%d", depth),
				Cfg: sim.Baseline().WithDepth(depth), N: 1000})
		}
	}

	// First run: complete 4 of 6 jobs, then "die".
	first := NewCached(&countingBackend{}, openStore(t, dir, nil), nil)
	want := map[int]Measurement{}
	for i, job := range jobs[:4] {
		m, err := first.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}

	// Resumed run over the full sweep, in a fresh "process".
	inner2 := &countingBackend{}
	reg := metrics.NewRegistry()
	resumed := NewCached(inner2, openStore(t, dir, nil), reg)
	for i, job := range jobs {
		m, err := resumed.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if w, ok := want[i]; ok && m != w {
			t.Errorf("stored measurement differs for %s/%s:\n got %+v\nwant %+v", job.Bench, job.Label, m, w)
		}
	}
	if n := inner2.runs.Load(); n != 2 {
		t.Errorf("resumed run executed %d jobs, want only the remaining 2", n)
	}
	if h, m := reg.Counter("dispatch_store_hits_total").Value(), reg.Counter("dispatch_store_misses_total").Value(); h != 4 || m != 2 {
		t.Errorf("store hits/misses = %d/%d, want 4/2", h, m)
	}
}

// A machine with no canonical machconf encoding has no store key; it must
// pass through to the inner backend, executed every time and never stored.
func TestCachedUnkeyablePassthrough(t *testing.T) {
	inner := &countingBackend{}
	cached := NewCached(inner, openStore(t, t.TempDir(), nil), nil)
	job := Job{Bench: "li", Cfg: sim.Baseline().WithRetire(customPolicy{}), N: 1000}
	for i := 0; i < 2; i++ {
		if _, err := cached.Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	if n := inner.runs.Load(); n != 2 {
		t.Errorf("unkeyable job executed %d times, want 2 (never stored)", n)
	}
}

// Concurrency must forward the inner backend's hint, so a sweep over
// Cached(Remote) is as wide as the pool, not as the local core count.
func TestCachedForwardsConcurrency(t *testing.T) {
	store := openStore(t, t.TempDir(), nil)
	if got := NewCached(&countingBackend{}, store, nil).Concurrency(); got != 0 {
		t.Errorf("Concurrency() over a hint-less backend = %d, want 0", got)
	}
	if got := NewCached(hinted{&countingBackend{}, 7}, store, nil).Concurrency(); got != 7 {
		t.Errorf("Concurrency() over a backend hinting 7 = %d, want 7", got)
	}
}
