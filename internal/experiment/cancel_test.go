package experiment

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/sim"
	"repro/internal/workload"
)

// gatedBackend completes a fixed number of jobs, then parks every further
// Run on its context — a sweep frozen mid-flight, waiting to be
// cancelled.
type gatedBackend struct {
	tokens chan struct{}
	parked sync.Once
	Parked chan struct{} // closed when the first Run blocks
	local  dispatch.Local
}

func newGatedBackend(completions int) *gatedBackend {
	g := &gatedBackend{
		tokens: make(chan struct{}, completions),
		Parked: make(chan struct{}),
	}
	for i := 0; i < completions; i++ {
		g.tokens <- struct{}{}
	}
	return g
}

func (g *gatedBackend) Run(ctx context.Context, job dispatch.Job) (dispatch.Measurement, error) {
	select {
	case <-g.tokens:
	default:
		g.parked.Do(func() { close(g.Parked) })
		<-ctx.Done()
		return dispatch.Measurement{}, ctx.Err()
	}
	return g.local.Run(ctx, job)
}

func (g *gatedBackend) Concurrency() int { return 4 }

// Cancelling a store-backed sweep mid-flight must stop RunMatrixCtx
// promptly with the cancellation error, leave the finished jobs in the
// store, and let a rerun complete executing only the remainder —
// cancellation loses time, never work.
func TestMatrixCancelLeavesResumableCheckpoint(t *testing.T) {
	benches, specs := paritySuite(t)
	const n = 30_000
	const completions = 2
	total := len(benches) * len(specs)
	dir := t.TempDir()

	gated := newGatedBackend(completions)
	store1 := openStore(t, dir)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Cancel only after the finished jobs are stored and a further
		// job is parked, so the store content is deterministic.
		<-gated.Parked
		for storedEntries(store1) < completions {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	start := time.Now()
	_, err := RunMatrixCtx(ctx, benches, specs,
		Options{Instructions: n, Backend: dispatch.NewCached(gated, store1, nil)})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	// RunMatrixCtx may wrap the backend error; the cancellation must stay
	// visible either way.
	if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error %q does not surface the cancellation", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled sweep took %v to stop", elapsed)
	}

	// Resume: only the unstored jobs may execute.
	inner := &countingLocal{}
	store2 := openStore(t, dir)
	if stored := storedEntries(store2); stored != completions {
		t.Fatalf("store holds %d jobs after cancellation, want %d", stored, completions)
	}
	resumed, err := RunMatrixCtx(context.Background(), benches, specs,
		Options{Instructions: n, Backend: dispatch.NewCached(inner, store2, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inner.count(), total-completions; got != want {
		t.Errorf("resumed run executed %d jobs, want %d", got, want)
	}
	if local := runMatrix(t, benches, specs, Options{Instructions: n}); !reflect.DeepEqual(local, resumed) {
		t.Error("resumed matrix differs from a pure local run")
	}
}

// The default in-process path stays prompt to cancel although its unit
// of work holds up to eight jobs: the lockstep loop checks the context
// once per reference batch.
func TestMatrixCancelLockstepUnit(t *testing.T) {
	specs := make([]ConfigSpec, unitSpecs)
	for i := range specs {
		specs[i] = ConfigSpec{Label: fmt.Sprintf("d%d", i+2), Cfg: sim.Baseline().WithDepth(i + 2)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := RunMatrixCtx(ctx, []workload.Benchmark{bench(t, "li")}, specs, Options{Instructions: 1 << 40})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled sweep took %v to stop", d)
	}
}

// A unit holding an invalid machine fails the sweep with an error naming
// the benchmark and that machine's label.
func TestMatrixLockstepUnitInvalidSpec(t *testing.T) {
	specs := []ConfigSpec{
		{Label: "base", Cfg: sim.Baseline()},
		{Label: "bad-depth", Cfg: sim.Baseline().WithDepth(-1)},
	}
	_, err := RunMatrixCtx(context.Background(), []workload.Benchmark{bench(t, "li")}, specs, Options{Instructions: 10_000})
	if err == nil || !strings.Contains(err.Error(), "li/bad-depth") {
		t.Errorf("err = %v, want one naming li/bad-depth", err)
	}
}

func TestSplitUnits(t *testing.T) {
	for _, tc := range []struct {
		benches, specs, per, workers int
		want                         []int // spec counts per unit, benchmark-major
	}{
		{17, 8, unitSpecs, 2, repeat(8, 17)},     // the suite sweep
		{1, 8, unitSpecs, 2, []int{4, 4}},        // too few units: split
		{1, 11, unitSpecs, 2, []int{5, 6}},       // past the cap, split evenly
		{2, 12, unitSpecs, 2, []int{6, 6, 6, 6}}, // cap forces two per benchmark
		{17, 1, unitSpecs, 2, repeat(1, 17)},     // one-spec tables keep their shape
		{1, 3, unitSpecs, 8, []int{1, 1, 1}},     // never more parts than specs
		{2, 3, 1, 4, []int{1, 1, 1, 1, 1, 1}},    // a backend runs one job per unit
		{3, 0, unitSpecs, 2, nil},                // nothing to run
	} {
		units := splitUnits(tc.benches, tc.specs, tc.per, tc.workers)
		var got []int
		next := map[int]int{}
		for _, u := range units {
			if u.lo != next[u.bench] {
				t.Errorf("%+v: unit %+v does not continue at spec %d", tc, u, next[u.bench])
			}
			next[u.bench] = u.hi
			got = append(got, u.hi-u.lo)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitUnits(%d, %d, %d, %d) sizes = %v, want %v", tc.benches, tc.specs, tc.per, tc.workers, got, tc.want)
		}
		for b := 0; b < tc.benches && tc.specs > 0; b++ {
			if next[b] != tc.specs {
				t.Errorf("%+v: benchmark %d covered up to spec %d of %d", tc, b, next[b], tc.specs)
			}
		}
	}
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}
