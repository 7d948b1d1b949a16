package dispatch

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// groupConfigs is the simulator's 11-config differential sample: every
// flattened retirement policy, every hazard policy, finite L2,
// superscalar issue, the write cache, and a statistical I-cache (which
// steps per instruction instead of in closed form).
func groupConfigs() []ConfigSpec {
	imiss := sim.Baseline()
	imiss.IMissRate, imiss.ISeed = 0.02, 7
	return []ConfigSpec{
		{"baseline", sim.Baseline()},
		{"eager", sim.Baseline().WithRetire(core.Eager{})},
		{"retire-age", sim.Baseline().WithDepth(8).WithRetire(core.RetireAt{N: 6, Timeout: 64})},
		{"fixed-rate", sim.Baseline().WithRetire(core.FixedRate{Interval: 24})},
		{"read-wb", sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB)},
		{"flush-part", sim.Baseline().WithHazard(core.FlushPartial)},
		{"flush-item", sim.Baseline().WithHazard(core.FlushItemOnly)},
		{"finite-l2", sim.Baseline().WithL2(256 << 10).WithMemLat(25)},
		{"issue-4", sim.Baseline().WithIssueWidth(4)},
		{"write-cache", sim.Baseline().WithWriteCache(8)},
		{"imiss", imiss},
	}
}

func mustBench(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return b
}

// perReference is the seed job shape the lockstep loop must reproduce:
// one Step per decoded reference, statistics reset after n/4.
func perReference(t *testing.T, b workload.Benchmark, s ConfigSpec, n uint64) Measurement {
	t.Helper()
	m, err := sim.New(s.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stream(n)
	for i := uint64(0); i < n/4; i++ {
		r, ok := st.Next()
		if !ok {
			break
		}
		m.Step(r)
	}
	m.ResetStats()
	m.Run(st)
	return measure(b.Name, s, m, nil)
}

// checkGroup runs specs as one group and compares every machine with its
// solo ExecuteBench and, when legacy is set, with the per-reference path.
func checkGroup(t *testing.T, b workload.Benchmark, specs []ConfigSpec, n uint64, legacy bool) {
	t.Helper()
	got, times, err := ExecuteGroup(context.Background(), b, specs, n, nil)
	if err != nil {
		t.Fatalf("%s n=%d: %v", b.Name, n, err)
	}
	if len(got) != len(specs) || len(times) != len(specs) {
		t.Fatalf("%s n=%d: %d measurements, %d times for %d specs", b.Name, n, len(got), len(times), len(specs))
	}
	for i, s := range specs {
		solo, err := ExecuteBench(b, s.Label, s.Cfg, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != solo {
			t.Errorf("%s/%s n=%d: group %+v\nsolo %+v", b.Name, s.Label, n, got[i], solo)
		}
		if legacy {
			if want := perReference(t, b, s, n); got[i] != want {
				t.Errorf("%s/%s n=%d: group %+v\nper-reference %+v", b.Name, s.Label, n, got[i], want)
			}
		}
	}
}

// TestGroupEqualsSolo: each machine of a lockstep group measures exactly
// what it measures alone and what the per-reference path measures, over
// the 11-config × 4-bench differential matrix, the stress scenarios, the
// transformed kernels and a reseeded benchmark.
func TestGroupEqualsSolo(t *testing.T) {
	const n = 40_000
	specs := groupConfigs()
	var benches []workload.Benchmark
	for _, name := range []string{"li", "compress", "tomcatv", "cholsky"} {
		benches = append(benches, mustBench(t, name))
	}
	benches = append(benches, workload.Scenarios()...)
	benches = append(benches, workload.Transformed()...)
	reseeded, ok := workload.Reseeded(mustBench(t, "espresso"), 5)
	if !ok {
		t.Fatal("espresso is not reseedable")
	}
	benches = append(benches, reseeded)
	for _, b := range benches {
		checkGroup(t, b, specs, n, true)
	}
}

// TestGroupWarmupBoundaries drives the n/4 split through short streams,
// counts not divisible by four, and the middle of a run-length-encoded
// Exec ref, which the loop must cut in place.
func TestGroupWarmupBoundaries(t *testing.T) {
	specs := groupConfigs()[:4]
	b := mustBench(t, "tomcatv")
	for _, n := range []uint64{0, 1, 3, 5, 4095, 4097, 10_001, 40_003} {
		checkGroup(t, b, specs, n, true)
	}

	// Find an n whose warm-up boundary falls strictly inside an Exec run,
	// so the cut is exercised, not assumed.
	var n uint64
	for c := uint64(20_000); c < 20_400; c++ {
		if splitsExecRun(b, c) {
			n = c
			break
		}
	}
	if n == 0 {
		t.Fatal("no n in range puts the warm-up boundary inside an Exec run")
	}
	checkGroup(t, b, specs, n, true)
}

// splitsExecRun reports whether n/4 falls strictly inside a
// run-length-encoded Exec ref of b's n-instruction stream.
func splitsExecRun(b workload.Benchmark, n uint64) bool {
	g := trace.GeneratorOf(b.Stream(n))
	buf := make([]trace.Ref, batchRefs)
	var c uint64
	for {
		got := g.Fill(buf)
		if got == 0 {
			return false
		}
		for _, r := range buf[:got] {
			k := r.InstrCount()
			if c+k > n/4 {
				return c < n/4 && r.Kind == trace.Exec
			}
			c += k
		}
	}
}

// A unit with an invalid machine fails as a whole, naming the machine.
func TestGroupInvalidSpecNamed(t *testing.T) {
	specs := []ConfigSpec{
		{"base", sim.Baseline()},
		{"negative-depth", sim.Baseline().WithDepth(-1)},
	}
	_, _, err := ExecuteGroup(context.Background(), mustBench(t, "li"), specs, 10_000, nil)
	if err == nil || !strings.Contains(err.Error(), "negative-depth") {
		t.Errorf("err = %v, want one naming negative-depth", err)
	}
}

// The job times of a group are each machine's share of the group's wall
// time: positive, and together no more than the wall time.
func TestGroupJobTimesShareWall(t *testing.T) {
	start := time.Now()
	_, times, err := ExecuteGroup(context.Background(), mustBench(t, "li"), groupConfigs()[:3], 100_000, nil)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, d := range times {
		if d <= 0 {
			t.Errorf("job time %v, want > 0", d)
		}
		sum += d
	}
	if sum > wall {
		t.Errorf("job times sum to %v, more than the group's wall time %v", sum, wall)
	}
}

// cancellingGen cancels its context on the k-th Fill.
type cancellingGen struct {
	g      trace.Generator
	k      int
	fills  int
	cancel context.CancelFunc
}

func (c *cancellingGen) Fill(buf []trace.Ref) int {
	c.fills++
	if c.fills == c.k {
		c.cancel()
	}
	return c.g.Fill(buf)
}

// Cancellation stops the loop at the next batch: no Fill after the one
// during which the context was cancelled.
func TestLockstepStopsWithinOneBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := &cancellingGen{g: trace.GeneratorOf(mustBench(t, "li").Stream(1 << 40)), k: 3, cancel: cancel}
	ms := []*sim.Machine{sim.MustNew(sim.Baseline()), sim.MustNew(sim.Baseline().WithWriteCache(8))}
	if err := newLockstep(g, ms, 1<<40).run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("run = %v, want context.Canceled", err)
	}
	if g.fills != 3 {
		t.Errorf("%d Fill calls, want 3: the loop ran past the cancelled batch", g.fills)
	}
}

// closeRecorder is a generator that records whether it was closed.
type closeRecorder struct {
	trace.Generator
	closed bool
}

func (c *closeRecorder) Close() error {
	c.closed = true
	return nil
}

// A cancelled run closes its generator, so an abandoned kernel stream's
// producer goroutine exits instead of parking for the life of the process;
// a run that consumes its generator to the end leaves it alone.
func TestLockstepClosesAbandonedGenerator(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := &closeRecorder{Generator: trace.GeneratorOf(mustBench(t, "cholsky").Stream(1 << 40))}
	if err := newLockstep(g, []*sim.Machine{sim.MustNew(sim.Baseline())}, 1<<40).run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("run = %v, want context.Canceled", err)
	}
	if !g.closed {
		t.Error("cancelled run did not close its generator")
	}
	g = &closeRecorder{Generator: trace.GeneratorOf(mustBench(t, "cholsky").Stream(10000))}
	if err := newLockstep(g, []*sim.Machine{sim.MustNew(sim.Baseline())}, 10000).run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g.closed {
		t.Error("exhausted run closed its generator")
	}
}

// A cancelled long group returns promptly with the context's error.
func TestExecuteGroupCancelLongJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	start := time.Now()
	_, _, err := ExecuteGroup(ctx, mustBench(t, "li"), groupConfigs()[:8], 1<<40, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled group returned after %v", d)
	}
}

// TestLockstepSteadyStateAllocs guards the lockstep batch: once past the
// warm-up, filling a batch and stepping eight machines over it allocates
// nothing.
func TestLockstepSteadyStateAllocs(t *testing.T) {
	var ms []*sim.Machine
	for _, s := range groupConfigs()[:8] {
		ms = append(ms, sim.MustNew(s.Cfg))
	}
	l := newLockstep(trace.GeneratorOf(mustBench(t, "li").Stream(1<<40)), ms, 1<<14)
	for l.warm > 0 {
		l.batch()
	}
	for i := 0; i < 50; i++ { // let buffers and caches reach steady state
		l.batch()
	}
	if allocs := testing.AllocsPerRun(50, func() { l.batch() }); allocs != 0 {
		t.Errorf("lockstep batch allocates %.1f times, want 0", allocs)
	}
}
