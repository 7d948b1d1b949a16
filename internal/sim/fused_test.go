package sim

// Differential tests pinning the PR-6 batched hot path (RunGenerator /
// StepBatch / the flattened policy dispatch) to the per-reference path
// (Stream.Next + Step).  The fused path is allowed to be faster, never
// different: identical counters, stall attribution, occupancy histograms,
// and CPI on the same decoded reference sequence, to the last bit.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// machineState captures everything a measurement can observe.
type machineState struct {
	counters interface{}
	occ      []uint64
	clock    uint64
	wb       core.Stats
	cpi      float64
}

func snapshot(m *Machine) machineState {
	c := m.Counters()
	return machineState{
		counters: c,
		occ:      m.OccupancyHistogram(),
		clock:    m.Clock(),
		wb:       m.WBStats(),
		cpi:      c.CPI(),
	}
}

// runLegacy is the seed job shape: per-reference stepping with the
// standard quarter-stream warm-up split.
func runLegacy(m *Machine, s trace.Stream, n uint64) {
	for i := uint64(0); i < n/4; i++ {
		r, ok := s.Next()
		if !ok {
			break
		}
		m.Step(r)
	}
	m.ResetStats()
	m.Run(s)
}

// runFused is the production job shape: batched generator execution with
// the same warm-up split in dynamic instructions.
func runFused(m *Machine, s trace.Stream, n uint64) {
	g := trace.GeneratorOf(s)
	m.RunGeneratorN(g, n/4)
	m.ResetStats()
	m.RunGenerator(g)
}

// fusedConfigs is the seeded config sample the differential runs over:
// every flattened retirement policy, every hazard policy, plus finite-L2,
// superscalar, and write-cache variants.
func fusedConfigs() map[string]Config {
	return map[string]Config{
		"baseline":    Baseline(),
		"eager":       Baseline().WithRetire(core.Eager{}),
		"retire-age":  Baseline().WithDepth(8).WithRetire(core.RetireAt{N: 6, Timeout: 64}),
		"fixed-rate":  Baseline().WithRetire(core.FixedRate{Interval: 24}),
		"read-wb":     Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB),
		"flush-part":  Baseline().WithHazard(core.FlushPartial),
		"flush-item":  Baseline().WithHazard(core.FlushItemOnly),
		"finite-l2":   Baseline().WithL2(256 << 10).WithMemLat(25),
		"issue-4":     Baseline().WithIssueWidth(4),
		"write-cache": Baseline().WithWriteCache(8),
		"imiss":       func() Config { c := Baseline(); c.IMissRate = 0.02; c.ISeed = 7; return c }(),
	}
}

// fusedBenches spans the workload space: list-chasing integer, tight FP
// loop, and a store-dense kernel.
var fusedBenches = []string{"li", "compress", "tomcatv", "cholsky"}

// TestRunGeneratorMatchesRun is the old-vs-new differential promised in
// the RunGenerator doc: over a seeded sample of configurations and
// benchmarks, the batched path must reproduce the per-reference path's
// stall counts, occupancy histograms, and CPI exactly.
func TestRunGeneratorMatchesRun(t *testing.T) {
	assertFusedMatchesLegacy(t, fusedConfigs(), fusedBenches)
}

// assertFusedMatchesLegacy runs every configuration on every benchmark
// down both execution paths and requires identical observable state.
func assertFusedMatchesLegacy(t *testing.T, cfgs map[string]Config, benches []string) {
	t.Helper()
	const n = 40_000
	for name, cfg := range cfgs {
		for _, bench := range benches {
			b, ok := workload.ByName(bench)
			if !ok {
				t.Fatalf("unknown benchmark %q", bench)
			}
			legacy := MustNew(cfg)
			runLegacy(legacy, b.Stream(n), n)
			fused := MustNew(cfg)
			runFused(fused, b.Stream(n), n)
			if want, got := snapshot(legacy), snapshot(fused); !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: fused path diverged\nlegacy: %+v\nfused:  %+v",
					name, bench, want, got)
			}
		}
	}
}

// TestRunGeneratorNSplitsExecRuns drives the budget boundary through the
// middle of run-length-encoded Exec refs: any warm-up split point must
// leave the machine exactly where the same number of per-reference Steps
// would, with the run remainder carried into the next Run call.
func TestRunGeneratorNSplitsExecRuns(t *testing.T) {
	refs := []trace.Ref{
		trace.ExecRun(10),
		{Kind: trace.Store, Addr: 0x40},
		trace.ExecRun(7),
		{Kind: trace.Load, Addr: 0x40},
		trace.ExecRun(23),
		{Kind: trace.Load, Addr: 0x2000},
		trace.ExecRun(5),
	}
	total := uint64(0)
	for _, r := range refs {
		total += r.InstrCount()
	}
	for split := uint64(0); split <= total; split++ {
		legacy := MustNew(Baseline())
		s := trace.NewGeneratorStream(trace.NewSliceStream(refs))
		for i := uint64(0); i < split; i++ {
			r, _ := s.Next()
			legacy.Step(r)
		}
		legacy.ResetStats()
		legacy.Run(s)

		fused := MustNew(Baseline())
		g := trace.NewSliceStream(refs)
		fused.RunGeneratorN(g, split)
		fused.ResetStats()
		fused.RunGenerator(g)

		if want, got := snapshot(legacy), snapshot(fused); !reflect.DeepEqual(want, got) {
			t.Fatalf("split at %d: fused diverged\nlegacy: %+v\nfused:  %+v", split, want, got)
		}
	}
}

// opaquePolicy wraps a retirement policy in a type New's flattening switch
// does not recognise, forcing the retCustom interface path.
type opaquePolicy struct{ inner core.RetirementPolicy }

func (p opaquePolicy) NextStart(occ int, headAlloc, lastStart, now uint64) (uint64, bool) {
	return p.inner.NextStart(occ, headAlloc, lastStart, now)
}

func (p opaquePolicy) Name() string { return "opaque-" + p.inner.Name() }

// TestFlattenedPoliciesMatchInterface is the equivalence promised in the
// nextRetire doc: for every recognised policy, the flattened integer
// switch must make exactly the decisions the interface implementation
// makes.  The same workload runs once with the concrete policy (flattened)
// and once wrapped in opaquePolicy (interface slow path); all observable
// state must match.
func TestFlattenedPoliciesMatchInterface(t *testing.T) {
	policies := map[string]core.RetirementPolicy{
		"eager":      core.Eager{},
		"retire-at":  core.RetireAt{N: 3},
		"retire-age": core.RetireAt{N: 6, Timeout: 48},
		"fixed-rate": core.FixedRate{Interval: 17},
	}
	const n = 30_000
	b, _ := workload.ByName("compress")
	for name, p := range policies {
		cfg := Baseline().WithDepth(8).WithRetire(p)
		flat := MustNew(cfg)
		if flat.retKind == retCustom {
			t.Fatalf("%s: expected a flattened policy, got retCustom", name)
		}
		runFused(flat, b.Stream(n), n)

		slowCfg := cfg.WithRetire(opaquePolicy{p})
		slow := MustNew(slowCfg)
		if slow.retKind != retCustom {
			t.Fatalf("%s: opaque wrapper was unexpectedly flattened", name)
		}
		runFused(slow, b.Stream(n), n)

		if want, got := snapshot(slow), snapshot(flat); !reflect.DeepEqual(want, got) {
			t.Errorf("%s: flattened dispatch diverged from interface\ninterface: %+v\nflattened: %+v",
				name, want, got)
		}
	}
}

// TestZeroAllocSteadyState pins the tentpole's allocation contract: once a
// machine is warm, neither per-reference stepping nor the batched path may
// allocate, for any hazard policy (flushes reuse the machine's scratch
// slice) or the write-cache design, barrier drains included.
func TestZeroAllocSteadyState(t *testing.T) {
	refs := benchRefs(1 << 12)
	fenced := append([]trace.Ref(nil), refs...)
	for i := 49; i < len(fenced); i += 50 {
		fenced[i] = trace.Ref{Kind: trace.Membar}
	}
	cases := map[string]struct {
		cfg  Config
		refs []trace.Ref
	}{
		"baseline":             {Baseline(), refs},
		"read-wb":              {Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB), refs},
		"flush-part":           {Baseline().WithHazard(core.FlushPartial), refs},
		"write-cache":          {Baseline().WithWriteCache(8), refs},
		"write-cache-membar50": {Baseline().WithWriteCache(8), fenced},
	}
	for name, tc := range cases {
		assertZeroAlloc(t, name, tc.cfg, tc.refs)
	}
	// The full fused job shape: generator Fill + RunGenerator.  The
	// generator replays a pre-materialised batch so the measurement sees
	// only the machine's own allocations, which must be zero once the
	// batch buffer exists.
	g := &replayGen{refs: benchRefs(1 << 14)}
	m := MustNew(Baseline())
	m.RunGenerator(g) // warm: builds m.batch
	if avg := testing.AllocsPerRun(10, func() {
		g.pos = 0
		m.RunGenerator(g)
	}); avg != 0 {
		t.Errorf("fused run allocates %.1f per job in steady state", avg)
	}
}

// assertZeroAlloc requires a warm machine to allocate nothing per Step or
// per StepBatch; len(refs) must be a power of two.
func assertZeroAlloc(t *testing.T, name string, cfg Config, refs []trace.Ref) {
	t.Helper()
	m := MustNew(cfg)
	m.StepBatch(refs) // warm: first StepBatch allocates nothing, but caches may grow later
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		m.Step(refs[i&(len(refs)-1)])
		i++
	}); avg != 0 {
		t.Errorf("%s: Step allocates %.1f per call in steady state", name, avg)
	}
	if avg := testing.AllocsPerRun(50, func() { m.StepBatch(refs) }); avg != 0 {
		t.Errorf("%s: StepBatch allocates %.1f per batch in steady state", name, avg)
	}
}

// replayGen serves a fixed reference slice; resetting pos replays it.
type replayGen struct {
	refs []trace.Ref
	pos  int
}

func (g *replayGen) Fill(buf []trace.Ref) int {
	n := copy(buf, g.refs[g.pos:])
	g.pos += n
	return n
}
