package sim

// Differential tests for pluggable write-buffer organizations.  The
// contract has two halves: the degenerate ftl shape (numbuffers=1,
// sectorbits=0) must be byte-identical to the FIFO across the whole PR-6
// differential matrix, and every non-degenerate shape must preserve the
// fused-path invariants (RunGenerator ≡ Run, zero steady-state
// allocation) even though its timing legitimately differs.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// degenerateOrg is the ftl shape that must reproduce the FIFO exactly.
var degenerateOrg = core.FTLOrg{NumBuffers: 1, SectorBits: 0}

// TestFTLDegenerateMatchesFIFO runs every fused-matrix configuration and
// benchmark twice — once with the implicit FIFO, once with ftl{1,0} — on
// both execution paths, and requires identical observable state.  The
// write-cache configuration rides along to pin the rule that cfg.Org is
// ignored there.
func TestFTLDegenerateMatchesFIFO(t *testing.T) {
	const n = 40_000
	for name, cfg := range fusedConfigs() {
		for _, bench := range fusedBenches {
			b, ok := workload.ByName(bench)
			if !ok {
				t.Fatalf("unknown benchmark %q", bench)
			}
			fifo := MustNew(cfg)
			runFused(fifo, b.Stream(n), n)
			want := snapshot(fifo)

			ftlCfg := cfg.WithOrg(degenerateOrg)
			fused := MustNew(ftlCfg)
			runFused(fused, b.Stream(n), n)
			if got := snapshot(fused); !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: ftl{1,0} fused diverged from fifo\nfifo: %+v\nftl:  %+v",
					name, bench, want, got)
			}

			legacy := MustNew(ftlCfg)
			runLegacy(legacy, b.Stream(n), n)
			if got := snapshot(legacy); !reflect.DeepEqual(want, got) {
				t.Errorf("%s/%s: ftl{1,0} legacy diverged from fifo\nfifo: %+v\nftl:  %+v",
					name, bench, want, got)
			}
		}
	}
}

// ftlShapes are the non-degenerate organizations the equivalence and
// allocation tests sweep: striping alone, coarse sectors alone, and both.
func ftlShapes() map[string]Config {
	return map[string]Config{
		"ftl-2x":        Baseline().WithDepth(8).WithOrg(core.FTLOrg{NumBuffers: 2}),
		"ftl-4x-sec1":   Baseline().WithDepth(8).WithOrg(core.FTLOrg{NumBuffers: 4, SectorBits: 1}),
		"ftl-sec2":      Baseline().WithOrg(core.FTLOrg{NumBuffers: 1, SectorBits: 2}),
		"ftl-read-wb":   Baseline().WithDepth(16).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB).WithOrg(core.FTLOrg{NumBuffers: 4}),
		"ftl-flush-prt": Baseline().WithDepth(8).WithHazard(core.FlushPartial).WithOrg(core.FTLOrg{NumBuffers: 2, SectorBits: 1}),
		"ftl-age":       Baseline().WithDepth(8).WithRetire(core.RetireAt{N: 6, Timeout: 64}).WithOrg(core.FTLOrg{NumBuffers: 4}),
	}
}

// TestFTLFusedMatchesLegacy extends the PR-6 old-vs-new differential to
// non-degenerate ftl shapes: the batched path must reproduce per-reference
// stepping bit for bit under striping, forced drains, and coarse masks.
func TestFTLFusedMatchesLegacy(t *testing.T) {
	assertFusedMatchesLegacy(t, ftlShapes(), fusedBenches)
}

// TestFTLStripingChangesTiming is the sanity check that numbuffers is a
// real axis: a striped organization must diverge from the FIFO on at
// least one benchmark (home-buffer conflicts block stores the FIFO would
// absorb).
func TestFTLStripingChangesTiming(t *testing.T) {
	const n = 40_000
	cfg := Baseline().WithDepth(8).WithRetire(core.RetireAt{N: 6})
	diverged := false
	for _, bench := range fusedBenches {
		b, _ := workload.ByName(bench)
		fifo := MustNew(cfg)
		runFused(fifo, b.Stream(n), n)
		ftl := MustNew(cfg.WithOrg(core.FTLOrg{NumBuffers: 4}))
		runFused(ftl, b.Stream(n), n)
		if !reflect.DeepEqual(snapshot(fifo), snapshot(ftl)) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("ftl with 4 striped buffers matched the fifo on every benchmark; striping has no effect")
	}
}

// TestZeroAllocSteadyStateFTL extends the tentpole allocation contract to
// the ftl organization: striped scans, forced drains, and hazard flushes
// must all reuse existing storage.
func TestZeroAllocSteadyStateFTL(t *testing.T) {
	refs := benchRefs(1 << 12)
	for name, cfg := range ftlShapes() {
		assertZeroAlloc(t, name, cfg, refs)
	}
}

// TestPublishMetricsOrgSamples checks that an ftl machine exports its
// organization-specific series through the shared registry and that the
// FIFO exports none.
func TestPublishMetricsOrgSamples(t *testing.T) {
	const n = 20_000
	b, _ := workload.ByName("cholsky")
	m := MustNew(Baseline().WithDepth(8).WithOrg(core.FTLOrg{NumBuffers: 2, SectorBits: 1}))
	runFused(m, b.Stream(n), n)
	reg := metrics.NewRegistry()
	m.PublishMetrics(reg)
	snap := reg.Snapshot()
	if snap["sim_wb_org_mask_coalesces_total"] == 0 {
		t.Error("sim_wb_org_mask_coalesces_total missing or zero after a coalescing run")
	}
	perBuf := 0
	for name := range snap {
		if strings.HasPrefix(name, "sim_wb_org_buf_retirements_total") {
			perBuf++
		}
	}
	if perBuf != 2 {
		t.Errorf("got %d per-buffer retirement series, want 2", perBuf)
	}

	fifo := MustNew(Baseline())
	runFused(fifo, b.Stream(n), n)
	fifoReg := metrics.NewRegistry()
	fifo.PublishMetrics(fifoReg)
	for name := range fifoReg.Snapshot() {
		if strings.HasPrefix(name, "sim_wb_org_") {
			t.Errorf("fifo machine exported organization series %q", name)
		}
	}
}
