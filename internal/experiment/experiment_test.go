package experiment

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

const testN = 150_000

func bench(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q missing", name)
	}
	return b
}

// runMatrix is RunMatrixCtx for sweeps that must succeed.
func runMatrix(t *testing.T, benches []workload.Benchmark, specs []ConfigSpec, o Options) [][]Measurement {
	t.Helper()
	out, err := RunMatrixCtx(context.Background(), benches, specs, o)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13",
		"table4", "table5", "table6", "table7",
		"abl-fixedrate", "abl-noncoalescing", "abl-aging", "abl-priority",
		"abl-icache", "abl-wmiss-fetch", "abl-issuewidth", "abl-datapath", "summary",
		"ext-writecache", "ext-membar", "ext-occupancy", "ext-analytic", "ext-multiprog", "ext-variance",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestIDOrdering(t *testing.T) {
	ids := IDs()
	pos := func(id string) int {
		for i, x := range ids {
			if x == id {
				return i
			}
		}
		return -1
	}
	if !(pos("fig3") < pos("fig10") && pos("fig13") < pos("table4") && pos("table7") < pos("abl-aging")) {
		t.Errorf("unexpected ID order: %v", ids)
	}
	if len(All()) != len(ids) {
		t.Error("All() and IDs() disagree")
	}
}

func TestRunProducesConsistentCounters(t *testing.T) {
	m := Run(bench(t, "compress"), "base", sim.Baseline(), testN)
	if err := m.C.Check(); err != nil {
		t.Fatal(err)
	}
	if m.Bench != "compress" || m.Label != "base" {
		t.Errorf("labels wrong: %+v", m)
	}
	if m.L2Hit != 1 {
		t.Errorf("perfect L2 hit rate = %v, want 1", m.L2Hit)
	}
}

func TestRunMatrixShapeAndParallelDeterminism(t *testing.T) {
	benches := []workload.Benchmark{bench(t, "espresso"), bench(t, "li")}
	specs := []ConfigSpec{
		{Label: "a", Cfg: sim.Baseline()},
		{Label: "b", Cfg: sim.Baseline().WithDepth(8)},
	}
	m1 := runMatrix(t, benches, specs, Options{Instructions: 50_000})
	m2 := runMatrix(t, benches, specs, Options{Instructions: 50_000})
	if len(m1) != 2 || len(m1[0]) != 2 {
		t.Fatalf("matrix shape %dx%d, want 2x2", len(m1), len(m1[0]))
	}
	for i := range m1 {
		for j := range m1[i] {
			if m1[i][j].C != m2[i][j].C {
				t.Errorf("matrix[%d][%d] differs between runs", i, j)
			}
			if m1[i][j].Bench != benches[i].Name || m1[i][j].Label != specs[j].Label {
				t.Errorf("matrix[%d][%d] mislabelled: %+v", i, j, m1[i][j])
			}
		}
	}
}

// Figure 4's paper finding: deeper buffers eliminate buffer-full stalls;
// by depth 8 they are tiny, at the cost of small rises elsewhere.
func TestFig4DepthTrend(t *testing.T) {
	benches := []workload.Benchmark{bench(t, "compress"), bench(t, "li"), bench(t, "wave5")}
	specs := []ConfigSpec{
		{Label: "2", Cfg: sim.Baseline().WithDepth(2)},
		{Label: "4", Cfg: sim.Baseline().WithDepth(4)},
		{Label: "8", Cfg: sim.Baseline().WithDepth(8)},
		{Label: "12", Cfg: sim.Baseline().WithDepth(12)},
	}
	matrix := runMatrix(t, benches, specs, Options{Instructions: testN})
	for bi, b := range benches {
		var bf []float64
		for ci := range specs {
			bf = append(bf, matrix[bi][ci].C.StallPct(stats.BufferFull))
		}
		for ci := 1; ci < len(bf); ci++ {
			if bf[ci] > bf[ci-1]+0.05 {
				t.Errorf("%s: buffer-full rose with depth: %v", b.Name, bf)
			}
		}
		if bf[3] > 0.4 {
			t.Errorf("%s: buffer-full still %.2f%% at depth 12", b.Name, bf[3])
		}
	}
}

// Figure 5's paper finding: under flush-full, lazier retirement cuts
// L2-read-access stalls but load-hazard stalls grow and dominate.
func TestFig5RetirementTrend(t *testing.T) {
	benches := []workload.Benchmark{bench(t, "sc"), bench(t, "li"), bench(t, "cc1")}
	specs := []ConfigSpec{
		{Label: "2", Cfg: sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 2})},
		{Label: "10", Cfg: sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 10})},
	}
	matrix := runMatrix(t, benches, specs, Options{Instructions: testN})
	for bi, b := range benches {
		eager, lazy := matrix[bi][0].C, matrix[bi][1].C
		if lazy.StallPct(stats.L2ReadAccess) > eager.StallPct(stats.L2ReadAccess) {
			t.Errorf("%s: lazier retirement did not reduce L2-read-access stalls", b.Name)
		}
		if lazy.StallPct(stats.LoadHazard) < eager.StallPct(stats.LoadHazard) {
			t.Errorf("%s: lazier retirement did not increase load-hazard stalls", b.Name)
		}
		if lazy.TotalStallPct() < eager.TotalStallPct() {
			t.Errorf("%s: flush-full should make lazy retirement a net loss", b.Name)
		}
	}
}

// Figures 6/7's paper finding: read-from-WB eliminates load-hazard stalls
// entirely, and hazard-policy precision monotonically reduces them.
func TestHazardPolicyPrecision(t *testing.T) {
	benches := []workload.Benchmark{bench(t, "li"), bench(t, "fpppp"), bench(t, "sc")}
	var specs []ConfigSpec
	for _, h := range core.HazardPolicies {
		specs = append(specs, ConfigSpec{
			Label: h.String(),
			Cfg:   sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(h),
		})
	}
	matrix := runMatrix(t, benches, specs, Options{Instructions: testN})
	for bi, b := range benches {
		var lh []float64
		for ci := range specs {
			lh = append(lh, matrix[bi][ci].C.StallPct(stats.LoadHazard))
		}
		for ci := 1; ci < len(lh); ci++ {
			if lh[ci] > lh[ci-1]+0.01 {
				t.Errorf("%s: load-hazard stalls not decreasing with precision: %v", b.Name, lh)
			}
		}
		if lh[3] != 0 {
			t.Errorf("%s: read-from-WB left %.2f%% load-hazard stalls", b.Name, lh[3])
		}
	}
}

// The paper's headline conclusion: a deep read-from-WB buffer with
// adequate headroom beats the baseline.
func TestBestConfigurationBeatsBaseline(t *testing.T) {
	names := []string{"compress", "sc", "li", "fpppp", "wave5", "su2cor"}
	best := sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB)
	for _, name := range names {
		b := bench(t, name)
		base := Run(b, "base", sim.Baseline(), testN)
		rwb := Run(b, "best", best, testN)
		if rwb.C.TotalStallPct() > base.C.TotalStallPct() {
			t.Errorf("%s: best config stalls %.2f%% > baseline %.2f%%",
				name, rwb.C.TotalStallPct(), base.C.TotalStallPct())
		}
	}
}

// Figure 11's paper finding: write-buffer stall share grows steeply with
// L2 latency; at 3 cycles the buffer barely impedes performance.
func TestFig11LatencyTrend(t *testing.T) {
	benches := []workload.Benchmark{bench(t, "li"), bench(t, "su2cor"), bench(t, "compress")}
	specs := []ConfigSpec{
		{Label: "3", Cfg: sim.Baseline().WithL2Latency(3)},
		{Label: "6", Cfg: sim.Baseline().WithL2Latency(6)},
		{Label: "10", Cfg: sim.Baseline().WithL2Latency(10)},
	}
	matrix := runMatrix(t, benches, specs, Options{Instructions: testN})
	for bi, b := range benches {
		t3 := matrix[bi][0].C.TotalStallPct()
		t6 := matrix[bi][1].C.TotalStallPct()
		t10 := matrix[bi][2].C.TotalStallPct()
		if !(t3 < t6 && t6 < t10) {
			t.Errorf("%s: stalls not increasing with latency: %.2f, %.2f, %.2f", b.Name, t3, t6, t10)
		}
	}
}

// Figure 10's paper finding: larger L1s cut L2-read-access stalls.
func TestFig10L1SizeTrend(t *testing.T) {
	benches := []workload.Benchmark{bench(t, "compress"), bench(t, "su2cor")}
	specs := []ConfigSpec{
		{Label: "8k", Cfg: sim.Baseline()},
		{Label: "32k", Cfg: sim.Baseline().WithL1Size(32 << 10)},
	}
	matrix := runMatrix(t, benches, specs, Options{Instructions: testN})
	for bi, b := range benches {
		small := matrix[bi][0].C.StallPct(stats.L2ReadAccess)
		big := matrix[bi][1].C.StallPct(stats.L2ReadAccess)
		if big > small {
			t.Errorf("%s: L2-read-access rose with bigger L1: %.2f -> %.2f", b.Name, small, big)
		}
	}
}

// Table 6's paper finding: the transformations remove nearly all
// write-buffer stalls from the NASA kernels.
func TestTable6TransformationWins(t *testing.T) {
	for _, pair := range [][2]string{{"gmtry", "gmtry-t"}, {"cholsky", "cholsky-t"}} {
		before := Run(bench(t, pair[0]), "before", sim.Baseline(), testN)
		after := Run(bench(t, pair[1]), "after", sim.Baseline(), testN)
		if after.L1Hit < before.L1Hit+0.2 {
			t.Errorf("%s: L1 hit rate %.2f -> %.2f, expected a large jump",
				pair[0], before.L1Hit, after.L1Hit)
		}
		if after.WBHit < before.WBHit+0.2 {
			t.Errorf("%s: WB hit rate %.2f -> %.2f, expected a large jump",
				pair[0], before.WBHit, after.WBHit)
		}
		if after.C.TotalStallPct() > before.C.TotalStallPct()/2 {
			t.Errorf("%s: stalls %.2f%% -> %.2f%%, expected at least a halving",
				pair[0], before.C.TotalStallPct(), after.C.TotalStallPct())
		}
	}
}

// Table 7 infrastructure: larger L2s hit more.
func TestTable7L2SizeTrend(t *testing.T) {
	benches := []workload.Benchmark{bench(t, "compress"), bench(t, "su2cor"), bench(t, "fft")}
	specs := []ConfigSpec{
		{Label: "128K", Cfg: sim.Baseline().WithL2(128 << 10)},
		{Label: "1M", Cfg: sim.Baseline().WithL2(1 << 20)},
	}
	matrix := runMatrix(t, benches, specs, Options{Instructions: testN})
	for bi, b := range benches {
		if matrix[bi][1].L2Hit < matrix[bi][0].L2Hit {
			t.Errorf("%s: 1M L2 hit rate %.3f below 128K's %.3f",
				b.Name, matrix[bi][1].L2Hit, matrix[bi][0].L2Hit)
		}
	}
}

// Ablation sanity: occupancy-based retirement beats fixed-rate (the paper's
// §2.2 argument).
func TestAblationFixedRateWorse(t *testing.T) {
	for _, name := range []string{"li", "wave5"} {
		b := bench(t, name)
		occ := Run(b, "occ", sim.Baseline(), testN)
		fixed := Run(b, "fixed", sim.Baseline().WithRetire(core.FixedRate{Interval: 32}), testN)
		if fixed.C.TotalStallPct() < occ.C.TotalStallPct() {
			t.Errorf("%s: fixed-rate (%.2f%%) beat occupancy-based (%.2f%%)",
				name, fixed.C.TotalStallPct(), occ.C.TotalStallPct())
		}
	}
}

// Ablation sanity: a non-coalescing buffer of equal byte capacity stalls
// more than the coalescing one.
func TestAblationNonCoalescingWorse(t *testing.T) {
	narrow := sim.Baseline()
	narrow.WB.WordsPerEntry = 1
	narrow = narrow.WithDepth(16)
	for _, name := range []string{"sc", "compress"} {
		b := bench(t, name)
		wide := Run(b, "wide", sim.Baseline(), testN)
		nar := Run(b, "narrow", narrow, testN)
		if nar.C.TotalStallPct() < wide.C.TotalStallPct() {
			t.Errorf("%s: non-coalescing (%.2f%%) beat coalescing (%.2f%%)",
				name, nar.C.TotalStallPct(), wide.C.TotalStallPct())
		}
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow")
	}
	small := Options{
		Instructions: 20_000,
		Benchmarks:   []workload.Benchmark{bench(t, "espresso"), bench(t, "li"), bench(t, "fft")},
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(context.Background(), small)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != e.ID {
				t.Errorf("report ID %q, want %q", rep.ID, e.ID)
			}
			if len(rep.Rows) == 0 {
				t.Error("report has no rows")
			}
			out := rep.String()
			if !strings.Contains(out, e.ID) {
				t.Error("rendered report missing its ID")
			}
		})
	}
}

func TestReportFormatting(t *testing.T) {
	r := &Report{
		ID: "t", Title: "demo",
		Columns: []string{"bench", "v"},
		Rows:    [][]string{{"alpha", "1.00"}, {"b", "2.00"}},
		Notes:   []string{"hello"},
	}
	out := r.String()
	for _, want := range []string{"t — demo", "alpha", "2.00", "note: hello", "bench"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
