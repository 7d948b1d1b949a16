// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the ablations and raw simulator throughput.
//
//	go test -bench=Fig5 -benchmem          # one paper item
//	go test -bench=. -benchmem             # the full evaluation
//	wbexp -exp fig5                        # the same data as printed rows
//
// Each experiment benchmark reports two custom metrics alongside the usual
// timing: "stall%" — the mean total write-buffer-induced stall percentage
// across the suite for the experiment's last configuration column — and
// "Minstr" — total simulated instructions per iteration (millions).
package repro

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchInstructions keeps -bench=. runs tractable: each (benchmark, config)
// pair simulates this many dynamic instructions.  The paper-scale numbers
// in EXPERIMENTS.md were produced with wbexp -n 1000000.
const benchInstructions = 50_000

func benchmarkExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	opts := experiment.Options{Instructions: benchInstructions}
	var rep *experiment.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = e.Run(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if rep == nil || len(rep.Rows) == 0 {
		b.Fatalf("experiment %q produced no rows", id)
	}
	// The stall% metric only makes sense for experiments whose cells lead
	// with a stall percentage (figures, ablations, summary) — table cells
	// hold hit rates and mixes.
	if !strings.HasPrefix(id, "table") {
		if mean, ok := meanLastColumnStall(rep); ok {
			b.ReportMetric(mean, "stall%")
		}
	}
	runs := len(rep.Rows) * (len(rep.Columns) - 1)
	b.ReportMetric(float64(runs)*benchInstructions/1e6, "Minstr")
}

// meanLastColumnStall averages the leading "total" number of each row's
// last cell; figure cells start with the total stall percentage.
func meanLastColumnStall(rep *experiment.Report) (float64, bool) {
	var sum float64
	var n int
	for _, row := range rep.Rows {
		cell := strings.TrimSpace(row[len(row)-1])
		if i := strings.IndexByte(cell, ' '); i > 0 {
			cell = cell[:i]
		}
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// ── Figures ──────────────────────────────────────────────────────────────

func BenchmarkFig3(b *testing.B)  { benchmarkExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchmarkExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchmarkExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchmarkExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchmarkExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchmarkExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchmarkExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchmarkExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchmarkExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchmarkExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchmarkExperiment(b, "fig13") }

// ── Tables ───────────────────────────────────────────────────────────────

func BenchmarkTable4(b *testing.B) { benchmarkExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchmarkExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { benchmarkExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B) { benchmarkExperiment(b, "table7") }

// ── Ablations ────────────────────────────────────────────────────────────

func BenchmarkAblationFixedRate(b *testing.B)      { benchmarkExperiment(b, "abl-fixedrate") }
func BenchmarkAblationNonCoalescing(b *testing.B)  { benchmarkExperiment(b, "abl-noncoalescing") }
func BenchmarkAblationAging(b *testing.B)          { benchmarkExperiment(b, "abl-aging") }
func BenchmarkAblationPriority(b *testing.B)       { benchmarkExperiment(b, "abl-priority") }
func BenchmarkExtensionICache(b *testing.B)        { benchmarkExperiment(b, "abl-icache") }
func BenchmarkAblationWriteMissFetch(b *testing.B) { benchmarkExperiment(b, "abl-wmiss-fetch") }
func BenchmarkAblationIssueWidth(b *testing.B)     { benchmarkExperiment(b, "abl-issuewidth") }
func BenchmarkAblationDatapath(b *testing.B)       { benchmarkExperiment(b, "abl-datapath") }
func BenchmarkSummary(b *testing.B)                { benchmarkExperiment(b, "summary") }

// ── Extensions ───────────────────────────────────────────────────────────

func BenchmarkExtensionWriteCache(b *testing.B) { benchmarkExperiment(b, "ext-writecache") }
func BenchmarkExtensionMembar(b *testing.B)     { benchmarkExperiment(b, "ext-membar") }
func BenchmarkExtensionOccupancy(b *testing.B)  { benchmarkExperiment(b, "ext-occupancy") }
func BenchmarkExtensionAnalytic(b *testing.B)   { benchmarkExperiment(b, "ext-analytic") }
func BenchmarkExtensionMultiprog(b *testing.B)  { benchmarkExperiment(b, "ext-multiprog") }
func BenchmarkExtensionVariance(b *testing.B)   { benchmarkExperiment(b, "ext-variance") }

// ── Simulator throughput ─────────────────────────────────────────────────

// BenchmarkSimulatorThroughput measures raw simulation speed in simulated
// instructions per wall-clock second on the baseline configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	wl, ok := workload.ByName("compress")
	if !ok {
		b.Fatal("compress missing")
	}
	const n = 200_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sim.MustNew(sim.Baseline())
		m.Run(wl.Stream(n))
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(b.N)*n/secs/1e6, "Minstr/s")
	}
}

// BenchmarkSimulatorFiniteL2 measures throughput with the finite-L2 model
// (extra tag lookups and inclusion bookkeeping on every miss).
func BenchmarkSimulatorFiniteL2(b *testing.B) {
	wl, ok := workload.ByName("su2cor")
	if !ok {
		b.Fatal("su2cor missing")
	}
	const n = 200_000
	cfg := sim.Baseline().WithL2(512 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sim.MustNew(cfg)
		m.Run(wl.Stream(n))
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(b.N)*n/secs/1e6, "Minstr/s")
	}
}
