package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/trace"
)

// benchRefs materialises a deterministic mixed reference stream (25%
// loads, 15% stores over a 64 KB footprint, the rest plain execution) so
// the benchmark measures Step, not stream generation.
func benchRefs(n int) []trace.Ref {
	r := rng.New(42)
	refs := make([]trace.Ref, n)
	for i := range refs {
		addr := mem.Addr(r.Uint64() % (64 << 10))
		switch {
		case r.Bool(0.25):
			refs[i] = trace.Ref{Kind: trace.Load, Addr: addr}
		case r.Bool(0.20): // 0.20 of the remaining 75% ≈ 15% overall
			refs[i] = trace.Ref{Kind: trace.Store, Addr: addr}
		default:
			refs[i] = trace.Ref{Kind: trace.Exec}
		}
	}
	return refs
}

// BenchmarkStep guards the per-instruction hot path.  The metrics layer
// must not slow it down: the only instrument the machine updates during
// execution is the retirement-latency histogram, touched once per
// retirement (a path that already performs an L2 write), never per
// instruction.  The write-cache and ftl cases take the interface-dispatched
// organization path instead of the devirtualized FIFO.
func BenchmarkStep(b *testing.B) {
	refs := benchRefs(1 << 16)
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"baseline", Baseline()},
		{"deep-lazy", Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB)},
		{"finiteL2", Baseline().WithL2(512 << 10)},
		{"write-cache", Baseline().WithWriteCache(8)},
		{"ftl", Baseline().WithOrg(core.FTLOrg{NumBuffers: 2, SectorBits: 1})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := MustNew(bc.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step(refs[i&(len(refs)-1)])
			}
		})
	}
}

// BenchmarkPublishMetrics sizes the once-per-run cost of exporting a
// machine's counters into a shared registry.
func BenchmarkPublishMetrics(b *testing.B) {
	m := MustNew(Baseline())
	for _, r := range benchRefs(1 << 12) {
		m.Step(r)
	}
	reg := metrics.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PublishMetrics(reg)
	}
}
