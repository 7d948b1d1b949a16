package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestOccupancyHistogramBasic(t *testing.T) {
	cfg := Baseline().WithRetire(core.RetireAt{N: 4}) // no retirements below 4
	m := run(t, cfg, []trace.Ref{
		{Kind: trace.Store, Addr: lineA},     // sees 0 occupied
		{Kind: trace.Store, Addr: lineB},     // sees 1
		{Kind: trace.Store, Addr: lineC},     // sees 2
		{Kind: trace.Store, Addr: lineA + 8}, // merge; still sees 3
	})
	h := m.OccupancyHistogram()
	want := []uint64{1, 1, 1, 1, 0}
	if len(h) != len(want) {
		t.Fatalf("histogram length %d, want %d", len(h), len(want))
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("hist[%d] = %d, want %d", i, h[i], want[i])
		}
	}
	if got := m.MeanOccupancy(); got != 1.5 {
		t.Errorf("mean occupancy = %v, want 1.5", got)
	}
}

func TestOccupancyHistogramLengthTracksDepth(t *testing.T) {
	m12 := MustNew(Baseline().WithDepth(12))
	if len(m12.OccupancyHistogram()) != 13 {
		t.Errorf("12-deep histogram has %d buckets", len(m12.OccupancyHistogram()))
	}
	// A write cache holds its lines plus a victim slot, so its histogram
	// has one bucket past "all lines dirty": the write stage full, with a
	// victim still pending.
	wc := MustNew(Baseline().WithWriteCache(6))
	if len(wc.OccupancyHistogram()) != 8 {
		t.Errorf("write-cache histogram has %d buckets", len(wc.OccupancyHistogram()))
	}
}

func TestOccupancyResetWithStats(t *testing.T) {
	m := MustNew(Baseline())
	m.Step(trace.Ref{Kind: trace.Store, Addr: lineA})
	m.ResetStats()
	for i, v := range m.OccupancyHistogram() {
		if v != 0 {
			t.Errorf("hist[%d] = %d after reset", i, v)
		}
	}
	if m.MeanOccupancy() != 0 {
		t.Error("mean occupancy nonzero after reset on no samples")
	}
}

// Lazier retirement must raise observed occupancy — the mechanism behind
// Figure 5's load-hazard growth.
func TestOccupancyRisesWithLazierRetirement(t *testing.T) {
	var refs []trace.Ref
	for i := 0; i < 4000; i++ {
		refs = append(refs, trace.Ref{Kind: trace.Store, Addr: mem32addr(i)})
		refs = append(refs, trace.Ref{Kind: trace.Exec}, trace.Ref{Kind: trace.Exec})
	}
	eager := run(t, Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 2}), refs)
	lazy := run(t, Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}), refs)
	if lazy.MeanOccupancy() <= eager.MeanOccupancy() {
		t.Errorf("lazy mean occupancy %.2f not above eager %.2f",
			lazy.MeanOccupancy(), eager.MeanOccupancy())
	}
}

func mem32addr(i int) mem.Addr { return mem.Addr(i%512) * 32 }
