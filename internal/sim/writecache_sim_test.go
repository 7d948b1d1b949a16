package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

func wcConfig(depth int) Config {
	return Baseline().WithWriteCache(depth)
}

func TestWriteCacheConfigValidation(t *testing.T) {
	if _, err := New(wcConfig(4)); err != nil {
		t.Fatalf("write-cache config invalid: %v", err)
	}
	bad := wcConfig(4)
	bad.WriteCacheDepth = -1
	if _, err := New(bad); err == nil {
		t.Error("negative write-cache depth accepted")
	}
	mix := wcConfig(4)
	mix.WriteThreshold = 3
	if _, err := New(mix); err == nil {
		t.Error("write-priority threshold combined with write cache")
	}
}

// Stores into a write cache never stall until an eviction collides with a
// busy victim slot.
func TestWriteCacheStoresAbsorbWithoutStall(t *testing.T) {
	m := run(t, wcConfig(4), []trace.Ref{
		{Kind: trace.Store, Addr: lineA},
		{Kind: trace.Store, Addr: lineB},
		{Kind: trace.Store, Addr: lineC},
		{Kind: trace.Store, Addr: lineD},
	})
	c := m.Counters()
	if c.WBStallCycles() != 0 {
		t.Fatalf("stalls = %d, want 0 (no evictions yet)", c.WBStallCycles())
	}
	if c.Retirements != 0 {
		t.Fatalf("retirements = %d, want 0 (a write cache holds its data)", c.Retirements)
	}
}

// Filling a 2-deep write cache with a third line evicts the LRU block into
// the victim slot; the store itself proceeds without stalling.  A fourth
// line evicts again while the first victim is still being written: that
// store waits for the victim slot.
func TestWriteCacheEvictionTiming(t *testing.T) {
	m := run(t, wcConfig(2), []trace.Ref{
		{Kind: trace.Store, Addr: lineA}, // t=0
		{Kind: trace.Store, Addr: lineB}, // t=1
		{Kind: trace.Store, Addr: lineC}, // t=2: evict A -> victim slot
		{Kind: trace.Store, Addr: lineD}, // t=3: evict B, victim busy with A
	})
	c := m.Counters()
	// A's victim write runs [2,8) (parked and eligible at t=2, the same
	// convention as buffer retirements).  At t=3 the victim slot is
	// still writing A, so B's eviction waits until 8: stall 5.
	if got := c.Stalls[stats.BufferFull]; got != 5 {
		t.Errorf("buffer-full stall = %d, want 5", got)
	}
	if c.Cycles != 3+1+5 {
		t.Errorf("cycles = %d, want 9", c.Cycles)
	}
	if c.Retirements != 1 {
		t.Errorf("retirements = %d, want 1 (A's victim write)", c.Retirements)
	}
}

// Loads read directly from the write cache at hit speed.
func TestWriteCacheServicesReads(t *testing.T) {
	m := run(t, wcConfig(4), []trace.Ref{
		{Kind: trace.Store, Addr: lineA},
		{Kind: trace.Load, Addr: lineA},
	})
	c := m.Counters()
	if c.Cycles != 2 {
		t.Fatalf("cycles = %d, want 2 (forwarded)", c.Cycles)
	}
	if c.WBReadHits != 1 {
		t.Fatalf("WB read hits = %d, want 1", c.WBReadHits)
	}
}

// The victim still holds its data while it is written back, so a load of
// it is forwarded like a line hit.
func TestWriteCacheServicesReadsFromVictim(t *testing.T) {
	m := run(t, wcConfig(1), []trace.Ref{
		{Kind: trace.Store, Addr: lineA}, // t=0
		{Kind: trace.Store, Addr: lineB}, // t=1: A to the victim slot, written back [1,7)
		{Kind: trace.Load, Addr: lineA},  // t=2: forwarded from the retiring victim
	})
	if c := m.Counters(); c.Cycles != 3 || c.WBReadHits != 1 || c.Retirements != 0 {
		t.Fatalf("cycles %d, WB read hits %d, retirements %d; want 3, 1, 0", c.Cycles, c.WBReadHits, c.Retirements)
	}
}

// A load of an unwritten word of a dirty block goes to L2 and merges.
func TestWriteCacheWordInvalidLoad(t *testing.T) {
	m := run(t, wcConfig(4), []trace.Ref{
		{Kind: trace.Store, Addr: lineA},
		{Kind: trace.Load, Addr: lineA + 8},
	})
	c := m.Counters()
	if c.MissCycles != 6 {
		t.Fatalf("miss cycles = %d, want 6", c.MissCycles)
	}
	if c.Stalls[stats.LoadHazard] != 0 {
		t.Fatal("write cache must never flush on a hazard")
	}
}

// The write cache aggregates write traffic far better than the buffer:
// on a line-reuse-heavy store stream it writes L2 much less often.
func TestWriteCacheReducesWriteTraffic(t *testing.T) {
	r := rng.New(31)
	var refs []trace.Ref
	for i := 0; i < 30000; i++ {
		// Stores revisit 8 hot lines with occasional excursions.
		line := r.Intn(8)
		if r.Bool(0.1) {
			line = 8 + r.Intn(64)
		}
		refs = append(refs, trace.Ref{Kind: trace.Store, Addr: mem.Addr(line*32 + r.Intn(4)*8)})
		refs = append(refs, trace.Ref{Kind: trace.Exec})
	}
	buf := run(t, Baseline().WithDepth(8), refs)
	wc := run(t, wcConfig(8), refs)
	bufWrites := buf.Counters().Retirements + buf.Counters().FlushedEntries
	wcWrites := wc.Counters().Retirements + wc.Counters().FlushedEntries
	if wcWrites*10 > bufWrites*7 {
		t.Errorf("write cache wrote %d blocks vs buffer's %d; expected at least a 30%% reduction",
			wcWrites, bufWrites)
	}
}

// Membar semantics: all buffered stores reach L2 before the barrier
// completes, in both write-stage organisations.
func TestMembarDrainsBuffer(t *testing.T) {
	m := run(t, Baseline(), []trace.Ref{
		{Kind: trace.Store, Addr: lineA},
		{Kind: trace.Membar},
	})
	c := m.Counters()
	// The lone entry flushes [1,7): 6 cycles of membar-drain stall.
	if got := c.Stalls[stats.MembarDrain]; got != 6 {
		t.Errorf("membar-drain stall = %d, want 6", got)
	}
	if c.Cycles != 1+1+6 {
		t.Errorf("cycles = %d, want 8", c.Cycles)
	}
	if c.FlushedEntries != 1 {
		t.Errorf("flushed = %d, want 1", c.FlushedEntries)
	}
}

func TestMembarWaitsForUnderwayRetirement(t *testing.T) {
	m := run(t, Baseline(), []trace.Ref{
		{Kind: trace.Store, Addr: lineA},
		{Kind: trace.Store, Addr: lineB}, // occupancy 2: retirement of A starts at 1
		{Kind: trace.Membar},             // t=2: wait for A (done 7), flush B (done 13)
	})
	c := m.Counters()
	if got := c.Stalls[stats.MembarDrain]; got != 11 {
		t.Errorf("membar-drain stall = %d, want 11", got)
	}
	if c.Retirements != 1 || c.FlushedEntries != 1 {
		t.Errorf("retirements/flushes = %d/%d, want 1/1", c.Retirements, c.FlushedEntries)
	}
}

func TestMembarDrainsWriteCache(t *testing.T) {
	m := run(t, wcConfig(4), []trace.Ref{
		{Kind: trace.Store, Addr: lineA},
		{Kind: trace.Store, Addr: lineB},
		{Kind: trace.Membar}, // t=2: two dirty blocks flush: 12 cycles
	})
	c := m.Counters()
	if got := c.Stalls[stats.MembarDrain]; got != 12 {
		t.Errorf("membar-drain stall = %d, want 12", got)
	}
	if c.FlushedEntries != 2 {
		t.Errorf("flushed = %d, want 2", c.FlushedEntries)
	}
}

func TestMembarOnEmptyBufferIsFree(t *testing.T) {
	m := run(t, Baseline(), []trace.Ref{{Kind: trace.Membar}})
	if m.Counters().Cycles != 1 {
		t.Errorf("cycles = %d, want 1", m.Counters().Cycles)
	}
}

// The attribution invariant holds for write-cache configurations and
// membar-bearing streams too.
func TestWriteCacheAttributionProperty(t *testing.T) {
	configs := []Config{
		wcConfig(2), wcConfig(4), wcConfig(8),
		wcConfig(4).WithL2(64 << 10),
	}
	for i, cfg := range configs {
		cfg := cfg
		f := func(seed uint64) bool {
			refs := randomRefs(rng.New(seed), 1500)
			// Sprinkle membars.
			for j := 100; j < len(refs); j += 211 {
				refs[j] = trace.Ref{Kind: trace.Membar}
			}
			m := MustNew(cfg)
			m.Run(trace.NewSliceStream(refs))
			return m.Counters().Check() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("config %d: %v", i, err)
		}
	}
}
