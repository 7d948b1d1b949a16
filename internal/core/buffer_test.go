package core

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newBuf(depth int) *Buffer {
	cfg := DefaultConfig()
	cfg.Depth = depth
	return NewBuffer(cfg)
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Depth: 0, WordsPerEntry: 4, Geometry: mem.DefaultGeometry},
		{Depth: 4, WordsPerEntry: 0, Geometry: mem.DefaultGeometry},
		{Depth: 4, WordsPerEntry: 8, Geometry: mem.DefaultGeometry},  // wider than line
		{Depth: 4, WordsPerEntry: 3, Geometry: mem.DefaultGeometry},  // does not divide
		{Depth: 4, WordsPerEntry: 65, Geometry: mem.DefaultGeometry}, // > 64 valid bits
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v unexpectedly valid", cfg)
		}
	}
	for _, w := range []int{1, 2, 4} {
		cfg := Config{Depth: 4, WordsPerEntry: w, Geometry: mem.DefaultGeometry}
		if err := cfg.Validate(); err != nil {
			t.Errorf("config width %d invalid: %v", w, err)
		}
	}
}

func TestNewBufferPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuffer with depth 0 did not panic")
		}
	}()
	NewBuffer(Config{Depth: 0, WordsPerEntry: 4, Geometry: mem.DefaultGeometry})
}

func TestFullMask(t *testing.T) {
	if FullMask(1) != 0b1 || FullMask(4) != 0b1111 || FullMask(8) != 0xFF {
		t.Error("FullMask wrong")
	}
}

func TestStoreAllocateAndMerge(t *testing.T) {
	b := newBuf(4)
	if got := b.Store(0x100, 1); got != StoreAllocated {
		t.Fatalf("first store = %v, want allocated", got)
	}
	// Same line, different word: merge.
	if got := b.Store(0x108, 2); got != StoreMerged {
		t.Fatalf("same-line store = %v, want merged", got)
	}
	// Same word again: still a merge (overwrite).
	if got := b.Store(0x108, 3); got != StoreMerged {
		t.Fatalf("same-word store = %v, want merged", got)
	}
	if b.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", b.Occupancy())
	}
	e := b.Entries()[0]
	if e.Valid != 0b0011 {
		t.Fatalf("valid mask = %04b, want 0011", e.Valid)
	}
	if e.AllocCycle != 1 {
		t.Fatalf("alloc cycle = %d, want 1 (merges must not refresh it)", e.AllocCycle)
	}
	s := b.Stats()
	if s.Allocations != 1 || s.Merges != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStoreBlockedWhenFull(t *testing.T) {
	b := newBuf(2)
	b.Store(0x000, 0)
	b.Store(0x040, 0)
	if got := b.Store(0x080, 0); got != StoreBlocked {
		t.Fatalf("store into full buffer = %v, want blocked", got)
	}
	// But a merge into a full buffer succeeds.
	if got := b.Store(0x048, 0); got != StoreMerged {
		t.Fatalf("merge into full buffer = %v, want merged", got)
	}
}

func TestStoreCannotMergeIntoRetiringHead(t *testing.T) {
	b := newBuf(4)
	b.Store(0x000, 0)
	b.Store(0x040, 0)
	b.BeginRetire()
	// Same line as the head, which is retiring → must allocate fresh.
	if got := b.Store(0x008, 1); got != StoreAllocated {
		t.Fatalf("store to retiring head's line = %v, want allocated", got)
	}
	if b.Occupancy() != 3 {
		t.Fatalf("occupancy = %d, want 3", b.Occupancy())
	}
	// Merging into a *different* entry during retirement is allowed.
	if got := b.Store(0x048, 1); got != StoreMerged {
		t.Fatalf("merge during retirement = %v, want merged", got)
	}
}

func TestRetireLifecycle(t *testing.T) {
	b := newBuf(4)
	b.Store(0x000, 0)
	b.Store(0x040, 0)
	head := b.BeginRetire()
	if head.Tag != b.EntryTag(0x000) {
		t.Fatal("BeginRetire returned wrong entry")
	}
	if !b.Retiring() {
		t.Fatal("Retiring flag not set")
	}
	b.CompleteRetire()
	if b.Retiring() {
		t.Fatal("Retiring flag not cleared")
	}
	if b.Occupancy() != 1 || b.Head().Tag != b.EntryTag(0x040) {
		t.Fatal("head not advanced after retirement")
	}
	if b.Stats().Retirements != 1 {
		t.Fatal("retirement not counted")
	}
}

func TestRetirePanics(t *testing.T) {
	b := newBuf(2)
	mustPanic(t, "BeginRetire empty", func() { b.BeginRetire() })
	b.Store(0, 0)
	b.BeginRetire()
	mustPanic(t, "double BeginRetire", func() { b.BeginRetire() })
	b.AbandonRetire()
	mustPanic(t, "CompleteRetire without begin", func() { b.CompleteRetire() })
}

func TestProbe(t *testing.T) {
	b := newBuf(4)
	b.Store(0x100, 0) // word 0 of line 8
	idx, wordValid, hit := b.Probe(0x100)
	if !hit || !wordValid || idx != 0 {
		t.Fatalf("probe same word = (%d,%v,%v)", idx, wordValid, hit)
	}
	// Same line, unwritten word: block hit, word invalid.
	idx, wordValid, hit = b.Probe(0x118)
	if !hit || wordValid || idx != 0 {
		t.Fatalf("probe unwritten word = (%d,%v,%v)", idx, wordValid, hit)
	}
	// Different line entirely.
	_, _, hit = b.Probe(0x200)
	if hit {
		t.Fatal("probe of absent line hit")
	}
	s := b.Stats()
	if s.LoadProbes != 3 || s.LoadHits != 2 {
		t.Fatalf("probe stats = %+v", s)
	}
}

func TestProbeSeesRetiringHead(t *testing.T) {
	b := newBuf(4)
	b.Store(0x100, 0)
	b.BeginRetire()
	if _, _, hit := b.Probe(0x100); !hit {
		t.Fatal("probe must see the retiring head (its data is still buffered)")
	}
}

func TestFlushPrefix(t *testing.T) {
	b := newBuf(4)
	b.Store(0x000, 0)
	b.Store(0x040, 0)
	b.Store(0x080, 0)
	flushed := b.FlushPrefix(2)
	if len(flushed) != 2 || flushed[0].Tag != b.EntryTag(0x000) || flushed[1].Tag != b.EntryTag(0x040) {
		t.Fatalf("flushed = %v", flushed)
	}
	if b.Occupancy() != 1 || b.Head().Tag != b.EntryTag(0x080) {
		t.Fatal("remaining entry wrong")
	}
	if b.Stats().Flushes != 2 {
		t.Fatal("flushes not counted")
	}
}

func TestFlushAll(t *testing.T) {
	b := newBuf(4)
	for i := mem.Addr(0); i < 4; i++ {
		b.Store(i*0x40, 0)
	}
	if got := len(b.FlushAll()); got != 4 {
		t.Fatalf("FlushAll returned %d entries, want 4", got)
	}
	if !b.IsEmpty() {
		t.Fatal("buffer not empty after FlushAll")
	}
}

func TestFlushOnePreservesOrder(t *testing.T) {
	b := newBuf(4)
	b.Store(0x000, 0)
	b.Store(0x040, 0)
	b.Store(0x080, 0)
	e := b.FlushOne(1)
	if e.Tag != b.EntryTag(0x040) {
		t.Fatal("FlushOne removed wrong entry")
	}
	got := b.Entries()
	if len(got) != 2 || got[0].Tag != b.EntryTag(0x000) || got[1].Tag != b.EntryTag(0x080) {
		t.Fatalf("FIFO order broken: %v", got)
	}
}

func TestFlushPanics(t *testing.T) {
	b := newBuf(2)
	b.Store(0, 0)
	mustPanic(t, "FlushPrefix range", func() { b.FlushPrefix(5) })
	mustPanic(t, "FlushOne range", func() { b.FlushOne(3) })
	b.BeginRetire()
	mustPanic(t, "FlushPrefix while retiring", func() { b.FlushPrefix(1) })
	mustPanic(t, "FlushOne while retiring", func() { b.FlushOne(0) })
	mustPanic(t, "FlushAll while retiring", func() { b.FlushAll() })
}

func TestHeadPanicsWhenEmpty(t *testing.T) {
	mustPanic(t, "Head of empty", func() { newBuf(2).Head() })
}

func TestNonCoalescingWidth1(t *testing.T) {
	cfg := Config{Depth: 4, WordsPerEntry: 1, Geometry: mem.DefaultGeometry}
	b := NewBuffer(cfg)
	b.Store(0x100, 0)
	// Adjacent word in the same cache line must NOT merge at width 1.
	if got := b.Store(0x108, 0); got != StoreAllocated {
		t.Fatalf("adjacent-word store = %v, want allocated (non-coalescing)", got)
	}
	// The very same word does merge (overwrite).
	if got := b.Store(0x100, 0); got != StoreMerged {
		t.Fatalf("same-word store = %v, want merged", got)
	}
	if b.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", b.Occupancy())
	}
}

func TestEntryTagWidth(t *testing.T) {
	lineWide := NewBuffer(DefaultConfig())
	if lineWide.EntryTag(0x100) != lineWide.EntryTag(0x11F) {
		t.Error("line-wide tags should cover 32 bytes")
	}
	if lineWide.EntryTag(0x100) == lineWide.EntryTag(0x120) {
		t.Error("distinct lines must have distinct tags")
	}
	w1 := NewBuffer(Config{Depth: 4, WordsPerEntry: 1, Geometry: mem.DefaultGeometry})
	if w1.EntryTag(0x100) == w1.EntryTag(0x108) {
		t.Error("width-1 tags should cover only 8 bytes")
	}
}

func TestAddrOfRoundTrip(t *testing.T) {
	b := NewBuffer(DefaultConfig())
	b.Store(0x12348, 0)
	e := b.Entries()[0]
	if got := b.AddrOf(e); got != 0x12340 {
		t.Errorf("AddrOf = %#x, want 0x12340 (line base)", got)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

// Property: occupancy never exceeds depth; a store is blocked iff the
// buffer is full and no merge target exists; after any sequence the sum of
// allocations equals retired + flushed + resident entries.
func TestBufferInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		b := newBuf(4)
		for _, op := range ops {
			addr := mem.Addr(op%64) * 8 // 64 words over 16 lines
			switch op % 5 {
			case 0, 1, 2: // store
				res := b.Store(addr, uint64(op))
				if res == StoreBlocked && b.Occupancy() != b.Capacity() {
					return false
				}
			case 3: // retire if possible
				if !b.IsEmpty() && !b.Retiring() {
					b.BeginRetire()
					b.CompleteRetire()
				}
			case 4: // flush one arbitrary entry
				if !b.IsEmpty() && !b.Retiring() {
					b.FlushOne(int(op) % b.Occupancy())
				}
			}
			if b.Occupancy() > 4 {
				return false
			}
		}
		s := b.Stats()
		return s.Allocations == s.Retirements+s.Flushes+uint64(b.Occupancy())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a probe immediately after a store to the same address always
// hits with the word valid.
func TestStoreThenProbeProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		b := newBuf(8)
		for _, a := range addrs {
			addr := mem.Addr(a) &^ 7 // word aligned
			if b.Store(addr, 0) == StoreBlocked {
				b.BeginRetire()
				b.CompleteRetire()
				if b.Store(addr, 0) == StoreBlocked {
					return false
				}
			}
			_, wordValid, hit := b.Probe(addr)
			if !hit || !wordValid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: valid masks never exceed the entry width.
func TestValidMaskWidthProperty(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		cfg := Config{Depth: 6, WordsPerEntry: w, Geometry: mem.DefaultGeometry}
		full := FullMask(w)
		f := func(addrs []uint16) bool {
			b := NewBuffer(cfg)
			for _, a := range addrs {
				if b.Store(mem.Addr(a)&^7, 0) == StoreBlocked {
					b.FlushAll()
					b.Store(mem.Addr(a)&^7, 0)
				}
			}
			for _, e := range b.Entries() {
				if e.Valid == 0 || e.Valid&^full != 0 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}
