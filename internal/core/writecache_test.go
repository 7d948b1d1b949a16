package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newWC(depth int) *WriteCache {
	cfg := DefaultConfig()
	cfg.Depth = depth
	return NewWriteCache(cfg)
}

// retireVictim writes the parked victim back, as the simulator's
// retire-at-Capacity policy does.
func retireVictim(w *WriteCache) Entry {
	e := w.BeginRetire()
	w.CompleteRetire()
	return e
}

func TestWriteCacheStoreMergeAllocate(t *testing.T) {
	w := newWC(2)
	if r := w.Store(0x100, 1); r != StoreAllocated {
		t.Fatalf("first store = %v, want allocated", r)
	}
	if r := w.Store(0x108, 2); r != StoreMerged {
		t.Fatalf("same-line store = %v, want merged", r)
	}
	if s := w.Stats(); s.Allocations != 1 || s.Merges != 1 {
		t.Fatalf("stats = %+v, want 1 alloc + 1 merge", s)
	}
	if w.Occupancy() != 1 || w.Capacity() != 3 {
		t.Fatalf("occupancy/capacity = %d/%d, want 1/3", w.Occupancy(), w.Capacity())
	}
}

func TestWriteCacheNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWriteCache with depth 0 did not panic")
		}
	}()
	NewWriteCache(Config{Depth: 0, WordsPerEntry: 4, Geometry: mem.DefaultGeometry})
}

func TestWriteCacheLRUEviction(t *testing.T) {
	w := newWC(2)
	w.Store(0x000, 1) // A
	w.Store(0x040, 2) // B; A is now LRU
	w.Store(0x008, 3) // touch A: B becomes LRU
	if r := w.Store(0x080, 4); r != StoreAllocated || w.Occupancy() != 3 {
		t.Fatalf("store into a full cache = %v, occupancy %d; want B parked as the victim", r, w.Occupancy())
	}
	if w.HeadAllocCycle() != 2 {
		t.Fatalf("victim alloc cycle %d, want B's (2)", w.HeadAllocCycle())
	}
	victim := retireVictim(w)
	if victim.Tag != w.EntryTag(0x040) || victim.Valid != 0b0001 {
		t.Fatalf("victim %+v, want B's tag %#x with mask 0001", victim, w.EntryTag(0x040))
	}
	if w.Stats().Retirements != 1 || w.Occupancy() != 2 {
		t.Fatalf("after the victim write: %+v, occupancy %d", w.Stats(), w.Occupancy())
	}
}

// A miss on a full cache with the victim slot busy is blocked and leaves
// the cache exactly as it was.  The victim keeps its data until its
// write-back completes, so loads still hit it mid-retirement.
func TestWriteCacheBlockedStoreAndRetiringVictim(t *testing.T) {
	w := newWC(1)
	w.Store(0x000, 1)
	w.Store(0x040, 2) // A to the victim slot
	w.BeginRetire()
	before := *w
	before.lines = append([]wcLine(nil), w.lines...)
	if r := w.Store(0x080, 3); r != StoreBlocked || !reflect.DeepEqual(before, *w) {
		t.Fatalf("store with a busy victim slot = %v (want blocked), or it changed the cache", r)
	}
	if idx, wordValid, hit := w.Probe(0x000); !hit || !wordValid || idx != w.Find(0x000) {
		t.Fatalf("probe of the retiring victim = (%d,%v,%v), find %d", idx, wordValid, hit, w.Find(0x000))
	}
	w.CompleteRetire()
	if _, _, hit := w.Probe(0x000); hit {
		t.Fatal("the written-back victim still hits")
	}
	if r := w.Store(0x080, 4); r != StoreAllocated {
		t.Fatalf("retried store = %v, want allocated", r)
	}
}

func TestWriteCacheProbeRefreshesLRU(t *testing.T) {
	w := newWC(2)
	w.Store(0x000, 1) // A
	w.Store(0x040, 2) // B
	// Read A: A becomes MRU, so the next eviction takes B.
	if _, wordValid, hit := w.Probe(0x000); !hit || !wordValid {
		t.Fatalf("probe of stored word = (%v,%v)", wordValid, hit)
	}
	w.Store(0x080, 3)
	if victim := retireVictim(w); victim.Tag != w.EntryTag(0x040) {
		t.Fatal("probe did not refresh LRU order")
	}
}

func TestWriteCacheProbeWordInvalid(t *testing.T) {
	w := newWC(2)
	w.Store(0x100, 1)
	_, wordValid, hit := w.Probe(0x118) // same line, unwritten word
	if !hit || wordValid {
		t.Fatalf("probe = (%v,%v), want block hit with invalid word", wordValid, hit)
	}
	if _, _, hit := w.Probe(0x200); hit {
		t.Fatal("probe of absent block hit")
	}
	if s := w.Stats(); s.LoadProbes != 2 || s.LoadHits != 1 {
		t.Fatalf("probe stats = %+v", s)
	}
}

// A barrier drain emits the victim first, then the lines oldest first.
func TestWriteCacheDrainAllLRUOrder(t *testing.T) {
	w := newWC(3)
	w.Store(0x000, 1) // A
	w.Store(0x040, 2) // B
	w.Store(0x080, 3) // C
	w.Store(0x008, 4) // touch A: B is LRU
	w.Store(0x0c0, 5) // D; B to the victim slot
	var got []mem.Addr
	for _, e := range w.FlushAllInto(make([]Entry, 0, w.Capacity())) {
		got = append(got, w.AddrOf(e))
	}
	if want := []mem.Addr{0x040, 0x080, 0x000, 0x0c0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("drain order %#x, want %#x", got, want)
	}
	if w.Occupancy() != 0 || w.Stats().Flushes != 4 {
		t.Fatalf("after the drain: occupancy %d, %+v", w.Occupancy(), w.Stats())
	}
}

func TestWriteCacheAddrOf(t *testing.T) {
	w := newWC(2)
	w.Store(0x12348, 1)
	e := w.FlushThroughInto(nil, w.Find(0x12348))[0]
	if got := w.AddrOf(e); got != 0x12340 {
		t.Errorf("AddrOf = %#x, want 0x12340", got)
	}
	if w.Occupancy() != 0 || w.Stats().Flushes != 1 {
		t.Errorf("after FlushThroughInto: occupancy %d, %+v", w.Occupancy(), w.Stats())
	}
}

// Property: occupancy never exceeds capacity; a store is blocked exactly
// when it misses a full cache whose victim slot is busy; every allocated
// line is retired, flushed, or still resident.
func TestWriteCacheInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		w := newWC(4)
		for _, op := range ops {
			switch {
			case op%16 == 0 && w.Occupancy() == w.Capacity() && !w.Retiring():
				w.BeginRetire()
			case op%16 == 1 && w.Retiring():
				w.CompleteRetire()
			case op%16 == 2 && !w.Retiring():
				w.FlushAllInto(nil)
			case op%16 > 2:
				addr := mem.Addr(op%96) * 8
				wasFull, lineHit := w.Occupancy() == w.Capacity(), w.Find(addr) >= 0 && w.Find(addr) < 4
				if blocked := w.Store(addr, uint64(op)) == StoreBlocked; blocked != (wasFull && !lineHit) {
					return false
				}
				if w.Occupancy() > w.Capacity() {
					return false
				}
			}
		}
		s := w.Stats()
		return s.Allocations == s.Retirements+s.Flushes+uint64(w.Occupancy())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a store followed by a probe of the same word always hits with
// the word valid, whatever came before.
func TestWriteCacheStoreThenProbeProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		w := newWC(4)
		for _, a := range addrs {
			addr := mem.Addr(a) &^ 7
			if w.Store(addr, 0) == StoreBlocked {
				retireVictim(w)
				w.Store(addr, 0)
			}
			if _, wordValid, hit := w.Probe(addr); !hit || !wordValid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
