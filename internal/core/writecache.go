package core

import "repro/internal/mem"

// WriteCache is the alternative write-stage organisation Jouppi proposed
// and the paper discusses in Section 5: instead of a FIFO queue that
// autonomously retires entries, a small fully associative cache of dirty
// lines with LRU replacement, writing back through a one-entry victim
// slot.  Data leaves only when an allocation must evict a line (or a
// barrier drains the cache), so a write cache maximises coalescing and
// write-traffic aggregation at the price of keeping data un-written for
// much longer.
//
// As a BufferOrg it holds Depth lines plus the victim slot.  A store that
// misses a full cache moves the LRU line into the victim slot, and is
// blocked while that slot is still occupied; only the victim retires, so
// the simulator's retire-at-Capacity policy writes each victim back as
// soon as it is parked.
type WriteCache struct {
	lines     []wcLine
	victim    Entry // entry index len(lines)
	hasVictim bool
	retiring  bool
	n         int // valid lines plus the victim
	stamp     uint64
	stats     Stats
	lineMask  uint64

	tagShift  uint // log2(word bytes) + log2(words per entry)
	wordShift uint // log2(word bytes)
	wordsMask int  // words per entry - 1
}

type wcLine struct {
	Entry
	used  uint64
	valid bool
}

// NewWriteCache constructs a write cache of cfg.Depth lines; it panics on
// an invalid Config.
func NewWriteCache(cfg Config) *WriteCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	wordShift := mem.Log2(cfg.Geometry.WordBytes())
	return &WriteCache{
		lines:     make([]wcLine, cfg.Depth),
		lineMask:  FullMask(cfg.Geometry.WordsPerLine()),
		tagShift:  wordShift + mem.Log2(cfg.WordsPerEntry),
		wordShift: wordShift,
		wordsMask: cfg.WordsPerEntry - 1,
	}
}

// Capacity implements BufferOrg: the lines plus the victim slot.
func (w *WriteCache) Capacity() int { return len(w.lines) + 1 }

// Occupancy implements BufferOrg: valid lines plus a parked victim.
func (w *WriteCache) Occupancy() int { return w.n }

// Retiring implements BufferOrg.
func (w *WriteCache) Retiring() bool { return w.retiring }

// HeadAllocCycle implements BufferOrg: the victim is the only entry that
// retires.  It is zero while the slot is empty, when no retirement can
// start.
func (w *WriteCache) HeadAllocCycle() uint64 { return w.victim.AllocCycle }

// Stats implements BufferOrg.  Retirements counts victim writes.
func (w *WriteCache) Stats() Stats { return w.stats }

// ResetStats implements BufferOrg.
func (w *WriteCache) ResetStats() { w.stats = Stats{} }

// FullLineMask implements BufferOrg.
func (w *WriteCache) FullLineMask() uint64 { return w.lineMask }

// EntryTag maps a byte address to its entry tag.
func (w *WriteCache) EntryTag(addr mem.Addr) mem.Addr {
	return addr >> w.tagShift
}

func (w *WriteCache) wordMask(addr mem.Addr) uint64 {
	return 1 << uint(int(addr>>w.wordShift)&w.wordsMask)
}

// AddrOf implements BufferOrg.
func (w *WriteCache) AddrOf(e Entry) mem.Addr {
	return e.Tag << w.tagShift
}

// touch makes a line the most recently used.
func (w *WriteCache) touch(l *wcLine) {
	w.stamp++
	l.used = w.stamp
}

// Store implements BufferOrg: merge on a line hit, fill a free line, or
// move the LRU line into the empty victim slot.  With the victim slot
// busy a miss on a full cache is StoreBlocked and changes nothing.
func (w *WriteCache) Store(addr mem.Addr, cycle uint64) StoreResult {
	tag := w.EntryTag(addr)
	var free, lru *wcLine
	for i := range w.lines {
		l := &w.lines[i]
		if !l.valid {
			if free == nil {
				free = l
			}
			continue
		}
		if l.Tag == tag {
			l.Valid |= w.wordMask(addr)
			w.touch(l)
			w.stats.Merges++
			return StoreMerged
		}
		if lru == nil || l.used < lru.used {
			lru = l
		}
	}
	slot := free
	if slot == nil {
		if w.hasVictim {
			return StoreBlocked
		}
		w.victim, w.hasVictim = lru.Entry, true
		slot = lru
	}
	*slot = wcLine{Entry: Entry{Tag: tag, Valid: w.wordMask(addr), AllocCycle: cycle}, valid: true}
	w.touch(slot)
	w.n++
	w.stats.Allocations++
	return StoreAllocated
}

// Probe implements BufferOrg.  The lines are checked first, and a hit
// refreshes LRU (the write cache services reads, so reads are uses); then
// the victim, which still holds its data while it retires.
func (w *WriteCache) Probe(addr mem.Addr) (idx int, wordValid, hit bool) {
	w.stats.LoadProbes++
	if idx = w.Find(addr); idx < 0 {
		return -1, false, false
	}
	w.stats.LoadHits++
	e := &w.victim
	if idx < len(w.lines) {
		w.touch(&w.lines[idx])
		e = &w.lines[idx].Entry
	}
	return idx, e.Valid&w.wordMask(addr) != 0, true
}

// Find implements BufferOrg.
func (w *WriteCache) Find(addr mem.Addr) int {
	tag := w.EntryTag(addr)
	for i := range w.lines {
		if l := &w.lines[i]; l.valid && l.Tag == tag {
			return i
		}
	}
	if w.hasVictim && w.victim.Tag == tag {
		return len(w.lines)
	}
	return -1
}

// BeginRetire implements BufferOrg: the victim starts its write-back.
func (w *WriteCache) BeginRetire() Entry {
	if !w.hasVictim {
		panic("core: BeginRetire with an empty victim slot")
	}
	if w.retiring {
		panic("core: BeginRetire while a retirement is in flight")
	}
	w.retiring = true
	return w.victim
}

// CompleteRetire implements BufferOrg: the victim slot frees.
func (w *WriteCache) CompleteRetire() {
	if !w.retiring {
		panic("core: CompleteRetire without BeginRetire")
	}
	w.retiring, w.hasVictim = false, false
	w.n--
	w.stats.Retirements++
}

// FlushOne implements BufferOrg.
func (w *WriteCache) FlushOne(idx int) Entry {
	if w.retiring {
		panic("core: FlushOne during an in-flight retirement")
	}
	var e Entry
	switch {
	case idx == len(w.lines) && w.hasVictim:
		e, w.hasVictim = w.victim, false
	case idx >= 0 && idx < len(w.lines) && w.lines[idx].valid:
		e, w.lines[idx].valid = w.lines[idx].Entry, false
	default:
		panic("core: FlushOne of an empty write-cache slot")
	}
	w.n--
	w.stats.Flushes++
	return e
}

// FlushThroughInto implements BufferOrg: a write cache has no ordering
// among its entries, so only the entry itself drains.
func (w *WriteCache) FlushThroughInto(dst []Entry, idx int) []Entry {
	return append(dst, w.FlushOne(idx))
}

// FlushAllInto implements BufferOrg: the victim first, then the lines in
// LRU order (oldest first), appended to dst without allocating.
func (w *WriteCache) FlushAllInto(dst []Entry) []Entry {
	if w.hasVictim {
		dst = append(dst, w.FlushOne(len(w.lines)))
	}
	for w.n > 0 {
		oldest := -1
		for i := range w.lines {
			if w.lines[i].valid && (oldest < 0 || w.lines[i].used < w.lines[oldest].used) {
				oldest = i
			}
		}
		dst = append(dst, w.FlushOne(oldest))
	}
	return dst
}

var _ BufferOrg = (*WriteCache)(nil)
