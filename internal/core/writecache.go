package core

import (
	"fmt"

	"repro/internal/mem"
)

// WriteCache is the alternative write-stage organisation Jouppi proposed
// and the paper discusses in its related work: instead of a FIFO queue
// that autonomously retires entries, a small fully associative cache of
// dirty blocks with LRU replacement.  Data leaves only when an allocation
// must evict a victim (or an external event forces a drain), so a write
// cache maximises coalescing and write-traffic aggregation at the price of
// keeping data un-written for much longer.
//
// Like Buffer, WriteCache is pure bookkeeping; the simulator handles the
// victim's journey to L2 (it parks evicted entries in a one-entry victim
// buffer that retires eagerly).
type WriteCache struct {
	cfg     Config
	entries []wcEntry
	stamp   uint64
	stats   Stats

	wordsShift uint
	tagShift   uint // log2(word bytes) + wordsShift
	wordShift  uint // log2(word bytes)
}

type wcEntry struct {
	Entry
	used  uint64
	valid bool
}

// NewWriteCache constructs a write cache; it panics on an invalid Config.
func NewWriteCache(cfg Config) *WriteCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	wordsShift := mem.Log2(cfg.WordsPerEntry)
	wordShift := mem.Log2(cfg.Geometry.WordBytes())
	return &WriteCache{
		cfg:        cfg,
		entries:    make([]wcEntry, cfg.Depth),
		wordsShift: wordsShift,
		tagShift:   wordShift + wordsShift,
		wordShift:  wordShift,
	}
}

// Stats returns the event counters.  Retirements counts evictions here.
func (w *WriteCache) Stats() Stats { return w.stats }

// ResetStats zeroes the event counters without touching contents.
func (w *WriteCache) ResetStats() { w.stats = Stats{} }

// EntryTag maps a byte address to its entry tag.
func (w *WriteCache) EntryTag(addr mem.Addr) mem.Addr {
	return addr >> w.tagShift
}

func (w *WriteCache) wordMask(addr mem.Addr) uint64 {
	idx := int(addr>>w.wordShift) & (w.cfg.WordsPerEntry - 1)
	return 1 << uint(idx)
}

// Occupancy returns the number of valid entries.
func (w *WriteCache) Occupancy() int {
	n := 0
	for i := range w.entries {
		if w.entries[i].valid {
			n++
		}
	}
	return n
}

// IsEmpty reports whether the cache holds no dirty data.
func (w *WriteCache) IsEmpty() bool { return w.Occupancy() == 0 }

// Store applies a store: merge on a tag hit, allocate into a free slot, or
// evict the LRU entry to make room.  The returned victim (when hasVictim)
// must be written to the next level by the caller.
func (w *WriteCache) Store(addr mem.Addr, cycle uint64) (victim Entry, hasVictim bool) {
	tag := w.EntryTag(addr)
	var free, lru *wcEntry
	for i := range w.entries {
		e := &w.entries[i]
		if !e.valid {
			if free == nil {
				free = e
			}
			continue
		}
		if e.Tag == tag {
			e.Valid |= w.wordMask(addr)
			w.stamp++
			e.used = w.stamp
			w.stats.Merges++
			return Entry{}, false
		}
		if lru == nil || e.used < lru.used {
			lru = e
		}
	}
	slot := free
	if slot == nil {
		victim, hasVictim = lru.Entry, true
		w.stats.Retirements++ // an eviction is the write cache's "retirement"
		slot = lru
	}
	w.stamp++
	*slot = wcEntry{
		Entry: Entry{Tag: tag, Valid: w.wordMask(addr), AllocCycle: cycle},
		used:  w.stamp,
		valid: true,
	}
	w.stats.Allocations++
	return victim, hasVictim
}

// Probe checks whether a load's block is dirty in the cache, returning
// whether the needed word itself is valid.  A hit refreshes LRU state (the
// write cache services reads, so reads are uses).
func (w *WriteCache) Probe(addr mem.Addr) (wordValid, hit bool) {
	w.stats.LoadProbes++
	tag := w.EntryTag(addr)
	for i := range w.entries {
		e := &w.entries[i]
		if e.valid && e.Tag == tag {
			w.stats.LoadHits++
			w.stamp++
			e.used = w.stamp
			return e.Valid&w.wordMask(addr) != 0, true
		}
	}
	return false, false
}

// DrainAll removes and returns every dirty entry in LRU order (oldest
// first), for memory barriers and external flushes.
func (w *WriteCache) DrainAll() []Entry {
	out := make([]Entry, 0, len(w.entries))
	for {
		var oldest *wcEntry
		for i := range w.entries {
			e := &w.entries[i]
			if e.valid && (oldest == nil || e.used < oldest.used) {
				oldest = e
			}
		}
		if oldest == nil {
			return out
		}
		out = append(out, oldest.Entry)
		w.stats.Flushes++
		oldest.valid = false
	}
}

// AddrOf reconstructs the base byte address of an entry's block.
func (w *WriteCache) AddrOf(e Entry) mem.Addr {
	return e.Tag << w.tagShift
}

// String summarises occupancy for diagnostics.
func (w *WriteCache) String() string {
	return fmt.Sprintf("write-cache(%d/%d dirty)", w.Occupancy(), w.cfg.Depth)
}
