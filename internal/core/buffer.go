// Package core implements the paper's primary contribution: a coalescing
// write buffer with configurable depth, width, retirement order and policy,
// and load-hazard policy.
//
// The buffer itself is pure bookkeeping — entries, tags, per-word valid
// bits, FIFO order, and the "head is being retired" flag.  All *timing*
// (when retirements start, how long the L2 port is busy, how many cycles a
// stalled instruction waits) lives in internal/sim, which drives the buffer
// through the methods defined here.  Keeping time out of this package makes
// every policy decision unit-testable in isolation.
//
// Storage is a fixed ring sized at construction: the FIFO head is a
// rotating index and a retirement frees the head by advancing it, so no
// entry ever moves.  Every per-instruction operation — tag scan, merge,
// allocate, probe — walks the n occupied slots through a wraparound index
// with zero heap allocation.  (The original slice-append implementation
// re-allocated its backing array every few retirements, and the interim
// shift-down-on-retire layout spent more time in memmove than in the tag
// scans themselves; both showed up in PR 6's profile.)
package core

import (
	"fmt"

	"repro/internal/mem"
)

// Entry is one write-buffer slot: an address-aligned group of words with a
// tag and per-word valid bits, exactly as described in Section 2.2 of the
// paper.
type Entry struct {
	// Tag identifies the entry's block: the address right-shifted by the
	// entry width (line tag for cache-line-wide entries, word tag for the
	// non-coalescing width-1 configuration).
	Tag mem.Addr
	// Valid has bit i set when word i of the entry holds fresh data.
	Valid uint64
	// AllocCycle is the cycle at which the entry was created; the aging
	// retirement extension (21064/21164 behaviour) uses it.
	AllocCycle uint64
}

// FullMask returns the valid mask of a completely written entry of w words.
func FullMask(w int) uint64 { return (1 << uint(w)) - 1 }

// Config describes a write buffer.
type Config struct {
	// Depth is the number of entries ("4-deep", "12-deep", …).
	Depth int
	// WordsPerEntry is the entry width in words.  The paper's coalescing
	// buffers are cache-line wide (4 words of 8 bytes); a non-coalescing
	// buffer has width 1.
	WordsPerEntry int
	// Geometry supplies the word/line layout used to derive tags and word
	// masks from byte addresses.
	Geometry mem.Geometry
}

// DefaultConfig is the paper's baseline geometry: 4 entries, cache-line
// wide (Table 2).
func DefaultConfig() Config {
	return Config{Depth: 4, WordsPerEntry: mem.WordsPerLine, Geometry: mem.DefaultGeometry}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Depth < 1 {
		return fmt.Errorf("core: depth %d < 1", c.Depth)
	}
	if c.WordsPerEntry < 1 || c.WordsPerEntry > 64 {
		return fmt.Errorf("core: words per entry %d outside [1,64]", c.WordsPerEntry)
	}
	if c.WordsPerEntry > c.Geometry.WordsPerLine() {
		return fmt.Errorf("core: entry width %d words exceeds line width %d",
			c.WordsPerEntry, c.Geometry.WordsPerLine())
	}
	if c.Geometry.WordsPerLine()%c.WordsPerEntry != 0 {
		return fmt.Errorf("core: entry width %d words does not divide line width %d",
			c.WordsPerEntry, c.Geometry.WordsPerLine())
	}
	return nil
}

// Stats counts buffer-level events.  Cycle-denominated figures live in the
// simulator's stall counters; these are pure event counts.
type Stats struct {
	Allocations uint64 // stores that created a new entry
	Merges      uint64 // stores that coalesced into an existing entry ("WB hits")
	Retirements uint64 // entries written to L2 by the buffer's own policy
	Flushes     uint64 // entries written to L2 because a load hazard forced it
	LoadProbes  uint64 // L1 load misses that checked the buffer
	LoadHits    uint64 // probes that found their block active
}

// Buffer is the write buffer.  The backing array is a ring: buf[head] is
// the FIFO head — the next entry to retire — and the n occupied slots
// follow it with wraparound.  At most the head can be in the middle of
// retirement (retirement order is FIFO, Table 2), tracked by the retiring
// flag.
type Buffer struct {
	cfg      Config
	buf      []Entry // fixed backing, len == cfg.Depth
	head     int     // index of the FIFO head in buf
	n        int     // occupied slots: buf[head], buf[head+1 mod Depth], …
	retiring bool
	stats    Stats

	wordsShift uint // log2(WordsPerEntry); tag = addr >> (wordShift + wordsShift)
	tagShift   uint // log2(word bytes) + wordsShift, precomputed for EntryTag/AddrOf
	wordShift  uint // log2(word bytes), precomputed for wordMask
}

// slot maps FIFO position i (0 = head) to its index in buf.  Depth need
// not be a power of two (the paper sweeps 12-deep buffers), so wraparound
// is a compare-and-subtract rather than a mask; i is always < Depth.
func (b *Buffer) slot(i int) int {
	j := b.head + i
	if j >= len(b.buf) {
		j -= len(b.buf)
	}
	return j
}

// NewBuffer constructs a write buffer; it panics on an invalid Config.
func NewBuffer(cfg Config) *Buffer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	wordsShift := mem.Log2(cfg.WordsPerEntry)
	wordShift := mem.Log2(cfg.Geometry.WordBytes())
	return &Buffer{
		cfg:        cfg,
		buf:        make([]Entry, cfg.Depth),
		wordsShift: wordsShift,
		tagShift:   wordShift + wordsShift,
		wordShift:  wordShift,
	}
}

// Stats returns a copy of the event counters.
func (b *Buffer) Stats() Stats { return b.stats }

// ResetStats zeroes the event counters without touching contents.
func (b *Buffer) ResetStats() { b.stats = Stats{} }

// EntryTag maps a byte address to its entry tag.  With line-wide entries
// this is the line tag; with width-1 entries it is the word tag, so two
// stores coalesce only when they hit the same word.
func (b *Buffer) EntryTag(addr mem.Addr) mem.Addr {
	return addr >> b.tagShift
}

// wordMask returns the in-entry valid bit for addr.
func (b *Buffer) wordMask(addr mem.Addr) uint64 {
	idx := int(addr>>b.wordShift) & (b.cfg.WordsPerEntry - 1)
	return 1 << uint(idx)
}

// Occupancy returns the number of valid entries, including one mid-retirement.
func (b *Buffer) Occupancy() int { return b.n }

// IsEmpty reports whether the buffer holds no entries.
func (b *Buffer) IsEmpty() bool { return b.n == 0 }

// Retiring reports whether the FIFO head is currently being written to L2.
func (b *Buffer) Retiring() bool { return b.retiring }

// Entries returns a copy of the current entries in FIFO order (head first);
// intended for tests and diagnostics.
func (b *Buffer) Entries() []Entry {
	out := make([]Entry, b.n)
	for i := 0; i < b.n; i++ {
		out[i] = b.buf[b.slot(i)]
	}
	return out
}

// Head returns the FIFO head entry.  It panics when empty, because callers
// must consult Occupancy first (the simulator always does).
func (b *Buffer) Head() Entry {
	if b.n == 0 {
		panic("core: Head of empty buffer")
	}
	return b.buf[b.head]
}

// FindMerge returns the index of an entry the store to addr may coalesce
// into, or -1.  Per Section 2.2, stores cannot merge into the entry being
// retired, but may update any other entry while a retirement is under way.
func (b *Buffer) FindMerge(addr mem.Addr) int {
	tag := b.EntryTag(addr)
	start := 0
	if b.retiring {
		start = 1
	}
	for i := start; i < b.n; i++ {
		if b.buf[b.slot(i)].Tag == tag {
			return i
		}
	}
	return -1
}

// Store applies a store to the buffer: it merges when possible, allocates
// when a slot is free, and otherwise reports failure so the simulator can
// charge a buffer-full stall and retry after a retirement completes.
// The returned kind tells the caller which path was taken.
type StoreResult uint8

const (
	// StoreMerged means the store coalesced into an existing entry.
	StoreMerged StoreResult = iota
	// StoreAllocated means the store created a new entry.
	StoreAllocated
	// StoreBlocked means the buffer was full and the store must wait.
	StoreBlocked
)

// Store attempts to insert the store at addr at the given cycle.
func (b *Buffer) Store(addr mem.Addr, cycle uint64) StoreResult {
	if i := b.FindMerge(addr); i >= 0 {
		b.buf[b.slot(i)].Valid |= b.wordMask(addr)
		b.stats.Merges++
		return StoreMerged
	}
	if b.n == b.cfg.Depth {
		return StoreBlocked
	}
	b.buf[b.slot(b.n)] = Entry{
		Tag:        b.EntryTag(addr),
		Valid:      b.wordMask(addr),
		AllocCycle: cycle,
	}
	b.n++
	b.stats.Allocations++
	return StoreAllocated
}

// Probe checks whether an L1 load miss to addr hits in the buffer — the
// load-hazard detection of Section 2.2.  A hazard occurs when the *block*
// is active, even if the needed word is not valid (the L2 copy is stale
// either way).  The retiring head counts: its data is still in the buffer.
// It returns the FIFO index of the hit entry and whether the needed word
// itself is valid (read-from-WB can only forward when it is).
func (b *Buffer) Probe(addr mem.Addr) (idx int, wordValid, hit bool) {
	b.stats.LoadProbes++
	tag := b.EntryTag(addr)
	for i := 0; i < b.n; i++ {
		j := b.slot(i)
		if b.buf[j].Tag == tag {
			b.stats.LoadHits++
			return i, b.buf[j].Valid&b.wordMask(addr) != 0, true
		}
	}
	return -1, false, false
}

// Find returns the FIFO index of the entry holding addr's block, or -1.
// Unlike Probe it records no statistics; the simulator uses it to re-locate
// a hazard's entry after an in-flight retirement completes.
func (b *Buffer) Find(addr mem.Addr) int {
	tag := b.EntryTag(addr)
	for i := 0; i < b.n; i++ {
		if b.buf[b.slot(i)].Tag == tag {
			return i
		}
	}
	return -1
}

// BeginRetire marks the FIFO head as being written to L2.  It panics when
// the buffer is empty or a retirement is already in flight; the simulator's
// port arbitration makes those states unreachable.
func (b *Buffer) BeginRetire() Entry {
	if b.n == 0 {
		panic("core: BeginRetire on empty buffer")
	}
	if b.retiring {
		panic("core: BeginRetire while a retirement is in flight")
	}
	b.retiring = true
	return b.buf[b.head]
}

// CompleteRetire frees the head entry whose write to L2 has finished.
func (b *Buffer) CompleteRetire() {
	if !b.retiring {
		panic("core: CompleteRetire without BeginRetire")
	}
	b.retiring = false
	b.head = b.slot(1)
	b.n--
	b.stats.Retirements++
}

// AbandonRetire clears the in-flight flag without freeing the entry.  No
// paper policy needs it, but tests exercising illegal sequences do.
func (b *Buffer) AbandonRetire() { b.retiring = false }

// FlushPrefixInto removes entries [0, n) in FIFO order, appending them to
// dst and counting them as flushes.  It is the allocation-free form of
// FlushPrefix: the simulator passes a scratch slice it owns, so a load
// hazard on the hot path flushes without touching the heap.  Callers must
// have waited for any in-flight retirement to complete first (the paper
// lets an under-way transaction finish).
func (b *Buffer) FlushPrefixInto(dst []Entry, n int) []Entry {
	if b.retiring {
		panic("core: FlushPrefix during an in-flight retirement")
	}
	if n < 0 || n > b.n {
		panic(fmt.Sprintf("core: FlushPrefix(%d) with occupancy %d", n, b.n))
	}
	if first := len(b.buf) - b.head; n <= first {
		dst = append(dst, b.buf[b.head:b.head+n]...)
	} else {
		dst = append(dst, b.buf[b.head:]...)
		dst = append(dst, b.buf[:n-first]...)
	}
	b.head = b.slot(n)
	b.n -= n
	b.stats.Flushes += uint64(n)
	return dst
}

// FlushPrefix removes entries [0, n) in FIFO order, counting them as
// flushes, and returns them in a fresh slice.
func (b *Buffer) FlushPrefix(n int) []Entry {
	return b.FlushPrefixInto(make([]Entry, 0, n), n)
}

// FlushAllInto removes every entry (the flush-full policy), appending to
// dst without allocating.
func (b *Buffer) FlushAllInto(dst []Entry) []Entry { return b.FlushPrefixInto(dst, b.n) }

// FlushAll removes every entry (the flush-full policy).
func (b *Buffer) FlushAll() []Entry { return b.FlushPrefix(b.n) }

// FlushOne removes only the entry at FIFO index i (the flush-item-only
// policy), preserving the order of the rest.
func (b *Buffer) FlushOne(i int) Entry {
	if b.retiring {
		panic("core: FlushOne during an in-flight retirement")
	}
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("core: FlushOne(%d) with occupancy %d", i, b.n))
	}
	e := b.buf[b.slot(i)]
	for j := i; j < b.n-1; j++ {
		b.buf[b.slot(j)] = b.buf[b.slot(j+1)]
	}
	b.n--
	b.stats.Flushes++
	return e
}

// AddrOf reconstructs the base byte address of an entry's block, for
// presenting to the L2 model.
func (b *Buffer) AddrOf(e Entry) mem.Addr {
	return e.Tag << b.tagShift
}
