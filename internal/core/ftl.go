// The FTL organization transplants OpenSSD's write_buffer.c design point
// (SNIPPETS.md) into the paper's stall framework: instead of one FIFO, N
// parallel buffers each hold a FIFO of entries, an incoming store is
// striped to its block's home buffer, the retirement engine always drains
// the *fullest* buffer (most valid sectors, ties broken toward the current
// drain head), and per-entry valid bits track configurable sector granules
// rather than words.  The two axes this opens:
//
//   - numbuffers: striping narrows every scan to one home buffer but a
//     store can now block while the structure is mostly empty — its home
//     buffer is full even though others are not.  Fullest-first victim
//     selection is the countermeasure, draining pressure where it builds.
//   - sectorbits: one valid bit covers 2^sectorbits adjacent words.  The
//     trace's stores are word-granular, so coarse granules are purely
//     conservative: a set bit proves only that *some* word of the granule
//     was written, so read-from-WB can no longer forward (the word itself
//     is unprovable) and a retirement can never prove a full line (the
//     fetch-on-write ablation always charges).  What coarse granules buy
//     is mask SRAM — the area side of the sweep.
//
// With numbuffers=1 and sectorbits=0 every rule above degenerates to the
// single coalescing FIFO, and the simulator's results are byte-identical
// to the fifo organization (TestFTLDegenerateMatchesFIFO).
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// FTLOrg is the OrgSpec for the FTL-style multi-buffer organization.
type FTLOrg struct {
	// NumBuffers is the number of parallel buffers; it must be a power of
	// two that divides the total Depth (each buffer holds Depth/NumBuffers
	// entries).  A block's home buffer is its tag's low bits.
	NumBuffers int
	// SectorBits coarsens valid tracking: one mask bit covers 2^SectorBits
	// adjacent words.  0 is per-word tracking, identical to the FIFO's.
	SectorBits int
}

// OrgName implements OrgSpec.
func (o FTLOrg) OrgName() string { return "ftl" }

// ValidateOrg implements OrgSpec.
func (o FTLOrg) ValidateOrg(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if o.NumBuffers < 1 {
		return fmt.Errorf("core: ftl numbuffers %d < 1", o.NumBuffers)
	}
	if !mem.IsPow2(o.NumBuffers) {
		return fmt.Errorf("core: ftl numbuffers %d is not a power of two", o.NumBuffers)
	}
	if cfg.Depth%o.NumBuffers != 0 {
		return fmt.Errorf("core: ftl numbuffers %d does not divide depth %d",
			o.NumBuffers, cfg.Depth)
	}
	if o.SectorBits < 0 {
		return fmt.Errorf("core: ftl sectorbits %d < 0", o.SectorBits)
	}
	if granule := 1 << uint(o.SectorBits); granule > cfg.WordsPerEntry {
		return fmt.Errorf("core: ftl sector granule %d words exceeds entry width %d",
			granule, cfg.WordsPerEntry)
	}
	return nil
}

// NewOrg implements OrgSpec.
func (o FTLOrg) NewOrg(cfg Config) BufferOrg { return NewFTL(cfg, o) }

// FTLStats are the organization-specific counters behind the shared Stats:
// how well sector-mask coalescing works and how evenly striping spreads
// load across the parallel buffers.
type FTLStats struct {
	// MaskCoalesces counts merges that set at least one new sector bit.
	MaskCoalesces uint64
	// SectorsCoalesced totals the new sector bits those merges set.
	SectorsCoalesced uint64
	// AllocsByBuf counts entry allocations per buffer.
	AllocsByBuf []uint64
	// RetiresByBuf counts autonomous retirements per buffer.
	RetiresByBuf []uint64
}

// FTL is the multi-buffer write-buffer organization.  Storage is one fixed
// array partitioned into NumBuffers rings of perBuf slots each; buffer b's
// ring occupies buf[b*perBuf : (b+1)*perBuf] with its own rotating head.
type FTL struct {
	cfg Config

	buf    []Entry // len == Depth, partitioned per buffer
	heads  []int   // per-buffer ring head index (within the ring)
	counts []int   // per-buffer occupancy
	secs   []int   // per-buffer total valid sector bits (victim metric)
	n      int     // total occupancy

	// cursor is the drain head: the buffer the last retirement came from.
	// Victim selection breaks sector-count ties in ring order starting
	// here, so a drain streak keeps emptying one buffer FIFO-fashion —
	// OpenSSD's head-buffer priority.
	cursor   int
	retiring bool
	retBuf   int // victim buffer of the in-flight retirement

	stats Stats
	x     FTLStats

	perBuf     int
	bufMask    int  // NumBuffers - 1 (power of two)
	sectorBits uint // log2 words per valid granule
	tagShift   uint // addr >> tagShift == entry tag
	wordShift  uint // log2(word bytes)
}

// NewFTL constructs the organization; it panics on an invalid combination
// (use FTLOrg.ValidateOrg first, as with NewBuffer).
func NewFTL(cfg Config, spec FTLOrg) *FTL {
	if err := spec.ValidateOrg(cfg); err != nil {
		panic(err)
	}
	wordsShift := mem.Log2(cfg.WordsPerEntry)
	wordShift := mem.Log2(cfg.Geometry.WordBytes())
	return &FTL{
		cfg:        cfg,
		buf:        make([]Entry, cfg.Depth),
		heads:      make([]int, spec.NumBuffers),
		counts:     make([]int, spec.NumBuffers),
		secs:       make([]int, spec.NumBuffers),
		perBuf:     cfg.Depth / spec.NumBuffers,
		bufMask:    spec.NumBuffers - 1,
		sectorBits: uint(spec.SectorBits),
		tagShift:   wordShift + wordsShift,
		wordShift:  wordShift,
		x: FTLStats{
			AllocsByBuf:  make([]uint64, spec.NumBuffers),
			RetiresByBuf: make([]uint64, spec.NumBuffers),
		},
	}
}

// homeBuf returns the buffer a tag stripes to.
func (f *FTL) homeBuf(tag mem.Addr) int { return int(tag) & f.bufMask }

// slot maps buffer b's FIFO position i (0 = oldest) to its index in buf.
// perBuf need not be a power of two, so wraparound is compare-subtract.
func (f *FTL) slot(b, i int) int {
	j := f.heads[b] + i
	if j >= f.perBuf {
		j -= f.perBuf
	}
	return b*f.perBuf + j
}

// sectorMask returns the valid granule bit for addr.
func (f *FTL) sectorMask(addr mem.Addr) uint64 {
	idx := int(addr>>f.wordShift) & (f.cfg.WordsPerEntry - 1)
	return 1 << uint(idx>>f.sectorBits)
}

// Capacity implements BufferOrg.
func (f *FTL) Capacity() int { return f.cfg.Depth }

// Occupancy implements BufferOrg.
func (f *FTL) Occupancy() int { return f.n }

// Retiring implements BufferOrg.
func (f *FTL) Retiring() bool { return f.retiring }

// Stats implements BufferOrg.
func (f *FTL) Stats() Stats { return f.stats }

// OrgStats returns the organization-specific counters (a copy).
func (f *FTL) OrgStats() FTLStats {
	x := f.x
	x.AllocsByBuf = append([]uint64(nil), f.x.AllocsByBuf...)
	x.RetiresByBuf = append([]uint64(nil), f.x.RetiresByBuf...)
	return x
}

// ResetStats implements BufferOrg.
func (f *FTL) ResetStats() {
	f.stats = Stats{}
	f.x.MaskCoalesces, f.x.SectorsCoalesced = 0, 0
	for i := range f.x.AllocsByBuf {
		f.x.AllocsByBuf[i] = 0
		f.x.RetiresByBuf[i] = 0
	}
}

// FullLineMask implements BufferOrg.  With per-word granules the full-line
// proof is the FIFO's; with coarse granules a set bit proves only that some
// word of the granule was written, so no mask value proves a full line —
// the returned 0 is unreachable (occupied entries always have a bit set).
func (f *FTL) FullLineMask() uint64 {
	if f.sectorBits == 0 {
		return FullMask(f.cfg.Geometry.WordsPerLine())
	}
	return 0
}

// victim returns the buffer the next retirement drains: the one holding
// the most valid sectors, ties broken in ring order starting at the drain
// cursor (OpenSSD's find_fullest_buffer with head-buffer priority).  It
// requires n > 0.
func (f *FTL) victim() int {
	best, bestSecs := -1, -1
	for i := 0; i < len(f.counts); i++ {
		b := f.cursor + i
		if b >= len(f.counts) {
			b -= len(f.counts)
		}
		if f.counts[b] > 0 && f.secs[b] > bestSecs {
			best, bestSecs = b, f.secs[b]
		}
	}
	return best
}

// HeadAllocCycle implements BufferOrg: the age of the entry the next
// retirement would select — the oldest entry of the fullest buffer.
func (f *FTL) HeadAllocCycle() uint64 {
	if f.n == 0 {
		panic("core: HeadAllocCycle of empty organization")
	}
	v := f.victim()
	return f.buf[f.slot(v, 0)].AllocCycle
}

// Store implements BufferOrg.  The scan covers only the home buffer —
// striping guarantees a block's entry can live nowhere else — in FIFO
// order, skipping the entry under retirement (stores cannot merge into an
// entry already on its way to L2, Section 2.2 of the paper).
func (f *FTL) Store(addr mem.Addr, cycle uint64) StoreResult {
	tag := addr >> f.tagShift
	hb := f.homeBuf(tag)
	start := 0
	if f.retiring && f.retBuf == hb {
		start = 1
	}
	for i := start; i < f.counts[hb]; i++ {
		e := &f.buf[f.slot(hb, i)]
		if e.Tag == tag {
			if add := f.sectorMask(addr) &^ e.Valid; add != 0 {
				e.Valid |= add
				f.secs[hb] += bits.OnesCount64(add)
				f.x.MaskCoalesces++
				f.x.SectorsCoalesced += uint64(bits.OnesCount64(add))
			}
			f.stats.Merges++
			return StoreMerged
		}
	}
	if f.counts[hb] == f.perBuf {
		return StoreBlocked
	}
	f.buf[f.slot(hb, f.counts[hb])] = Entry{
		Tag:        tag,
		Valid:      f.sectorMask(addr),
		AllocCycle: cycle,
	}
	f.counts[hb]++
	f.secs[hb]++ // a fresh entry has exactly one granule bit
	f.n++
	f.stats.Allocations++
	f.x.AllocsByBuf[hb]++
	return StoreAllocated
}

// Probe implements BufferOrg.  The home-buffer scan runs oldest-first so
// that when a retiring entry and a younger reallocation share a tag, the
// probe reports the same (older) entry the FIFO organization would.
func (f *FTL) Probe(addr mem.Addr) (idx int, wordValid, hit bool) {
	f.stats.LoadProbes++
	tag := addr >> f.tagShift
	hb := f.homeBuf(tag)
	for i := 0; i < f.counts[hb]; i++ {
		e := f.buf[f.slot(hb, i)]
		if e.Tag == tag {
			f.stats.LoadHits++
			wv := false
			if f.sectorBits == 0 {
				wv = e.Valid&f.sectorMask(addr) != 0
			}
			return hb*f.perBuf + i, wv, true
		}
	}
	return -1, false, false
}

// Find implements BufferOrg.
func (f *FTL) Find(addr mem.Addr) int {
	tag := addr >> f.tagShift
	hb := f.homeBuf(tag)
	for i := 0; i < f.counts[hb]; i++ {
		if f.buf[f.slot(hb, i)].Tag == tag {
			return hb*f.perBuf + i
		}
	}
	return -1
}

// BeginRetire implements BufferOrg: mark the fullest buffer's oldest entry
// as being written to L2.
func (f *FTL) BeginRetire() Entry {
	if f.n == 0 {
		panic("core: BeginRetire on empty organization")
	}
	if f.retiring {
		panic("core: BeginRetire while a retirement is in flight")
	}
	f.retBuf = f.victim()
	f.retiring = true
	return f.buf[f.slot(f.retBuf, 0)]
}

// CompleteRetire implements BufferOrg.
func (f *FTL) CompleteRetire() {
	if !f.retiring {
		panic("core: CompleteRetire without BeginRetire")
	}
	f.retiring = false
	f.x.RetiresByBuf[f.retBuf]++
	f.stats.Retirements++
	f.popHead(f.retBuf)
	// Keep draining where we were: ties now prefer the same buffer, so a
	// streak empties one FIFO before moving on.
	f.cursor = f.retBuf
}

// popHead removes buffer b's oldest entry.
func (f *FTL) popHead(b int) {
	e := &f.buf[f.slot(b, 0)]
	f.secs[b] -= bits.OnesCount64(e.Valid)
	h := f.heads[b] + 1
	if h >= f.perBuf {
		h -= f.perBuf
	}
	f.heads[b] = h
	f.counts[b]--
	f.n--
}

// decode splits an index from Probe/Find into (buffer, FIFO position).
func (f *FTL) decode(idx int) (b, pos int) {
	b, pos = idx/f.perBuf, idx%f.perBuf
	if b < 0 || b >= len(f.counts) || pos >= f.counts[b] {
		panic(fmt.Sprintf("core: index %d outside organization", idx))
	}
	return b, pos
}

// FlushThroughInto implements BufferOrg.  Striping orders only entries of
// the same home buffer, so the entries that must drain before the hit one
// are the ones ahead of it in its own buffer's FIFO — the other buffers
// hold unrelated blocks and keep coalescing.
func (f *FTL) FlushThroughInto(dst []Entry, idx int) []Entry {
	if f.retiring {
		panic("core: FlushThrough during an in-flight retirement")
	}
	b, pos := f.decode(idx)
	for i := 0; i <= pos; i++ {
		dst = append(dst, f.buf[f.slot(b, 0)])
		f.popHead(b)
		f.stats.Flushes++
	}
	return dst
}

// FlushAllInto implements BufferOrg: every buffer drains oldest-first in
// buffer order (the barrier does not care which buffer a block lives in,
// only that all of them reach L2).
func (f *FTL) FlushAllInto(dst []Entry) []Entry {
	if f.retiring {
		panic("core: FlushAll during an in-flight retirement")
	}
	for b := 0; b < len(f.counts); b++ {
		for f.counts[b] > 0 {
			dst = append(dst, f.buf[f.slot(b, 0)])
			f.popHead(b)
			f.stats.Flushes++
		}
	}
	return dst
}

// FlushOne implements BufferOrg: remove exactly the indexed entry,
// shifting the younger entries of its buffer down to preserve FIFO order.
func (f *FTL) FlushOne(idx int) Entry {
	if f.retiring {
		panic("core: FlushOne during an in-flight retirement")
	}
	b, pos := f.decode(idx)
	e := f.buf[f.slot(b, pos)]
	for j := pos; j < f.counts[b]-1; j++ {
		f.buf[f.slot(b, j)] = f.buf[f.slot(b, j+1)]
	}
	f.secs[b] -= bits.OnesCount64(e.Valid)
	f.counts[b]--
	f.n--
	f.stats.Flushes++
	return e
}

// AddrOf implements BufferOrg.
func (f *FTL) AddrOf(e Entry) mem.Addr { return e.Tag << f.tagShift }

// Entries returns a copy of the current entries in writeback enumeration
// order (buffer order, oldest first); for tests and diagnostics.
func (f *FTL) Entries() []Entry {
	out := make([]Entry, 0, f.n)
	for b := 0; b < len(f.counts); b++ {
		for i := 0; i < f.counts[b]; i++ {
			out = append(out, f.buf[f.slot(b, i)])
		}
	}
	return out
}

// BufOccupancies returns the current per-buffer occupancy; for tests,
// diagnostics, and the per-buffer occupancy gauges.
func (f *FTL) BufOccupancies() []int {
	return append([]int(nil), f.counts...)
}

// OrgSamples implements OrgMetrics: coalescing effectiveness and the
// per-buffer striping balance.
func (f *FTL) OrgSamples(dst []OrgSample) []OrgSample {
	dst = append(dst,
		OrgSample{Name: "mask_coalesces", Buf: -1, Value: f.x.MaskCoalesces},
		OrgSample{Name: "sectors_coalesced", Buf: -1, Value: f.x.SectorsCoalesced},
	)
	for b := range f.counts {
		dst = append(dst,
			OrgSample{Name: "buf_allocations", Buf: b, Value: f.x.AllocsByBuf[b]},
			OrgSample{Name: "buf_retirements", Buf: b, Value: f.x.RetiresByBuf[b]},
			OrgSample{Name: "buf_occupancy", Buf: b, Gauge: true, Value: uint64(f.counts[b])},
		)
	}
	return dst
}

var (
	_ BufferOrg  = (*FTL)(nil)
	_ OrgSpec    = FTLOrg{}
	_ OrgMetrics = (*FTL)(nil)
)
