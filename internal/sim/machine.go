package sim

import (
	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Machine is one simulated processor + memory hierarchy.  Create with New,
// feed references with Run or Step, read results with Counters.
type Machine struct {
	cfg Config

	l1 *cache.Cache
	l2 *cache.Cache // nil: perfect L2
	// org is the write stage the retirement engine drains: the paper's
	// FIFO, the ftl multi-buffer structure, a registered custom
	// organization, or Jouppi's write cache (Section 5).
	org core.BufferOrg
	// rb is org when it is the ring FIFO, else nil.  The wb* accessors in
	// wborg.go check it so the overwhelmingly common organization calls
	// concrete methods the compiler can inline instead of dispatching
	// through the interface on every memory reference.
	rb *core.Buffer
	// lineMask is org.FullLineMask(), cached for l2WritePenalty.
	lineMask uint64
	// be is the drain-side backend every block write (retirement, hazard
	// flush, barrier drain) is timed through: flat reproduces the paper's
	// fixed latency, banked adds DRAM-style bank/row contention, fenced
	// adds differentiated barrier costs.  Block writes happen orders of
	// magnitude less often than instructions, so the interface dispatch
	// stays off the issue hot path.
	be backend.Backend

	c stats.Counters

	clock     uint64 // current cycle; the next instruction issues here
	clockBase uint64 // cycle at the last ResetStats, so Counters reports measured time only

	// L2-port state.  The port serves one transaction at a time: a
	// write-buffer retirement/flush or a load's L2 read.  Reads have
	// priority for *starting* (read-bypassing) but never preempt a write
	// already under way.
	portBusyUntil uint64

	// Background-retirement state for the lazy drain.
	retireDone      uint64 // completion cycle of the in-flight retirement
	lastRetireStart uint64 // when the previous retirement began (fixed-rate)
	stateChangedAt  uint64 // when buffer occupancy/head last changed

	irand *rng.RNG // I-miss draw for the Section 4.3 extension

	// Flattened retirement policy.  New resolves the concrete paper
	// policies (RetireAt, FixedRate, Eager) into an enum plus parameters so
	// the hot path's nextRetire is an integer switch; a policy type the
	// switch does not know keeps the full interface call (retCustom).
	retKind     retKind
	retN        int
	retTimeout  uint64
	retInterval uint64

	// flushBuf is the scratch slice hazard flushes and membar drains
	// collect entries into; its capacity is the buffer depth, so steady
	// state never allocates.
	flushBuf []core.Entry

	// batch is RunGenerator's reference buffer, allocated on first use and
	// reused across warm-up and measurement.  batchPos/batchLen mark refs
	// Filled but not yet executed: RunGeneratorN stops on an instruction
	// budget, which with run-length-encoded Exec refs rarely falls on a
	// batch boundary, so the tail carries over to the next Run call.
	batch    []trace.Ref
	batchPos int
	batchLen int
	// pendingRun is the unexecuted remainder of a run-length-encoded Exec
	// ref split by RunGeneratorN's instruction budget.
	pendingRun uint64

	// Superscalar issue accounting: at width W, only every W-th
	// instruction closes an issue cycle; base is that instruction's
	// clock contribution (0 or 1) for the current Step.
	issueSlot int
	base      uint64

	// occHist[k] counts stores that found k entries occupied (before the
	// store itself took effect) — the distribution behind the paper's
	// headroom argument.  Index len-1 means "write stage full" (for a write
	// cache: every line dirty and a victim still pending).
	occHist []uint64

	// retLat buckets the allocation→writeback latency of every autonomous
	// retirement (log2 cycles): how long stores sit in the buffer before
	// reaching L2, the lifetime behind the paper's aging/drain discussion.
	// Updated once per retirement, never per instruction, so the issue hot
	// path is untouched; exported through PublishMetrics.  Machines are
	// single-goroutine, so the non-atomic histogram suffices.
	retLat metrics.LocalHistogram
}

// retKind discriminates the flattened retirement policies.
type retKind uint8

const (
	retCustom retKind = iota // unrecognised policy: dispatch the interface
	retAtN                   // RetireAt without aging
	retAtNAge                // RetireAt with an aging timeout
	retFixed                 // FixedRate
	retEager                 // Eager (retire-at-1)
)

// New builds a machine, validating the configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg: cfg,
		l1:  cache.New(cfg.L1),
	}
	switch {
	case cfg.WriteCacheDepth > 0:
		// The write cache replaces the write buffer wholesale: it always
		// services reads, and retire-at-Capacity writes a victim back as
		// soon as one is parked (the lines alone never retire).
		wc := cfg.WB
		wc.Depth = cfg.WriteCacheDepth
		m.org = core.NewWriteCache(wc)
		m.cfg.Hazard = core.ReadFromWB
		m.cfg.Retire = core.RetireAt{N: m.org.Capacity()}
	case cfg.Org != nil:
		m.org = cfg.Org.NewOrg(cfg.WB)
	default:
		m.org = core.NewBuffer(cfg.WB)
	}
	if cfg.L2 != nil {
		m.l2 = cache.New(*cfg.L2)
	}
	if cfg.IMissRate > 0 {
		m.irand = rng.New(cfg.ISeed)
	}
	if cfg.Backend != nil {
		m.be = cfg.Backend.NewBackend(cfg.WB.Geometry)
	} else {
		m.be = backend.NewFlat()
	}
	m.rb, _ = m.org.(*core.Buffer)
	m.lineMask = m.org.FullLineMask()
	m.occHist = make([]uint64, m.org.Capacity()+1)
	m.flushBuf = make([]core.Entry, 0, m.org.Capacity())
	switch p := m.cfg.Retire.(type) {
	case core.Eager:
		m.retKind = retEager
	case core.RetireAt:
		m.retN, m.retTimeout = p.N, p.Timeout
		if p.Timeout > 0 {
			m.retKind = retAtNAge
		} else {
			m.retKind = retAtN
		}
	case core.FixedRate:
		m.retKind = retFixed
		m.retInterval = p.Interval
	default:
		m.retKind = retCustom
	}
	return m, nil
}

// OccupancyHistogram returns, for each occupancy level k, how many stores
// arrived to find k entries already occupied.  The final bucket is the
// full-buffer case; the shape of the tail is what the paper's "4 to 6
// entries of headroom" rule is about.
func (m *Machine) OccupancyHistogram() []uint64 {
	out := make([]uint64, len(m.occHist))
	copy(out, m.occHist)
	return out
}

// MeanOccupancy returns the mean write-stage occupancy observed by stores.
func (m *Machine) MeanOccupancy() float64 {
	var sum, n uint64
	for k, c := range m.occHist {
		sum += uint64(k) * c
		n += c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// MustNew is New for statically known-good configurations.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Clock returns the current cycle.
func (m *Machine) Clock() uint64 { return m.clock }

// Counters returns the run's statistics, with buffer-event counts folded
// in.  After a ResetStats, only post-reset activity is reported.
func (m *Machine) Counters() stats.Counters {
	c := m.c
	c.Cycles = m.clock - m.clockBase
	ws := m.org.Stats()
	c.Retirements = ws.Retirements
	c.FlushedEntries = ws.Flushes
	return c
}

// ResetStats zeroes every statistic — machine counters, cache counters,
// and write-buffer event counts — without touching microarchitectural
// state (cache contents, buffer occupancy, port timing).  Experiments call
// it after a warm-up phase so that measurements follow the paper's
// whole-execution methodology, where cold-start misses are a vanishing
// fraction, rather than being dominated by first-touch traffic.
func (m *Machine) ResetStats() {
	m.c = stats.Counters{}
	m.clockBase = m.clock
	m.l1.ResetStats()
	if m.l2 != nil {
		m.l2.ResetStats()
	}
	m.org.ResetStats()
	m.be.ResetStats()
	for i := range m.occHist {
		m.occHist[i] = 0
	}
	m.retLat.Reset()
}

// WBStats exposes the write stage's event counters (allocations, merges,
// …).
func (m *Machine) WBStats() core.Stats { return m.org.Stats() }

// BackendStats exposes the drain-side backend's event counters (bank
// conflicts, row hits/misses, overlap cycles) — all zero under the flat
// backend.
func (m *Machine) BackendStats() backend.Stats { return m.be.Stats() }

// L1Stats exposes the L1 data cache's counters.
func (m *Machine) L1Stats() cache.Stats { return m.l1.Stats() }

// L2Stats exposes the finite L2's counters; the zero value is returned for
// a perfect L2.
func (m *Machine) L2Stats() cache.Stats {
	if m.l2 == nil {
		return cache.Stats{}
	}
	return m.l2.Stats()
}

// WBStoreHitRate returns the fraction of stores that coalesced into an
// existing entry — the paper's Table 5 "WB hit rate".
func (m *Machine) WBStoreHitRate() float64 {
	if m.c.Stores == 0 {
		return 1
	}
	return float64(m.WBStats().Merges) / float64(m.c.Stores)
}

// Run consumes the stream to exhaustion, one reference at a time.  It is
// the simple reference path; throughput-sensitive callers use RunGenerator,
// which produces bit-identical results (TestRunGeneratorMatchesRun).
func (m *Machine) Run(s trace.Stream) {
	for {
		r, ok := s.Next()
		if !ok {
			return
		}
		m.Step(r)
	}
}

// batchSize is the fused hot path's granularity: references per Fill call.
// 4096 × 16-byte refs is 64 KiB — large enough to amortise the generator
// dispatch to nothing, small enough to stay cache-resident.
const batchSize = 4096

// RunGenerator consumes the generator to exhaustion through the batched
// hot path.  Timing, counters, and histograms are bit-identical to Run on
// the decoded sequence; only the execution strategy differs.
func (m *Machine) RunGenerator(g trace.Generator) {
	if m.pendingRun > 0 {
		m.drainPending(m.pendingRun)
		m.pendingRun = 0
	}
	buf := m.batchBuf()
	if m.batchPos < m.batchLen {
		m.StepBatch(buf[m.batchPos:m.batchLen])
		m.batchPos, m.batchLen = 0, 0
	}
	for {
		n := g.Fill(buf)
		if n == 0 {
			return
		}
		m.StepBatch(buf[:n])
	}
}

// RunGeneratorN executes at most n dynamic instructions from g (or fewer
// if the generator is exhausted first) — the warm-up primitive.  A batch
// tail past the budget, including the remainder of a run-length-encoded
// Exec ref the budget split, is retained and executed by the machine's
// next RunGenerator[N] call, so a warm-up/measure split consumes exactly
// the same decoded sequence the per-reference path does.
func (m *Machine) RunGeneratorN(g trace.Generator, n uint64) {
	if m.pendingRun > 0 {
		k := m.pendingRun
		if k > n {
			k = n
		}
		m.drainPending(k)
		m.pendingRun -= k
		n -= k
		if n == 0 {
			return
		}
	}
	buf := m.batchBuf()
	if m.batchPos < m.batchLen {
		done := m.stepBatchN(buf[m.batchPos:m.batchLen], n)
		n -= done.instrs
		m.batchPos += done.refs
		if m.batchPos < m.batchLen || n == 0 {
			return
		}
		m.batchPos, m.batchLen = 0, 0
	}
	for n > 0 {
		want := uint64(len(buf))
		if want > n {
			want = n
		}
		got := g.Fill(buf[:want])
		if got == 0 {
			return
		}
		done := m.stepBatchN(buf[:got], n)
		n -= done.instrs
		if done.refs < got {
			m.batchPos, m.batchLen = done.refs, got
			return
		}
	}
}

// drainPending executes k plain-execution instructions left over from a
// budget-split Exec run.  With a statistical I-cache every instruction
// must take its I-miss draw, so the closed form only applies without one
// (the same rule StepBatch follows).
func (m *Machine) drainPending(k uint64) {
	if m.irand == nil {
		m.execRun(k)
		return
	}
	for ; k > 0; k-- {
		m.Step(trace.Ref{Kind: trace.Exec})
	}
}

func (m *Machine) batchBuf() []trace.Ref {
	if m.batch == nil {
		m.batch = make([]trace.Ref, batchSize)
	}
	return m.batch
}

// StepBatch executes a batch of references with run-length-batched
// execution: consecutive Exec references — including run-length-encoded
// ones (Ref.InstrCount) — advance the clock in closed form (one addition
// instead of one Step each), and memory references take the same code
// paths Step takes.  With a statistical I-cache configured every
// instruction draws an I-miss sample, so the closed form does not apply
// and the batch falls back to per-instruction stepping.
func (m *Machine) StepBatch(refs []trace.Ref) {
	if m.irand != nil {
		for _, r := range refs {
			if r.Kind == trace.Exec {
				for k := r.InstrCount(); k > 0; k-- {
					m.Step(trace.Ref{Kind: trace.Exec})
				}
				continue
			}
			m.Step(r)
		}
		return
	}
	for i := 0; i < len(refs); {
		r := refs[i]
		if r.Kind == trace.Exec {
			k := r.InstrCount()
			j := i + 1
			for j < len(refs) && refs[j].Kind == trace.Exec {
				k += refs[j].InstrCount()
				j++
			}
			m.execRun(k)
			i = j
			continue
		}
		m.c.Instructions++
		m.base = m.issueCycle()
		switch r.Kind {
		case trace.Load:
			m.load(r.Addr)
		case trace.Store:
			m.store(r.Addr)
		case trace.Membar:
			m.membar()
		case trace.Release:
			m.release()
		}
		i++
	}
}

// batchDone reports how much of a bounded batch stepBatchN executed.
type batchDone struct {
	refs   int    // refs fully consumed from the slice
	instrs uint64 // dynamic instructions executed (≤ the budget)
}

// stepBatchN executes refs until limit dynamic instructions have run or
// the slice is exhausted.  The longest in-budget prefix goes through
// StepBatch at full speed — warm-up is a quarter of every job, so it must
// not fall back to per-reference stepping — and a run-length-encoded Exec
// ref crossing the budget is consumed whole, the remainder stashed in
// m.pendingRun for the next Run call.
func (m *Machine) stepBatchN(refs []trace.Ref, limit uint64) batchDone {
	var done batchDone
	i := 0
	var instrs uint64
	for i < len(refs) {
		k := refs[i].InstrCount()
		if instrs+k > limit {
			break
		}
		instrs += k
		i++
	}
	m.StepBatch(refs[:i])
	done.refs, done.instrs = i, instrs
	if i < len(refs) && instrs < limit {
		// refs[i] straddles the budget.  Only a run-length-encoded Exec
		// ref can: every other kind counts one instruction and would have
		// fit inside the prefix.
		left := limit - instrs
		if m.irand != nil {
			for kk := left; kk > 0; kk-- {
				m.Step(trace.Ref{Kind: trace.Exec})
			}
		} else {
			m.execRun(left)
		}
		m.pendingRun = refs[i].InstrCount() - left
		done.refs++
		done.instrs = limit
	}
	return done
}

// execRun retires k consecutive plain-execution instructions in closed
// form.  It must leave exactly the state k Exec Steps would: Instructions
// and the clock advance, and at issue width W the slot position wraps with
// one BaseCycle per completed issue group.  The lazy drain needs no
// catch-up here for the same reason Step's default case needs none.
func (m *Machine) execRun(k uint64) {
	m.c.Instructions += k
	if m.cfg.IssueWidth <= 1 {
		m.c.BaseCycles += k
		m.clock += k
		return
	}
	w := uint64(m.cfg.IssueWidth)
	closes := (uint64(m.issueSlot) + k) / w
	m.issueSlot = int((uint64(m.issueSlot) + k) % w)
	m.c.BaseCycles += closes
	m.clock += closes
}

// Step executes one dynamic instruction.
func (m *Machine) Step(r trace.Ref) {
	m.c.Instructions++
	m.base = m.issueCycle()
	if m.irand != nil {
		m.ifetch()
	}
	switch r.Kind {
	case trace.Load:
		m.load(r.Addr)
	case trace.Store:
		m.store(r.Addr)
	case trace.Membar:
		m.membar()
	case trace.Release:
		m.release()
	default:
		// Plain execution: no memory interaction.  The lazy drain makes
		// catching retirement state up here unnecessary — the next memory
		// instruction replays it identically.
		m.clock += m.base
	}
}

// issueCycle returns this instruction's base clock contribution: 1 at the
// paper's single-issue width, and 1 for every W-th instruction at width W
// (the rest share the cycle, which is how Section 4.3's "store density
// rises with issue width" reaches the write buffer).
func (m *Machine) issueCycle() uint64 {
	if m.cfg.IssueWidth <= 1 {
		m.c.BaseCycles++
		return 1
	}
	m.issueSlot++
	if m.issueSlot >= m.cfg.IssueWidth {
		m.issueSlot = 0
		m.c.BaseCycles++
		return 1
	}
	return 0
}

// ─── background retirement ──────────────────────────────────────────────

// nextRetire is the flattened form of RetirementPolicy.NextStart for the
// policies New recognised, falling back to the interface for custom ones.
// It must return exactly what m.cfg.Retire.NextStart(occ, headAlloc,
// m.lastRetireStart, now) would; TestFlattenedPoliciesMatchInterface checks
// the equivalence exhaustively.
func (m *Machine) nextRetire(occ int, headAlloc, now uint64) (uint64, bool) {
	switch m.retKind {
	case retEager:
		if occ >= 1 {
			return now, true
		}
		return 0, false
	case retAtN:
		if occ >= m.retN {
			return now, true
		}
		return 0, false
	case retAtNAge:
		if occ >= m.retN {
			return now, true
		}
		if occ >= 1 {
			due := headAlloc + m.retTimeout
			if due < now {
				due = now
			}
			return due, true
		}
		return 0, false
	case retFixed:
		if occ == 0 {
			return 0, false
		}
		due := m.lastRetireStart + m.retInterval
		if due < now {
			due = now
		}
		return due, true
	}
	return m.cfg.Retire.NextStart(occ, headAlloc, m.lastRetireStart, now)
}

// drainTo replays every autonomous retirement that would have started
// before the target cycle, and completes any in-flight retirement that
// finishes by then.  It leaves buffer and port state exactly as a
// cycle-by-cycle simulation would at the target cycle.
func (m *Machine) drainTo(target uint64) {
	for {
		if m.wbRetiring() {
			if m.retireDone > target {
				return
			}
			m.completeRetire()
			continue
		}
		occ := m.wbOccupancy()
		if occ == 0 {
			return
		}
		start0, ok := m.nextRetire(occ, m.wbHeadAlloc(), m.stateChangedAt)
		if !ok {
			return
		}
		start := maxU(start0, m.portBusyUntil)
		if start >= target {
			return
		}
		m.beginRetire(start)
	}
}

// beginRetire starts writing the FIFO head to L2 at the given cycle.  The
// L2 state change (allocation, inclusion invalidation) is applied here;
// because retirements are always replayed in logical-time order before any
// instruction that could observe them, the ordering is exact.
func (m *Machine) beginRetire(start uint64) {
	e := m.wbBeginRetire()
	addr := m.wbAddrOf(e)
	lat := m.cfg.writeLat() + m.l2WritePenalty(addr, e.Valid)
	m.lastRetireStart = start
	m.retireDone = m.be.Write(addr, start, lat)
	m.portBusyUntil = m.retireDone
	if m.retireDone > e.AllocCycle {
		m.retLat.Observe(m.retireDone - e.AllocCycle)
	}
}

// completeRetire frees the in-flight head.
func (m *Machine) completeRetire() {
	m.wbCompleteRetire()
	m.stateChangedAt = m.retireDone
}

// l2WritePenalty applies a buffer entry's write to the L2 model and returns
// the extra cycles beyond the base write latency: a partial-line write that
// misses a finite L2 must fetch-merge the line from memory first.  A fully
// valid line overwrites without fetching.
func (m *Machine) l2WritePenalty(addr mem.Addr, valid uint64) uint64 {
	if m.l2 == nil {
		return 0
	}
	hit, evicted, hasEvict := m.l2.WriteAllocate(addr)
	if hasEvict {
		m.l1.Invalidate(evicted.Addr) // strict inclusion (Table 7 note)
	}
	if !m.cfg.ChargeWriteMissFetch || hit || valid == m.lineMask {
		return 0
	}
	return m.cfg.MemLat
}

// l2Fill brings addr's line into a finite L2 after a demand-read miss,
// maintaining inclusion.
func (m *Machine) l2Fill(addr mem.Addr) {
	evicted, hasEvict := m.l2.Fill(addr)
	if hasEvict {
		m.l1.Invalidate(evicted.Addr)
	}
}

// ─── stores ──────────────────────────────────────────────────────────────

func (m *Machine) store(addr mem.Addr) {
	t := m.clock
	m.drainTo(t)
	m.c.Stores++
	// Write-through, write-around: update L1 only if the line is present;
	// the data always enters the write stage.
	m.l1.WriteHit(addr)
	m.occHist[m.wbOccupancy()]++
	switch m.wbStore(addr, t) {
	case core.StoreAllocated:
		m.stateChangedAt = t
		m.clock = t + m.base
		return
	case core.StoreMerged:
		m.clock = t + m.base
		return
	}
	// Buffer-full stall (Section 2.3) until retirements free an entry the
	// store can use.  The FIFO needs exactly one freed entry; a striped
	// organization may need several retirements before one lands in the
	// store's home buffer, so the wait loops — every cycle of it is still
	// one buffer-full stall.  A write cache waits for its victim slot.
	m.c.BlockedStores++
	tFree := m.waitForFree(t)
	for m.wbStore(addr, tFree) == core.StoreBlocked {
		if m.rb != nil {
			panic("sim: store still blocked after an entry was freed")
		}
		tFree = m.waitForFree(tFree)
	}
	m.stateChangedAt = tFree
	stall := tFree - t
	m.c.AddStall(stats.BufferFull, stall)
	m.clock = t + m.base + stall
}

// waitForFree advances time until a retirement completes, freeing an entry
// for a blocked store, and returns that cycle.
func (m *Machine) waitForFree(t uint64) uint64 {
	for {
		if m.wbRetiring() {
			done := maxU(m.retireDone, t)
			m.completeRetire()
			return done
		}
		occ := m.wbOccupancy()
		start0, ok := m.nextRetire(occ, m.wbHeadAlloc(), maxU(m.stateChangedAt, t))
		if !ok {
			if m.rb != nil {
				// A FIFO blocks only when totally full, and Config.Validate
				// guarantees the policy retires from a full buffer.
				panic("sim: buffer full but retirement policy refuses to retire")
			}
			// A striped organization can block a store while total occupancy
			// is still below the policy's high-water mark (the home buffer is
			// full, others are not).  Hardware must drain anyway to accept
			// the store, so the retirement is forced rather than policy-led.
			start0 = maxU(m.stateChangedAt, t)
		}
		m.beginRetire(maxU(start0, m.portBusyUntil))
	}
}

// ─── loads ───────────────────────────────────────────────────────────────

func (m *Machine) load(addr mem.Addr) {
	t := m.clock
	m.c.Loads++
	if m.l1.Read(addr) {
		// An L1 hit never consults the write buffer, so the lazy
		// retirement replay can stay deferred: the next event that
		// observes buffer state (a store, a miss, a membar) replays the
		// identical retirement sequence from the same recorded state.
		// Retirements also never touch L1 contents, so the hit test
		// itself cannot depend on the deferred replay.
		m.c.L1LoadHits++
		m.clock = t + m.base
		return
	}
	m.drainTo(t)

	idx, wordValid, wbHit := m.wbProbe(addr)
	if wbHit {
		m.c.HazardEvents++
		if m.cfg.Hazard == core.ReadFromWB {
			if wordValid {
				// Forwarded straight from the buffer at L1-hit speed;
				// no stall, no L2 access, no L1 fill (Section 2.2).
				m.c.WBReadHits++
				m.clock = t + m.base
				return
			}
			// Block active but word invalid: the L2 access proceeds and
			// its fill merges with the buffer's words at no extra cost.
			m.readMissService(t, addr)
			return
		}
		m.hazardFlushService(t, addr, idx)
		return
	}
	m.readMissService(t, addr)
}

// readMissService performs a plain L1 load-miss: wait for the port if a
// write holds it (L2-read-access stall), read from L2 (charged to the
// miss), fill L1.
func (m *Machine) readMissService(t uint64, addr mem.Addr) {
	now := t
	if m.wbRetiring() {
		// An under-way write cannot be preempted; the wait is an
		// L2-read-access stall.
		now = m.retireDone
		m.completeRetire()
	}
	// UltraSPARC-style priority switch: when the buffer is too full the
	// write buffer keeps the port until occupancy drops below the
	// threshold; the read's wait is still charged as L2-read-access.
	if k := m.cfg.WriteThreshold; k > 0 {
		for m.wbOccupancy() >= k {
			start0, ok := m.nextRetire(m.wbOccupancy(),
				m.wbHeadAlloc(), maxU(m.stateChangedAt, now))
			if !ok {
				break
			}
			m.beginRetire(maxU(start0, maxU(m.portBusyUntil, now)))
			now = m.retireDone
			m.completeRetire()
		}
	}
	raStall := now - t
	missCycles, extraRA := m.l2Read(addr, now)
	raStall += extraRA
	m.c.AddStall(stats.L2ReadAccess, raStall)
	m.c.MissCycles += missCycles
	m.clock = t + m.base + raStall + missCycles
}

// l2Read performs a load's L2 access starting at the given cycle (the port
// must be free then) and fills the missing line into L1.  It returns the
// cycles charged to the miss itself and any extra read wait caused by a
// retirement overrunning the memory window of an L2 miss.
func (m *Machine) l2Read(addr mem.Addr, start uint64) (missCycles, extraRA uint64) {
	m.portBusyUntil = start + m.cfg.L2ReadLat
	missCycles = m.cfg.L2ReadLat
	if m.l2 == nil || m.l2.Read(addr) {
		m.l1.Fill(addr)
		return missCycles, 0
	}
	// L2 miss: the line comes from main memory.  Fill both levels first so
	// that a window retirement evicting this very line invalidates it
	// everywhere, keeping inclusion intact.
	m.l2Fill(addr)
	m.l1.Fill(addr)
	fillTime := m.portBusyUntil + m.cfg.MemLat
	missCycles += m.cfg.MemLat
	// During the memory window the L2 port is idle, so the write buffer
	// may retire entries into it (Section 4.2); a retirement still under
	// way when the fill returns delays the fill, and that wait is the
	// write buffer's fault.
	m.drainTo(fillTime)
	if m.portBusyUntil > fillTime {
		extraRA = m.portBusyUntil - fillTime
	}
	return missCycles, extraRA
}

// hazardFlushService resolves a load hazard under one of the flushing
// policies.  Every cycle from the load until the required entries have been
// written to L2 is a load-hazard stall; the L2 read that follows is charged
// to the miss (Section 2.3).
func (m *Machine) hazardFlushService(t uint64, addr mem.Addr, idx int) {
	now := t
	if m.wbRetiring() {
		// Let the under-way transaction complete first (Section 2.2).
		now = m.retireDone
		m.completeRetire()
		// The retirement may have been the hit entry itself; re-find it.
		idx = m.wbFind(addr)
	}

	flushed := m.flushBuf[:0]
	switch m.cfg.Hazard {
	case core.FlushFull:
		flushed = m.wbFlushAllInto(flushed)
	case core.FlushPartial:
		if idx >= 0 {
			flushed = m.wbFlushThroughInto(flushed, idx)
		}
	case core.FlushItemOnly:
		if idx >= 0 {
			flushed = append(flushed, m.wbFlushOne(idx))
		}
	default:
		panic("sim: hazardFlushService with non-flushing policy")
	}

	portStart := maxU(now, m.portBusyUntil)
	for _, e := range flushed {
		addr := m.wbAddrOf(e)
		portStart = m.be.Write(addr, portStart, m.cfg.writeLat()+m.l2WritePenalty(addr, e.Valid))
	}
	m.portBusyUntil = portStart
	if len(flushed) > 0 {
		m.stateChangedAt = portStart
	}
	hazardStall := portStart - t
	m.c.AddStall(stats.LoadHazard, hazardStall)

	missCycles, extraRA := m.l2Read(addr, portStart)
	m.c.AddStall(stats.L2ReadAccess, extraRA)
	m.c.MissCycles += missCycles
	m.clock = t + m.base + hazardStall + extraRA + missCycles
}

// ─── memory barriers (multiprocessor-ordering extension) ─────────────────

// membar stalls until every buffered store has been written to L2: the
// under-way retirement completes, then all remaining entries are flushed
// in FIFO order.  A full fence additionally waits for the backend's drain
// horizon (bank service tails) plus any full-fence surcharge.  The wait
// is charged to the membar-drain category so the ordering cost of
// coalescing/read-bypassing is visible separately.
func (m *Machine) membar() {
	t := m.clock
	portStart := m.fenceDrain(t)
	done := m.be.Drained(portStart) + m.be.FenceExtra(true)
	stall := done - t
	m.c.AddStall(stats.MembarDrain, stall)
	m.clock = t + m.base + stall
}

// release is the store-release barrier: it drains the buffer like membar
// but only orders the handoff of prior stores to the memory system, so it
// skips the backend's Drained horizon and pays the (cheaper) release
// surcharge.  Its wait is charged to release-drain, kept separate from
// membar-drain so fence-heavy workloads show what the weaker semantics
// save.
func (m *Machine) release() {
	t := m.clock
	portStart := m.fenceDrain(t)
	stall := portStart + m.be.FenceExtra(false) - t
	m.c.AddStall(stats.ReleaseDrain, stall)
	m.clock = t + m.base + stall
}

// fenceDrain empties the write stage for a barrier: the under-way
// retirement completes, then every remaining entry is flushed in
// writeback order through the backend.  It returns the cycle the last
// handoff completes (the port is free and the buffer empty).
func (m *Machine) fenceDrain(t uint64) uint64 {
	m.drainTo(t)
	now := t
	if m.wbRetiring() {
		now = m.retireDone
		m.completeRetire()
	}
	portStart := maxU(now, m.portBusyUntil)
	for _, e := range m.wbFlushAllInto(m.flushBuf[:0]) {
		addr := m.wbAddrOf(e)
		portStart = m.be.Write(addr, portStart, m.cfg.writeLat()+m.l2WritePenalty(addr, e.Valid))
	}
	m.portBusyUntil = portStart
	m.stateChangedAt = portStart
	return portStart
}

// ─── instruction fetch (Section 4.3 extension) ───────────────────────────

// ifetch models a statistical I-cache in front of every instruction: with
// probability IMissRate the fetch reads a line from L2, waiting for any
// under-way buffer write (the would-be "L2-I-fetch" stall category).
func (m *Machine) ifetch() {
	if !m.irand.Bool(m.cfg.IMissRate) {
		return
	}
	t := m.clock
	m.drainTo(t)
	now := t
	if m.wbRetiring() {
		now = m.retireDone
		m.completeRetire()
		m.c.AddStall(stats.L2IFetch, now-t)
	}
	// Instruction lines are assumed resident in L2 (the paper's unified
	// L2 never misses on instructions in any configuration studied).
	m.portBusyUntil = now + m.cfg.L2ReadLat
	m.c.IFetchMissCycles += m.cfg.L2ReadLat
	m.clock = now + m.cfg.L2ReadLat
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
