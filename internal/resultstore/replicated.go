package resultstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Replicated is the fault-tolerant store: the same content-addressed
// envelope format as Store, mirrored across N directory replicas.  It is
// the drain side of the platform grown a failure domain: producers keep
// retiring results at full speed while corruption, bitrot, and whole-
// replica loss are absorbed and healed behind the same Get/Put surface.
//
//   - Put writes every replica (atomic write-then-rename per replica); the
//     write succeeds if at least one replica accepted it, and the scrubber
//     heals the stragglers later.
//   - Get is quorum-less: the first healthy copy wins.  A corrupt copy is
//     quarantined and — read-repair — rewritten from the healthy copy that
//     answered, so hot keys heal on access without waiting for a scrub.
//   - A background scrubber (Options.ScrubInterval) walks the union of all
//     replicas on a jittered interval, verifies every copy against its
//     PR 5 checksum envelope, quarantines corrupt copies into each
//     replica's quarantine/ subdirectory, and repairs corrupt or missing
//     copies from any healthy replica.  An entry with no healthy copy
//     anywhere is counted unrecoverable and left to re-simulation — the
//     one cost determinism makes merely a cache miss, never data loss.
//
// The sim_store_scrub_* / sim_store_repair_* series expose every decision;
// docs/SERVING.md's disk-fault runbook is built on them.  All methods are
// safe for concurrent use, including concurrently with a running scrub.
type Replicated struct {
	replicas []*Store
	mem      *lru
	logf     func(format string, args ...any)

	hitsMem  *metrics.Counter
	hitsRepl *metrics.Counter
	misses   *metrics.Counter
	degraded *metrics.Counter

	scrubRuns     *metrics.Counter
	scrubEntries  *metrics.Counter
	scrubCorrupt  *metrics.Counter
	scrubMissing  *metrics.Counter
	scrubUnrecov  *metrics.Counter
	repairs       *metrics.Counter
	repairFails   *metrics.Counter
	replicasGauge *metrics.Gauge

	scrubMu sync.Mutex // one scrub pass at a time

	lastScrub struct {
		sync.Mutex
		report ScrubReport
		when   time.Time
		passes int
	}

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// OpenReplicated opens (creating if needed) a replicated store over the
// given directory replicas.  Options are shared with Open; ScrubInterval,
// when positive, starts the background scrubber (stop it with Close).  At
// least one non-empty directory is required — a single "replica" is legal
// and degrades to a scrubbed Store with no repair source.
func OpenReplicated(dirs []string, opts Options) (*Replicated, error) {
	if len(dirs) == 0 {
		return nil, errors.New("resultstore: replicated store needs at least one directory")
	}
	if opts.MemoryEntries < 1 {
		opts.MemoryEntries = 256
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r := &Replicated{
		mem:  newLRU(opts.MemoryEntries),
		logf: opts.Logf,
		done: make(chan struct{}),

		hitsMem:  reg.Counter(metrics.Label("resultstore_hits_total", "tier", "memory")),
		hitsRepl: reg.Counter(metrics.Label("resultstore_hits_total", "tier", "disk")),
		misses:   reg.Counter("resultstore_misses_total"),
		degraded: reg.Counter("sim_store_put_degraded_total"),

		scrubRuns:     reg.Counter("sim_store_scrub_runs_total"),
		scrubEntries:  reg.Counter("sim_store_scrub_entries_total"),
		scrubCorrupt:  reg.Counter("sim_store_scrub_corrupt_total"),
		scrubMissing:  reg.Counter("sim_store_scrub_missing_total"),
		scrubUnrecov:  reg.Counter("sim_store_scrub_unrecoverable_total"),
		repairs:       reg.Counter("sim_store_repair_total"),
		repairFails:   reg.Counter("sim_store_repair_failures_total"),
		replicasGauge: reg.Gauge("sim_store_replicas"),
	}
	for _, dir := range dirs {
		if dir == "" {
			return nil, errors.New("resultstore: replica directories must be non-empty paths")
		}
		s, err := Open(dir, Options{
			// Replicas are disk tiers only; the shared memory tier lives on
			// the Replicated wrapper (capacity 1 is the Store minimum).
			MemoryEntries: 1,
			Metrics:       reg,
			Logf:          opts.Logf,
			Disk:          opts.Disk,
		})
		if err != nil {
			return nil, err
		}
		r.replicas = append(r.replicas, s)
	}
	r.replicasGauge.Set(float64(len(r.replicas)))
	if opts.ScrubInterval > 0 {
		r.wg.Add(1)
		go r.scrubLoop(opts.ScrubInterval)
	}
	return r, nil
}

// OpenSpec opens the store a CLI `-store` flag describes: one directory
// opens a plain Store, a comma-separated list opens a Replicated store
// mirroring across the listed directories.  Empty spec → memory-only
// Store.  This is the one parser wbserve, wbexp, and wbopt share, so
// `-store a` and `-store a,b,c` plug into the same stack everywhere.
func OpenSpec(spec string, opts Options) (Interface, error) {
	if !strings.Contains(spec, ",") {
		return Open(spec, opts)
	}
	var dirs []string
	for _, d := range strings.Split(spec, ",") {
		if d = strings.TrimSpace(d); d != "" {
			dirs = append(dirs, d)
		}
	}
	return OpenReplicated(dirs, opts)
}

// Close stops the background scrubber and waits for an in-flight pass to
// finish.  Idempotent.
func (r *Replicated) Close() error {
	r.closeOnce.Do(func() { close(r.done) })
	r.wg.Wait()
	return nil
}

// Get returns the stored payload for key: memory tier first, then the
// replicas in order — the first healthy copy wins.  Replicas that answered
// corrupt (quarantined by their Store) or missing before the healthy copy
// are read-repaired from it on the spot.
func (r *Replicated) Get(key string) ([]byte, bool) {
	if p, ok := r.mem.get(key); ok {
		r.hitsMem.Inc()
		return p, true
	}
	for i, s := range r.replicas {
		payload, cfgHash, ok := s.getEntry(key)
		if !ok {
			continue
		}
		// Read-repair every replica the lookup already passed over.
		for _, broken := range r.replicas[:i] {
			if err := broken.putDisk(key, cfgHash, payload); err != nil {
				r.repairFails.Inc()
				if r.logf != nil {
					r.logf("resultstore: read-repair of %s into %s failed: %v", key, broken.Dir(), err)
				}
			} else {
				r.repairs.Inc()
			}
		}
		r.mem.put(key, cfgHash, payload)
		r.hitsRepl.Inc()
		return payload, true
	}
	r.misses.Inc()
	return nil, false
}

// Put mirrors the entry across every replica.  It succeeds when at least
// one replica accepted the write — degraded writes are counted and logged,
// and the scrubber (or read-repair) completes the mirror once the sick
// replica recovers.  Only a total failure is an error: with zero durable
// copies the caller's "it is stored" assumption would be a lie.  The
// shared memory tier is populated even then (the measurement is correct
// and hot), so callers must key durability off the returned error, never
// off a subsequent Get answering.
func (r *Replicated) Put(key, cfgHash string, payload []byte) error {
	r.mem.put(key, cfgHash, payload)
	okCount := 0
	var firstErr error
	for _, s := range r.replicas {
		if err := s.putDisk(key, cfgHash, payload); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if r.logf != nil {
				r.logf("resultstore: replica %s rejected put %s: %v", s.Dir(), key, err)
			}
			continue
		}
		okCount++
	}
	if okCount == 0 {
		return fmt.Errorf("resultstore: put %s failed on every replica: %w", key, firstErr)
	}
	if okCount < len(r.replicas) {
		r.degraded.Inc()
	}
	return nil
}

// ScrubReport is one scrub pass's findings.
type ScrubReport struct {
	// Entries is the number of distinct entries examined (the union of all
	// replicas' directories).
	Entries int `json:"entries"`
	// Healthy counts entries whose every replica copy verified clean.
	Healthy int `json:"healthy"`
	// CorruptCopies counts replica copies that failed checksum or envelope
	// validation and were quarantined.
	CorruptCopies int `json:"corrupt_copies"`
	// MissingCopies counts replica copies that were absent (a wiped or
	// newly added replica shows up here until healed).
	MissingCopies int `json:"missing_copies"`
	// Repaired counts copies rewritten from a healthy replica this pass.
	Repaired int `json:"repaired"`
	// RepairFailures counts repair writes that themselves failed (disk
	// full, injected ENOSPC); the next pass retries them.
	RepairFailures int `json:"repair_failures"`
	// Unrecoverable counts entries with no healthy copy in any replica;
	// their next Get misses and the job re-simulates.
	Unrecoverable int `json:"unrecoverable"`
}

// scrubStatus classifies one replica copy of one entry.
type scrubStatus int

const (
	scrubOK scrubStatus = iota
	scrubAbsent
	scrubBad // unparsable, checksum mismatch, mis-addressed, or unreadable
)

// checkEntry reads one entry file by its store-relative name and
// classifies it without side effects.
func (s *Store) checkEntry(rel string) (entry, scrubStatus) {
	abs := filepath.Join(s.dir, rel)
	data, err := s.disk.ReadFile(abs)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return entry{}, scrubAbsent
		}
		return entry{}, scrubBad // unreadable: quarantine and repair over it
	}
	var e entry
	if jerr := json.Unmarshal(data, &e); jerr != nil || Checksum(e.CfgHash, e.Payload) != e.Checksum || s.path(e.Key) != abs {
		return entry{}, scrubBad
	}
	return e, scrubOK
}

// Scrub runs one synchronous scrub pass over the union of every replica's
// entries: verify every copy, quarantine corrupt ones, repair corrupt and
// missing copies from any healthy replica.  Passes are serialised; Get/Put
// remain safe (and answer from healthy copies) while a pass runs.
func (r *Replicated) Scrub() ScrubReport {
	r.scrubMu.Lock()
	defer r.scrubMu.Unlock()
	r.scrubRuns.Inc()

	// The union of entry names across replicas: a copy missing everywhere
	// is invisible (nothing to repair from), which is exactly right.
	union := map[string]bool{}
	for _, s := range r.replicas {
		names, err := s.entryNames()
		if err != nil && r.logf != nil {
			r.logf("resultstore: scrub scan of %s: %v", s.Dir(), err)
		}
		for _, n := range names {
			union[n] = true
		}
	}

	var rep ScrubReport
	for rel := range union {
		rep.Entries++
		r.scrubEntries.Inc()

		copies := make([]scrubStatus, len(r.replicas))
		var healthy *entry
		for i, s := range r.replicas {
			e, st := s.checkEntry(rel)
			copies[i] = st
			if st == scrubOK && healthy == nil {
				healthy = &e
			}
		}

		allOK := true
		for i, st := range copies {
			s := r.replicas[i]
			switch st {
			case scrubOK:
				continue
			case scrubBad:
				allOK = false
				rep.CorruptCopies++
				r.scrubCorrupt.Inc()
				s.corrupt.Inc()
				s.quarantine(filepath.Join(s.dir, rel), errors.New("scrub: invalid entry"))
			case scrubAbsent:
				allOK = false
				rep.MissingCopies++
				r.scrubMissing.Inc()
			}
			if healthy == nil {
				continue
			}
			if err := s.putDisk(healthy.Key, healthy.CfgHash, healthy.Payload); err != nil {
				rep.RepairFailures++
				r.repairFails.Inc()
				if r.logf != nil {
					r.logf("resultstore: scrub repair of %s into %s failed: %v", rel, s.Dir(), err)
				}
			} else {
				rep.Repaired++
				r.repairs.Inc()
			}
		}
		if allOK {
			rep.Healthy++
		}
		if healthy == nil {
			rep.Unrecoverable++
			r.scrubUnrecov.Inc()
			if r.logf != nil {
				r.logf("resultstore: scrub: %s has no healthy copy in any replica; it will re-simulate on demand", rel)
			}
		}
	}

	r.lastScrub.Lock()
	r.lastScrub.report = rep
	r.lastScrub.when = time.Now()
	r.lastScrub.passes++
	r.lastScrub.Unlock()

	if r.logf != nil && (rep.CorruptCopies > 0 || rep.MissingCopies > 0 || rep.Unrecoverable > 0) {
		r.logf("resultstore: scrub pass: %d entries, %d corrupt copies quarantined, %d missing, %d repaired, %d unrecoverable",
			rep.Entries, rep.CorruptCopies, rep.MissingCopies, rep.Repaired, rep.Unrecoverable)
	}
	return rep
}

// LastScrub reports the most recent pass's findings, when it ran, and how
// many passes have completed — the admin status endpoint's scrub block.
func (r *Replicated) LastScrub() (rep ScrubReport, when time.Time, passes int) {
	r.lastScrub.Lock()
	defer r.lastScrub.Unlock()
	return r.lastScrub.report, r.lastScrub.when, r.lastScrub.passes
}

// scrubLoop runs Scrub on a jittered interval until Close.  The jitter
// (±20%) keeps a fleet of processes sharing replica directories from
// synchronising their scan I/O.
func (r *Replicated) scrubLoop(interval time.Duration) {
	defer r.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		d := interval + time.Duration((rng.Float64()-0.5)*0.4*float64(interval))
		select {
		case <-r.done:
			return
		case <-time.After(d):
			r.Scrub()
		}
	}
}

// Verify runs one synchronous scrub pass and reports it in Store.Verify's
// (ok, corrupt) shape: ok is the number of entries left with a healthy
// copy, corrupt the number of replica copies quarantined.  This is what
// POST /admin/store/verify calls.
func (r *Replicated) Verify() (ok, corrupt int, err error) {
	rep := r.Scrub()
	return rep.Entries - rep.Unrecoverable, rep.CorruptCopies, nil
}

// EvictHash removes every entry carrying the given machconf hash from the
// memory tier (surgically) and from every replica.  Returns the total
// number of copies removed across replicas.
func (r *Replicated) EvictHash(cfgHash string) (int, error) {
	r.mem.evictHash(cfgHash)
	total := 0
	var firstErr error
	for _, s := range r.replicas {
		n, err := s.EvictHash(cfgHash)
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// Prune applies the entry bound once, centrally: a single victim set is
// computed over the union of every replica's entries — each entry aged by
// the NEWEST copy any replica holds — and that same set is removed from
// every replica.  Pruning each replica independently looks equivalent but
// is not: repair and read-repair rewrites reset copy mtimes per replica, so
// independent passes sort entries differently, each replica keeps a
// different survivor set, and the scrubber then faithfully "heals" every
// replica's victims back from the others — the bound never converges and
// prune+scrub ping-pong forever.  One deterministic victim set (oldest
// max-mtime first, entry name as the tie-break) keeps the replicas mirrors
// of each other, which is the invariant the scrubber assumes.  Returns the
// total copies removed across replicas.
func (r *Replicated) Prune(maxEntries int) (int, error) {
	if maxEntries < 0 {
		return 0, nil
	}
	// Serialise with the scrubber: a pass walking the union while prune
	// deletes from under it would count the victims missing and repair them
	// straight back from a replica prune had not reached yet.
	r.scrubMu.Lock()
	defer r.scrubMu.Unlock()

	newest := map[string]int64{} // rel name → newest copy mtime anywhere
	for _, s := range r.replicas {
		err := s.scanRel(func(rel string, mod int64) {
			if cur, ok := newest[rel]; !ok || mod > cur {
				newest[rel] = mod
			}
		})
		if err != nil {
			return 0, err
		}
	}
	if len(newest) <= maxEntries {
		return 0, nil
	}
	type aged struct {
		rel string
		mod int64
	}
	all := make([]aged, 0, len(newest))
	for rel, mod := range newest {
		all = append(all, aged{rel, mod})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].mod != all[j].mod {
			return all[i].mod < all[j].mod
		}
		return all[i].rel < all[j].rel
	})
	victims := make([]string, len(all)-maxEntries)
	for i := range victims {
		victims[i] = all[i].rel
	}
	total := 0
	for _, s := range r.replicas {
		total += s.removeEntries(victims)
	}
	if r.logf != nil && total > 0 {
		r.logf("resultstore: pruned %d entries (%d copies) down to bound %d", len(victims), total, maxEntries)
	}
	return total, nil
}

// Stats reports the widest replica's disk figures (replicas converge on
// the same contents; the max is the least surprising single number while
// one of them is healing) plus the shared memory tier.  Per-replica truth
// is ReplicaStats.
func (r *Replicated) Stats() (diskEntries int, diskBytes int64, memEntries int) {
	for _, s := range r.replicas {
		n, b, _ := s.Stats()
		if n > diskEntries {
			diskEntries = n
		}
		if b > diskBytes {
			diskBytes = b
		}
	}
	return diskEntries, diskBytes, r.mem.len()
}

// ReplicaStat is one replica's view for the admin status endpoint.
type ReplicaStat struct {
	Dir         string `json:"dir"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Quarantined int    `json:"quarantined"`
}

// ReplicaStats reports every replica's entry count, byte size, and
// quarantine population.
func (r *Replicated) ReplicaStats() []ReplicaStat {
	out := make([]ReplicaStat, len(r.replicas))
	for i, s := range r.replicas {
		n, b, _ := s.Stats()
		out[i] = ReplicaStat{Dir: s.Dir(), Entries: n, Bytes: b, Quarantined: s.Quarantined()}
	}
	return out
}
