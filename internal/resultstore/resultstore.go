// Package resultstore is the platform's content-addressed result store:
// a durable map from the canonical simulation key — `bench|n|machconf-hash`,
// the same string the wbserve LRU keys on — to the finished measurement's
// JSON payload.  It is also what makes a killed CLI sweep resumable:
// dispatch.Cached puts each finished job before returning it, so a rerun
// over the same directory simulates only the missing jobs.
//
// Every simulation in this repository is a pure function of that key (the
// workload suite is deterministic and the machconf hash covers the whole
// machine), so a stored result is exactly what a re-execution would produce
// and may be shared freely: across requests, across tenants, across process
// restarts, and across the wbserve / wbexp / wbopt binaries.  The store is
// how "no simulation is ever paid for twice" becomes a property of the
// deployment rather than of one process's memory.
//
// Layout and integrity.  Entries live under the store root as
// `<2-hex>/<64-hex>.json`, where the hex digits are the SHA-256 of the key
// (content addressing keeps arbitrary key bytes out of file names and
// spreads directories).  Each file is a JSON envelope carrying the key, the
// machine's canonical machconf hash, the payload, and a checksum in the
// PR 5 result-integrity format (hex SHA-256 over `hash\npayload`, the same
// construction as dispatch.Checksum — asserted against it by test).  Reads
// verify the checksum and the embedded key before returning; a corrupt
// entry counts as a miss, is quarantined into the root's `quarantine/`
// subdirectory (out of the lookup path, preserved for inspection), and the
// affected job simply re-simulates.  Writes are write-then-rename with an
// fsync in between, so a torn write can never be read back as a valid
// entry.
//
// A bounded in-memory LRU tier fronts the disk tier, preserving the O(1)
// repeated-lookup behaviour the old wbserve cache provided.  Open with an
// empty directory path for a memory-only store (the old behaviour exactly).
//
// Replication.  OpenReplicated (replicated.go) mirrors the same envelope
// format across N directory replicas with first-healthy-copy-wins reads,
// read-repair, and a background scrubber that detects bitrot and heals
// replicas from each other — the store survives disk corruption and whole
// replica loss without re-simulating anything.
//
// docs/SERVING.md is the operator guide: sizing, garbage collection
// (Prune), replication, scrubbing, and the cache-poisoning and disk-fault
// runbooks built on the admin API.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Key renders the canonical store key for one simulation: the benchmark
// name, the dynamic instruction count, and the machine's canonical machconf
// content hash, joined the way the wbserve result cache has always keyed.
func Key(bench string, n uint64, cfgHash string) string {
	return fmt.Sprintf("%s|%d|%s", bench, n, cfgHash)
}

// Checksum is the entry-integrity sum: the hex SHA-256 of the canonical
// machconf hash, a newline, and the payload bytes.  This is byte-for-byte
// the PR 5 wire-integrity format (dispatch.Checksum); reusing it means one
// attestation construction protects a measurement at rest and in flight,
// and the test suite pins the two implementations equal.
func Checksum(cfgHash string, payload []byte) string {
	h := sha256.New()
	h.Write([]byte(cfgHash))
	h.Write([]byte{'\n'})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}

// QuarantineDir is the subdirectory of a store root that holds quarantined
// corrupt entries (renamed with a ".corrupt" suffix so they never match the
// entry scan).
const QuarantineDir = "quarantine"

// entry is the on-disk envelope, one JSON object per file.
type entry struct {
	V        int             `json:"v"`
	Key      string          `json:"key"`
	CfgHash  string          `json:"config_hash"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// Disk is the store's filesystem seam: every entry read and every atomic
// entry write goes through it, so deterministic disk faults — bitrot, torn
// writes, ENOSPC, read errors — can be injected from the outside
// (internal/faultline's DiskInjector implements this interface
// structurally).  The zero value of a store uses the real filesystem.
type Disk interface {
	// ReadFile returns the file's bytes, os.ReadFile semantics.
	ReadFile(path string) ([]byte, error)
	// WriteFile atomically publishes data at path: temp file in the final
	// directory, fsync, rename.
	WriteFile(path string, data []byte) error
}

// osDisk is the real filesystem.
type osDisk struct{}

func (osDisk) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osDisk) WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// KV is the minimal Get/Put surface the dispatch layer consumes
// (dispatch.Cached); both Store and Replicated satisfy it.
type KV interface {
	Get(key string) ([]byte, bool)
	Put(key, cfgHash string, payload []byte) error
}

// Interface is the full store surface the serving layer consumes: KV plus
// the maintenance operations the wbserve admin API exposes.  Store and
// Replicated both implement it, so `-store dir` and `-store dirA,dirB`
// plug into the same platform.
type Interface interface {
	KV
	Verify() (ok, corrupt int, err error)
	EvictHash(cfgHash string) (int, error)
	Prune(maxEntries int) (int, error)
	Stats() (diskEntries int, diskBytes int64, memEntries int)
	Close() error
}

// Options configures Open.
type Options struct {
	// MemoryEntries bounds the in-memory LRU tier; values below 1 select
	// the default of 256.
	MemoryEntries int
	// Metrics, when non-nil, receives the resultstore_* series: hits split
	// by tier, misses, writes, corrupt-entry detections, and evictions.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives operational events: corrupt entries
	// quarantined, GC sweeps, evictions by hash.
	Logf func(format string, args ...any)
	// Disk, when non-nil, replaces the real filesystem for entry reads and
	// writes — the deterministic disk-fault seam.  Directory creation,
	// renames, and scans stay real: faults target entry bytes, not the
	// directory tree.
	Disk Disk
	// ScrubInterval, when positive, starts the background scrubber on a
	// Replicated store (OpenReplicated); passes run on a ±20%-jittered
	// interval until Close.  Ignored by a plain Store.
	ScrubInterval time.Duration
}

// Store is the two-tier result store.  All methods are safe for concurrent
// use; the disk tier additionally tolerates multiple processes sharing one
// directory (atomic rename makes concurrent writers last-write-wins with
// identical content, which determinism guarantees).
type Store struct {
	dir  string
	mem  *lru
	disk Disk

	logf func(format string, args ...any)

	hitsMem  *metrics.Counter
	hitsDisk *metrics.Counter
	misses   *metrics.Counter
	writes   *metrics.Counter
	corrupt  *metrics.Counter
	evicted  *metrics.Counter
	entries  *metrics.Gauge

	// diskN approximates the disk-tier entry count so Put can keep the
	// resultstore_disk_entries gauge without a scan.  It is best-effort:
	// putDisk's stat-then-write freshness check races concurrent writers of
	// the same key, so the count can drift.  Every full scan (Stats, Prune)
	// resyncs it to ground truth; nothing load-bearing may read it directly.
	diskN atomic.Int64
	mu    sync.Mutex // serialises directory-wide maintenance (Prune, Verify)
}

// Open opens (creating if needed) the store rooted at dir.  An empty dir
// selects a memory-only store: the LRU tier works as usual and nothing is
// ever written to disk — exactly the pre-platform wbserve cache.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MemoryEntries < 1 {
		opts.MemoryEntries = 256
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	disk := opts.Disk
	if disk == nil {
		disk = osDisk{}
	}
	s := &Store{
		dir:      dir,
		mem:      newLRU(opts.MemoryEntries),
		disk:     disk,
		logf:     opts.Logf,
		hitsMem:  reg.Counter(metrics.Label("resultstore_hits_total", "tier", "memory")),
		hitsDisk: reg.Counter(metrics.Label("resultstore_hits_total", "tier", "disk")),
		misses:   reg.Counter("resultstore_misses_total"),
		writes:   reg.Counter("resultstore_writes_total"),
		corrupt:  reg.Counter("resultstore_corrupt_entries_total"),
		evicted:  reg.Counter("resultstore_evictions_total"),
		entries:  reg.Gauge("resultstore_disk_entries"),
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultstore: %w", err)
		}
		n, _, err := s.scan(nil)
		if err != nil {
			return nil, err
		}
		s.diskN.Store(int64(n))
		s.entries.Set(float64(n))
	}
	return s, nil
}

// Dir reports the disk-tier root, empty for a memory-only store.
func (s *Store) Dir() string { return s.dir }

// Close releases nothing for a plain store — it exists so Store satisfies
// Interface alongside Replicated, whose Close stops the scrubber.
func (s *Store) Close() error { return nil }

// path maps a key to its content-addressed entry file.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, name[:2], name+".json")
}

// Get returns the stored payload for key.  The memory tier answers first;
// a disk hit is checksum-verified, promoted into the memory tier, and
// counted under its own tier label.  A corrupt disk entry is quarantined
// (moved into quarantine/ so it stops matching) and reported as a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	if p, ok := s.mem.get(key); ok {
		s.hitsMem.Inc()
		return p, true
	}
	payload, cfgHash, ok := s.getEntry(key)
	if !ok {
		s.misses.Inc()
		return nil, false
	}
	s.mem.put(key, cfgHash, payload)
	s.hitsDisk.Inc()
	return payload, true
}

// getEntry reads and validates one disk entry without touching the memory
// tier, returning the payload and its attesting machconf hash — the
// building block Replicated's first-healthy-copy-wins reads and read-repair
// are made of.  A corrupt entry is quarantined and reported missing.
func (s *Store) getEntry(key string) (payload []byte, cfgHash string, ok bool) {
	if s.dir == "" {
		return nil, "", false
	}
	path := s.path(key)
	data, err := s.disk.ReadFile(path)
	if err != nil {
		return nil, "", false
	}
	e, err := decodeEntry(data, key)
	if err != nil {
		s.corrupt.Inc()
		s.quarantine(path, err)
		return nil, "", false
	}
	return e.Payload, e.CfgHash, true
}

// decodeEntry validates one envelope against the key it was looked up by.
func decodeEntry(data []byte, key string) (entry, error) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return entry{}, fmt.Errorf("unparsable envelope: %w", err)
	}
	if e.Key != key {
		return entry{}, fmt.Errorf("entry key %q does not match lookup key %q", e.Key, key)
	}
	if got := Checksum(e.CfgHash, e.Payload); got != e.Checksum {
		return entry{}, errors.New("checksum mismatch")
	}
	return e, nil
}

// quarantine moves a failed entry into the root's quarantine/ subdirectory
// so the corruption is preserved for inspection but never served; the job
// re-simulates (or, under a Replicated store, is repaired from a healthy
// replica).  The ".corrupt" suffix keeps quarantined files out of entry
// scans.
func (s *Store) quarantine(path string, cause error) {
	qdir := filepath.Join(s.dir, QuarantineDir)
	dst := filepath.Join(qdir, filepath.Base(path)+".corrupt")
	err := os.MkdirAll(qdir, 0o755)
	if err == nil {
		err = os.Rename(path, dst)
	}
	if err != nil {
		os.Remove(path) // last resort: make the bad bytes unreachable
		dst = "(removed)"
	}
	if s.logf != nil {
		s.logf("resultstore: quarantined corrupt entry %s → %s: %v", path, dst, cause)
	}
}

// Quarantined reports how many corrupt entries sit in the quarantine
// subdirectory — the admin status endpoint's "how bad was it" figure.
func (s *Store) Quarantined() int {
	if s.dir == "" {
		return 0
	}
	names, err := os.ReadDir(filepath.Join(s.dir, QuarantineDir))
	if err != nil {
		return 0
	}
	n := 0
	for _, d := range names {
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".corrupt") {
			n++
		}
	}
	return n
}

// Put stores a payload under key, attested by the machine's canonical
// machconf hash.  The write is atomic: a temp file in the final directory,
// fsync, then rename — a reader (or a crash) can never observe a torn
// entry.  The memory tier is updated even when the disk write fails: the
// result is correct and serving it for this process's lifetime is the
// point.  Callers that need durability must treat the returned error as
// "not stored" (dispatch.ErrResultNotStored wraps it) — membership in the
// memory tier is NOT a durability signal.
func (s *Store) Put(key, cfgHash string, payload []byte) error {
	s.mem.put(key, cfgHash, payload)
	if s.dir == "" {
		return nil
	}
	return s.putDisk(key, cfgHash, payload)
}

// putDisk writes the disk entry only — the repair path, which must not
// disturb the memory tier's recency order.
func (s *Store) putDisk(key, cfgHash string, payload []byte) error {
	e := entry{V: 1, Key: key, CfgHash: cfgHash, Checksum: Checksum(cfgHash, payload), Payload: payload}
	blob, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("resultstore: encoding %s: %w", key, err)
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	// Stat-then-write is racy when two writers land the same new key at
	// once — both see "fresh" and diskN double-counts.  Tolerated: the count
	// is advisory (see the field comment) and the next Stats/Prune scan
	// resyncs it; taking s.mu here would serialise every Put instead.
	fresh := true
	if _, err := os.Stat(path); err == nil {
		fresh = false // deterministic overwrite of an identical entry
	}
	if err := s.disk.WriteFile(path, blob); err != nil {
		return fmt.Errorf("resultstore: writing %s: %w", key, err)
	}
	s.writes.Inc()
	if fresh {
		s.entries.Set(float64(s.diskN.Add(1)))
	}
	return nil
}

// scan walks the disk tier, counting entries and total bytes; visit, when
// non-nil, is called with each entry path.  Quarantined files carry a
// ".corrupt" suffix and never match.
func (s *Store) scan(visit func(path string, info fs.FileInfo)) (int, int64, error) {
	n, bytes := 0, int64(0)
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent rename; skip
		}
		n++
		bytes += info.Size()
		if visit != nil {
			visit(path, info)
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("resultstore: scanning %s: %w", s.dir, err)
	}
	return n, bytes, nil
}

// entryNames lists the relative entry paths ("ab/ab…cd.json") currently in
// the disk tier — the scrubber's unit of work.
func (s *Store) entryNames() ([]string, error) {
	if s.dir == "" {
		return nil, nil
	}
	var names []string
	_, _, err := s.scan(func(p string, _ fs.FileInfo) {
		if rel, err := filepath.Rel(s.dir, p); err == nil {
			names = append(names, rel)
		}
	})
	return names, err
}

// scanRel reports each entry's store-relative name and modification time —
// the per-replica view the replicated pruner ages entries by.
func (s *Store) scanRel(visit func(rel string, mod int64)) error {
	if s.dir == "" {
		return nil
	}
	_, _, err := s.scan(func(p string, info fs.FileInfo) {
		if rel, rerr := filepath.Rel(s.dir, p); rerr == nil {
			visit(rel, info.ModTime().UnixNano())
		}
	})
	return err
}

// removeEntries deletes the named entries (store-relative, as produced by
// scanRel/entryNames) and returns how many removes actually succeeded — the
// only number the freshness accounting may trust.  Absent names are not an
// error: a replica that never held the copy simply has nothing to remove.
func (s *Store) removeEntries(rels []string) int {
	if s.dir == "" {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for _, rel := range rels {
		if os.Remove(filepath.Join(s.dir, rel)) == nil {
			removed++
			s.evicted.Inc()
		}
	}
	if removed > 0 {
		s.entries.Set(float64(s.diskN.Add(int64(-removed))))
	}
	return removed
}

// Stats reports the disk tier's entry count and total size in bytes, plus
// the memory tier's entry count.  The scan is ground truth, so it also
// resyncs the best-effort diskN counter (and its gauge) that concurrent
// same-key Puts can drift.
func (s *Store) Stats() (diskEntries int, diskBytes int64, memEntries int) {
	memEntries = s.mem.len()
	if s.dir == "" {
		return 0, 0, memEntries
	}
	diskEntries, diskBytes, _ = s.scan(nil)
	s.diskN.Store(int64(diskEntries))
	s.entries.Set(float64(diskEntries))
	return diskEntries, diskBytes, memEntries
}

// Verify decodes and checksums every disk entry — the first step of the
// cache-poisoning runbook in docs/SERVING.md.  Corrupt entries are
// quarantined exactly as a Get would, so a verify pass leaves the store
// clean; the counts let the operator decide whether to dig further.
func (s *Store) Verify() (ok, corrupt int, err error) {
	if s.dir == "" {
		return 0, 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var paths []string
	if _, _, err := s.scan(func(p string, _ fs.FileInfo) { paths = append(paths, p) }); err != nil {
		return 0, 0, err
	}
	for _, p := range paths {
		data, rerr := s.disk.ReadFile(p)
		if rerr != nil {
			continue // raced with eviction
		}
		var e entry
		derr := json.Unmarshal(data, &e)
		if derr != nil || Checksum(e.CfgHash, e.Payload) != e.Checksum || s.path(e.Key) != p {
			s.corrupt.Inc()
			corrupt++
			cause := derr
			if cause == nil {
				cause = errors.New("checksum or address mismatch")
			}
			s.quarantine(p, cause)
			continue
		}
		ok++
	}
	return ok, corrupt, nil
}

// EvictHash removes every entry whose machine is the given canonical
// machconf hash, across all benchmarks and instruction counts — the
// runbook's targeted response when one configuration's results are
// suspect.  The memory tier drops exactly the entries carrying that hash;
// unrelated hot entries stay resident.  Returns how many disk entries were
// removed.
func (s *Store) EvictHash(cfgHash string) (int, error) {
	s.mem.evictHash(cfgHash)
	if s.dir == "" {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var victims []string
	_, _, err := s.scan(func(p string, _ fs.FileInfo) {
		data, err := s.disk.ReadFile(p)
		if err != nil {
			return
		}
		var e entry
		if json.Unmarshal(data, &e) == nil && e.CfgHash == cfgHash {
			victims = append(victims, p)
		}
	})
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, p := range victims {
		// Only a successful Remove may decrement the freshness count; a
		// victim that raced a concurrent prune (already gone) or hit an
		// unremovable file is still on the scan's books.
		if os.Remove(p) == nil {
			removed++
			s.evicted.Inc()
		}
	}
	if s.logf != nil && removed > 0 {
		s.logf("resultstore: evicted %d entries for config hash %s", removed, cfgHash)
	}
	s.entries.Set(float64(s.diskN.Add(int64(-removed))))
	return removed, nil
}

// Prune is the store's garbage collector: when the disk tier holds more
// than maxEntries, the oldest entries (by modification time — write time,
// since entries are immutable) are removed until the bound holds.  Returns
// how many entries were removed.  Safe to run while the store serves.
func (s *Store) Prune(maxEntries int) (int, error) {
	if s.dir == "" || maxEntries < 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	type aged struct {
		path string
		mod  int64
	}
	var all []aged
	if _, _, err := s.scan(func(p string, info fs.FileInfo) {
		all = append(all, aged{p, info.ModTime().UnixNano()})
	}); err != nil {
		return 0, err
	}
	if len(all) <= maxEntries {
		return 0, nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mod < all[j].mod })
	removed := 0
	for _, a := range all[:len(all)-maxEntries] {
		if os.Remove(a.path) == nil {
			removed++
			s.evicted.Inc()
		}
	}
	s.diskN.Store(int64(len(all) - removed))
	s.entries.Set(float64(len(all) - removed))
	if s.logf != nil && removed > 0 {
		s.logf("resultstore: pruned %d entries (bound %d)", removed, maxEntries)
	}
	return removed, nil
}
