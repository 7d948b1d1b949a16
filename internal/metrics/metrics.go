// Package metrics is a lightweight, dependency-free metrics registry for
// the simulator's observability layer: named counters, gauges, and
// power-of-two-bucketed histograms, safe for concurrent use, with
// snapshot-and-diff semantics and a Prometheus-text/expvar-style export.
//
// The design point is the simulator's hot path.  Instruments are
// preallocated and updated with a single atomic operation — no maps, no
// locks, no allocation after creation — so a counter increment costs a few
// nanoseconds and a histogram observation one atomic add after a bit-length
// computation.  Registry lookups (Counter, Gauge, Histogram) do take a
// lock and must be hoisted out of loops: look the instrument up once,
// update it millions of times.
//
// Series names follow Prometheus conventions (snake_case, unit-suffixed,
// `_total` for counters).  A name may carry a label set built with Label,
// e.g. metrics.Label("wbserve_requests_total", "path", "/run"); the
// registry treats the labelled name as an opaque key and the text exporter
// emits it verbatim, which is exactly the Prometheus exposition format.
package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.  The zero value is ready
// to use, but counters are normally obtained from a Registry so they are
// exported.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (occupancy, rate, temperature).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// HistogramBuckets is the fixed bucket count of a Histogram: bucket k
// counts observations v with 2^(k-1) <= v < 2^k (bucket 0 counts v == 0),
// and the last bucket is a catch-all for anything larger.  64 buckets
// cover the full uint64 range, so no observation is ever dropped.
const HistogramBuckets = 64

// Histogram counts observations in power-of-two latency/size buckets.
// Observation is one bit-length computation plus one atomic add; there is
// no allocation and no lock.
type Histogram struct {
	buckets [HistogramBuckets]atomic.Uint64
	sum     atomic.Uint64
	count   atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// bucketOf maps an observation to its bucket index: bits.Len64 is 0 for 0,
// 1 for 1, 2 for 2..3, … which is exactly the log2 bucketing wanted.
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b >= HistogramBuckets {
		return HistogramBuckets - 1
	}
	return b
}

// Merge adds every bucket, the sum, and the count of other into h.  A
// single-goroutine producer (the simulator keeps one private histogram per
// machine) merges its totals into a shared registry histogram once per
// run, keeping the per-event path free of shared-cache-line traffic.
func (h *Histogram) Merge(other *Histogram) {
	for k := range other.buckets {
		if n := other.buckets[k].Load(); n > 0 {
			h.buckets[k].Add(n)
		}
	}
	h.sum.Add(other.sum.Load())
	h.count.Add(other.count.Load())
}

// LocalHistogram is the single-goroutine counterpart of Histogram: the same
// power-of-two buckets with plain (non-atomic) arithmetic.  The simulator
// keeps one per machine on its hot path — an observation is a bit-length
// computation and three ordinary adds, roughly 3× cheaper than the atomic
// form — and folds the totals into a shared registry Histogram once per run
// via Histogram.MergeLocal.  A LocalHistogram must only ever be touched by
// its owning goroutine.
type LocalHistogram struct {
	buckets [HistogramBuckets]uint64
	sum     uint64
	count   uint64
}

// Observe records one observation.
func (h *LocalHistogram) Observe(v uint64) {
	h.buckets[bucketOf(v)]++
	h.sum += v
	h.count++
}

// Reset zeroes the histogram.
func (h *LocalHistogram) Reset() { *h = LocalHistogram{} }

// MergeLocal adds every bucket, the sum, and the count of a goroutine-local
// histogram into h.
func (h *Histogram) MergeLocal(other *LocalHistogram) {
	for k, n := range other.buckets {
		if n > 0 {
			h.buckets[k].Add(n)
		}
	}
	h.sum.Add(other.sum)
	h.count.Add(other.count)
}

// Reset zeroes the histogram.  Reset is not atomic with respect to
// concurrent Observe calls; owners reset only histograms they alone write
// (the simulator's per-machine histograms around a warm-up phase).
func (h *Histogram) Reset() {
	for k := range h.buckets {
		h.buckets[k].Store(0)
	}
	h.sum.Store(0)
	h.count.Store(0)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-quantile (0 < q < 1) of the observations: the
// exclusive upper bound of the bucket holding the ceil(q·count)-th smallest
// observation.  The log2 bucketing makes the estimate coarse — at worst a
// factor of two above the true quantile — which is exactly the fidelity a
// straggler-detection threshold needs (dispatch hedging keys its re-issue
// delay on the pool's p95 job latency).  With no observations it returns 0.
func (h *Histogram) Quantile(q float64) uint64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for k := range h.buckets {
		seen += h.buckets[k].Load()
		if seen >= rank {
			return bucketBound(k)
		}
	}
	return bucketBound(HistogramBuckets - 1)
}

// Buckets returns a copy of the non-empty bucket counts, keyed by the
// bucket's exclusive upper bound (2^k; the v == 0 bucket reports bound 1).
func (h *Histogram) Buckets() map[uint64]uint64 {
	out := map[uint64]uint64{}
	for k := range h.buckets {
		if n := h.buckets[k].Load(); n > 0 {
			out[bucketBound(k)] = n
		}
	}
	return out
}

// bucketBound returns bucket k's exclusive upper bound.
func bucketBound(k int) uint64 {
	if k >= 64 {
		return math.MaxUint64
	}
	return 1 << uint(k)
}

// Registry is a named collection of instruments.  The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use.  Registering the same name as a different instrument kind panics —
// it is a programming error, caught at startup in practice.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	h := &Histogram{}
	r.histograms[name] = h
	return h
}

// checkFree panics if name is already registered as another kind.
// Callers hold r.mu.
func (r *Registry) checkFree(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a counter, requested as a %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a gauge, requested as a %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a histogram, requested as a %s", name, kind))
	}
}

// Label appends one label pair to a metric name in Prometheus exposition
// syntax, composing with already-labelled names:
//
//	Label("requests_total", "path", "/run")          → requests_total{path="/run"}
//	Label(Label("x", "a", "1"), "b", "2")            → x{a="1",b="2"}
//
// The label value is escaped per the exposition format.
func Label(name, key, value string) string {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(value)
	pair := key + `="` + esc + `"`
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + pair + "}"
	}
	return name + "{" + pair + "}"
}

// Snapshot is a point-in-time copy of every scalar series in a registry.
// Histograms expand to `<name>_count` and `<name>_sum` plus one
// `<name>_bucket{le="<bound>"}` series per non-empty bucket, mirroring the
// Prometheus data model.
type Snapshot map[string]float64

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := make(Snapshot, len(r.counters)+len(r.gauges)+4*len(r.histograms))
	for name, c := range r.counters {
		s[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		s[name] = g.Value()
	}
	for name, h := range r.histograms {
		s[name+"_count"] = float64(h.Count())
		s[name+"_sum"] = float64(h.Sum())
		for bound, n := range h.Buckets() {
			s[Label(name+"_bucket", "le", fmt.Sprint(bound))] = float64(n)
		}
	}
	return s
}

// Diff returns the change from prev to s: every series in s minus its
// value in prev (absent meaning zero).  Series that disappeared are
// dropped.  For monotone series (counters, histogram buckets) the result
// is the activity in the interval — the snapshot-and-diff idiom
// experiments use to attribute counts to one phase of a run.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for name, v := range s {
		out[name] = v - prev[name]
	}
	return out
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (version 0.0.4), sorted by name so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := snap[name]
		var err error
		if v == math.Trunc(v) && math.Abs(v) < 1e15 {
			_, err = fmt.Fprintf(w, "%s %d\n", name, int64(v))
		} else {
			_, err = fmt.Fprintf(w, "%s %g\n", name, v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
