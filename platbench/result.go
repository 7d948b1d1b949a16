package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// e2eMetrics are the end-to-end metrics every workload reports, in
// BENCHMARK.json order, with their units.  README.md defines each one on
// each workload.
var e2eMetrics = []struct{ name, unit string }{
	{"sweep_mips", "MIPS"},
	{"remote_jobs_per_s", "1/s"},
	{"run_cold_ms_p50", "ms"},
	{"run_cold_ms_p90", "ms"},
	{"run_warm_ms_p50", "ms"},
	{"serve_req_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// ungatedE2E are end-to-end metrics too unsteady on a shared host to carry
// a bound; a traced run reports them with the per-layer metrics.  The warm
// p99 of the sweeps is the tail of a ~15 µs store hit, about the share of
// hits a timer interrupt lands on, so its run-to-run spread reached 0.3.
var ungatedE2E = []struct{ name, unit string }{
	{"run_warm_ms_p99", "ms"},
}

// metric is one reported number with its protocol: the layer it belongs
// to and how many samples it summarises.  ok is false when a tail
// percentile has fewer than ten samples beyond it; such a metric is
// reported as missing, never as a number.
type metric struct {
	name    string
	value   float64
	unit    string
	layer   string
	samples int
	ok      bool
	why     string
}

func (m metric) note() string {
	if m.why == "" {
		return ""
	}
	return " (" + m.why + ")"
}

// MarshalJSON renders the metric for the protocol record.
func (m metric) MarshalJSON() ([]byte, error) {
	var v any = m.value
	if !m.ok {
		v = nil
	}
	return json.Marshal(map[string]any{
		"name": m.name, "value": v, "unit": m.unit, "layer": m.layer,
		"samples": m.samples, "note": m.why,
	})
}

// check is one output-correctness check; mismatches counts the operations
// it found wrong, each of which also counts as failed.
type check struct {
	Name       string `json:"name"`
	Checked    int    `json:"checked"`
	Mismatches int    `json:"mismatches"`
	Detail     string `json:"detail,omitempty"`
}

// result is what a workload run produced.
type result struct {
	attempted, failed int
	checks            []check
	n                 map[string]uint64 // instruction counts per job kind
	e2e               []metric          // every e2eMetrics entry, in order
	ungated           []metric          // every ungatedE2E entry, in order
	layers            []metric          // per-layer metrics (traced runs)
}

// addCheck records a check and counts its mismatches as failures.
func (r *result) addCheck(c check) {
	r.checks = append(r.checks, c)
	r.failed += c.Mismatches
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if c.Mismatches > 0 {
			return false
		}
	}
	return r.failed == 0 && len(r.checks) > 0
}

func (r *result) checkSummary() string {
	parts := make([]string, len(r.checks))
	for i, c := range r.checks {
		parts[i] = fmt.Sprintf("%s %d/%d ok", c.Name, c.Checked-c.Mismatches, c.Checked)
	}
	return strings.Join(parts, ", ")
}

// tracedMetrics is what a traced run reports: every per-layer metric, the
// ungated end-to-end metrics, then the gated end-to-end metrics measured in
// the same (traced) run under a "traced." prefix, so they can be set beside
// an untraced run's.
func (r *result) tracedMetrics() []metric {
	out := append(append([]metric(nil), r.layers...), r.ungated...)
	for _, m := range r.e2e {
		m.name = "traced." + m.name
		out = append(out, m)
	}
	return out
}

// e2eValue is the value of one of the run's end-to-end metrics.
func (r *result) e2eValue(name string) float64 {
	for _, m := range r.e2e {
		if m.name == name {
			return m.value
		}
	}
	for _, m := range r.ungated {
		if m.name == name {
			return m.value
		}
	}
	panic("no end-to-end metric " + name) // e2eSet.fill guarantees every one
}

// e2eSet collects the end-to-end metrics of one run and checks that every
// one of e2eMetrics is present.
type e2eSet map[string]metric

func (s e2eSet) put(name string, value float64, samples int, ok bool, why string) {
	s[name] = metric{name: name, value: value, samples: samples, ok: ok, why: why, layer: "end-to-end"}
}

// fill sets the run's gated and ungated end-to-end metrics.
func (s e2eSet) fill(r *result) error {
	pick := func(defs []struct{ name, unit string }) ([]metric, error) {
		out := make([]metric, 0, len(defs))
		for _, d := range defs {
			m, ok := s[d.name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			m.unit = d.unit
			out = append(out, m)
		}
		return out, nil
	}
	var err error
	if r.e2e, err = pick(e2eMetrics); err != nil {
		return err
	}
	r.ungated, err = pick(ungatedE2E)
	return err
}

// layerSet collects per-layer metrics in the order they are added.
type layerSet struct{ ms []metric }

func (s *layerSet) add(layer, name, unit string, value float64, samples int, why string) {
	s.ms = append(s.ms, metric{name: name, value: value, unit: unit, layer: layer, samples: samples, ok: true, why: why})
}

// absent records a layer the workload's path does not go through; the
// value is 0 and the note says why.
func (s *layerSet) absent(layer, name, unit, why string) {
	s.add(layer, name, unit, 0, 0, "not on this workload's path: "+why)
}

// absentRemote records the remote dispatch layer as absent.
func absentRemote(ls *layerSet) {
	for _, m := range []struct{ name, unit string }{
		{"dispatch.remote_overhead_us", "us"},
		{"dispatch.retries", "count"},
		{"dispatch.hedges", "count"},
		{"dispatch.hedge_win_ratio", "ratio"},
	} {
		ls.absent("dispatch-remote", m.name, m.unit, "no remote pool")
	}
}

// quantile returns the p-quantile of xs by nearest rank, and whether at
// least ten samples lie beyond it — the condition for reporting a tail
// percentile as a number.
func quantile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	beyond := len(s) - 1 - i
	return s[i], beyond >= 10 || (p == 0.5 && len(s) > 0)
}

// groupedQuantile is quantile made robust to bursts of host noise: xs, in
// the order the samples were taken, is cut into up to ten consecutive
// groups, each large enough for its own p-quantile to have ten samples
// beyond it, and the median of the groups' quantiles is returned.  With
// too few samples for one such group it is quantile itself.
func groupedQuantile(xs []float64, p float64) (float64, bool) {
	need := 20
	if p > 0.5 {
		need = int(math.Ceil(10/(1-p))) + 1
	}
	groups := len(xs) / need
	if groups > 10 {
		groups = 10
	}
	if groups < 2 {
		return quantile(xs, p)
	}
	size := len(xs) / groups
	qs := make([]float64, groups)
	for g := range qs {
		qs[g], _ = quantile(xs[g*size:(g+1)*size], p)
	}
	return median(qs), true
}

// median is the middle value (mean of the two middle values for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 2
	if len(s)%2 == 1 {
		return s[k]
	}
	return (s[k-1] + s[k]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durations(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
