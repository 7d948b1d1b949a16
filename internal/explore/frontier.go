package explore

import (
	"encoding/json"
	"sort"

	"repro/internal/core"
	"repro/internal/machconf"
)

// BenchPoint is one benchmark's contribution to an evaluation.
type BenchPoint struct {
	Bench string `json:"bench"`
	// CPIOverhead is the measured write-buffer stall cycles per
	// instruction on this benchmark (all stall categories).
	CPIOverhead float64 `json:"cpi_overhead"`
}

// Eval is one fully simulated candidate: identity, cost, and the measured
// overhead per benchmark and averaged over the suite.
type Eval struct {
	Label string `json:"label"`
	Hash  string `json:"hash"`
	// Config is the machine's canonical machconf blob, so a reported
	// winner can be run directly (wbsim -config) or re-swept.
	Config json.RawMessage `json:"config"`
	// Cost is the area proxy (CostProxy).
	Cost int `json:"cost"`
	// Hazard names the load-hazard policy ("write-cache" for a wcache
	// machine, where the axis does not apply).
	Hazard string `json:"hazard"`
	// CPIOverhead is the suite mean of the per-benchmark overheads.
	CPIOverhead float64      `json:"cpi_overhead"`
	PerBench    []BenchPoint `json:"per_bench"`
}

// Point is one frontier entry — an Eval reduced to the two objectives.
type Point struct {
	Label       string  `json:"label"`
	Hash        string  `json:"hash"`
	Cost        int     `json:"cost"`
	Hazard      string  `json:"hazard"`
	CPIOverhead float64 `json:"cpi_overhead"`
}

// Frontier accumulates candidate points and reduces them to the
// Pareto-optimal set under minimisation of both (CPIOverhead, Cost).
type Frontier struct {
	pts []Point
}

// Add offers a point to the frontier.
func (f *Frontier) Add(p Point) { f.pts = append(f.pts, p) }

// Points returns the Pareto-minimal subset, sorted by cost ascending then
// overhead ascending then hash — a deterministic tradeoff curve from
// cheapest to fastest.
func (f *Frontier) Points() []Point {
	return ParetoMin(f.pts)
}

// ParetoMin filters pts to the points not dominated by any other: no other
// point is at most as costly AND at most as slow while strictly better on
// one objective.  Duplicate (cost, overhead) pairs keep the
// lexicographically smallest hash.
func ParetoMin(pts []Point) []Point {
	sorted := append([]Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Cost != sorted[j].Cost {
			return sorted[i].Cost < sorted[j].Cost
		}
		if sorted[i].CPIOverhead != sorted[j].CPIOverhead {
			return sorted[i].CPIOverhead < sorted[j].CPIOverhead
		}
		return sorted[i].Hash < sorted[j].Hash
	})
	var out []Point
	best := 0.0
	for i, p := range sorted {
		if i > 0 && p.Cost == sorted[i-1].Cost && p.CPIOverhead == sorted[i-1].CPIOverhead {
			continue // exact duplicate objective pair; smallest hash came first
		}
		if len(out) == 0 || p.CPIOverhead < best {
			out = append(out, p)
			best = p.CPIOverhead
		}
	}
	return out
}

// BenchFrontier is one benchmark's own Pareto frontier.
type BenchFrontier struct {
	Bench  string  `json:"bench"`
	Points []Point `json:"points"`
}

// Result is a finished search: what was searched, what it cost, every
// full-fidelity evaluation ranked best-first, and the frontiers.  Its
// canonical JSON rendering is byte-reproducible for a fixed (space, seed,
// budget, suite, n) — the determinism test and store resume rest
// on that, so nothing wall-clock-dependent lives here (wall-clock
// throughput is reported separately by cmd/wbopt -stats-out).
type Result struct {
	Strategy  string   `json:"strategy"`
	Seed      uint64   `json:"seed"`
	N         uint64   `json:"n"`
	Budget    float64  `json:"budget"`
	SpaceSize int      `json:"space_size"`
	Suite     []string `json:"suite"`
	// Screened counts candidates that received any cycle-exact
	// simulation; SimsRun counts (config, benchmark) simulator runs
	// actually executed; CostSpent is those runs in full-length-run
	// units (a screening run at n/4 costs 0.25); SimsSkipped counts the
	// runs the analytic ranking pruned away without simulating.
	Screened    int     `json:"screened"`
	SimsRun     int     `json:"sims_run"`
	CostSpent   float64 `json:"cost_spent"`
	SimsSkipped int     `json:"sims_skipped"`
	// Evaluated holds the full-fidelity evaluations, ranked by suite
	// CPI overhead ascending (hash breaks ties).
	Evaluated []Eval `json:"evaluated"`
	// Frontier is the aggregate Pareto set; PerBench the per-benchmark
	// frontiers in suite order.
	Frontier []Point         `json:"frontier"`
	PerBench []BenchFrontier `json:"per_bench"`
}

// MarshalCanonical renders the result as indented JSON with fixed field
// and element order — the byte-reproducible artifact wbopt -out writes.
func (r *Result) MarshalCanonical() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Best returns the top-ranked full-fidelity evaluation.
func (r *Result) Best() (Eval, bool) {
	if len(r.Evaluated) == 0 {
		return Eval{}, false
	}
	return r.Evaluated[0], true
}

// PaperCheck is the verdict on the paper's headline conclusion: a deep
// buffer retiring at roughly half its depth, with loads serviced from the
// buffer (read-from-WB), dominates the design space.
type PaperCheck struct {
	// FrontierHasReadFromWB: some Pareto-optimal point uses read-from-WB.
	FrontierHasReadFromWB bool `json:"frontier_has_read_from_wb"`
	// BestLabel/BestHazard identify the top-ranked configuration.
	BestLabel  string `json:"best_label"`
	BestHazard string `json:"best_hazard"`
	// BestRetireRatio is the best configuration's high-water mark over
	// its depth (0 when the policy is not retire-at, e.g. a write cache).
	BestRetireRatio float64 `json:"best_retire_ratio"`
	// RetireNearHalf: that ratio lies in [0.25, 0.75], the paper's
	// "retire at about half depth" band.
	RetireNearHalf bool `json:"retire_near_half"`
	// Rediscovered: both findings hold at once.
	Rediscovered bool `json:"rediscovered"`
}

// PaperCheck evaluates the headline conclusion against the search result.
// The decode step cannot fail for configs produced by this package; a
// foreign blob that fails to decode simply reports ratio 0.
func (r *Result) PaperCheck() PaperCheck {
	var c PaperCheck
	for _, p := range r.Frontier {
		if p.Hazard == core.ReadFromWB.String() {
			c.FrontierHasReadFromWB = true
			break
		}
	}
	best, ok := r.Best()
	if !ok {
		return c
	}
	c.BestLabel = best.Label
	c.BestHazard = best.Hazard
	if cfg, err := machconf.Decode(best.Config); err == nil && cfg.WriteCacheDepth == 0 {
		if p, ok := cfg.Retire.(core.RetireAt); ok && cfg.WB.Depth > 0 {
			c.BestRetireRatio = float64(p.N) / float64(cfg.WB.Depth)
		}
	}
	c.RetireNearHalf = c.BestRetireRatio >= 0.25 && c.BestRetireRatio <= 0.75
	c.Rediscovered = c.FrontierHasReadFromWB && c.RetireNearHalf
	return c
}
