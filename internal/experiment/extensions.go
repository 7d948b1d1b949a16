package experiment

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Extension experiments: systems the paper discusses but does not
// evaluate — Jouppi's write cache, memory barriers, occupancy analysis,
// and an analytic model cross-check.
func init() {
	registerExperiment(Experiment{
		ID:    "ext-writecache",
		Title: "Write buffer vs Jouppi-style write cache: stalls and write traffic",
		Run:   runWriteCache,
	})
	registerExperiment(Experiment{
		ID:    "ext-membar",
		Title: "Memory-barrier cost vs write-stage organisation (drain stalls at varying barrier frequency)",
		Run:   runMembar,
	})
	registerExperiment(Experiment{
		ID:    "ext-occupancy",
		Title: "Store-observed occupancy distribution: the headroom picture behind Figures 4 and 5",
		Run:   runOccupancy,
	})
	registerExperiment(Experiment{
		ID:    "ext-analytic",
		Title: "Analytic Markov model vs simulator: blocking probability across depths",
		Run:   runAnalytic,
	})
	registerExperiment(Experiment{
		ID:    "ext-multiprog",
		Title: "Multiprogramming: write-buffer and cache behaviour under context-switch quanta",
		Run:   runMultiprog,
	})
	registerExperiment(Experiment{
		ID:    "ext-variance",
		Title: "Seed robustness: baseline stall percentages as mean ± sd over 5 generator seeds",
		Run:   runVariance,
	})
}

// runVariance reruns each profile-driven benchmark with shifted generator
// seeds — the stand-in for different program inputs — and reports the
// spread of the baseline stall measurement.  Tight spreads mean the
// figures measure the workload's character, not one lucky stream.
func runVariance(_ context.Context, o Options) (*Report, error) {
	rep := &Report{
		ID: "ext-variance", Title: "Baseline total stall %, mean ± sd over 5 seeds",
		Columns: []string{"benchmark", "mean", "sd", "min", "max"},
		Notes: []string{
			"kernel benchmarks (tomcatv, fft, cholsky, gmtry) are deterministic loop nests and are skipped",
		},
	}
	const seeds = 5
	for _, b := range o.benchmarks() {
		var vals []float64
		for s := uint64(0); s < seeds; s++ {
			rb, ok := workload.Reseeded(b, s)
			if !ok {
				break
			}
			m := Run(rb, "seeded", sim.Baseline(), o.instructions())
			vals = append(vals, m.C.TotalStallPct())
		}
		if len(vals) == 0 {
			continue
		}
		mean, sd, lo, hi := meanSD(vals)
		rep.Rows = append(rep.Rows, []string{
			b.Name,
			fmt.Sprintf("%.2f", mean), fmt.Sprintf("%.2f", sd),
			fmt.Sprintf("%.2f", lo), fmt.Sprintf("%.2f", hi),
		})
	}
	return rep, nil
}

func meanSD(vals []float64) (mean, sd, lo, hi float64) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		mean += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(len(vals)))
	return
}

// runMultiprog time-slices pairs of benchmarks (trace.Interleave) and
// reports how shrinking quanta degrade locality: every switch faces the
// incoming program with the other's cache contents, raising both miss
// traffic and L2 contention — the OS activity the paper's traces omit.
func runMultiprog(_ context.Context, o Options) (*Report, error) {
	pairs := [][2]string{{"li", "compress"}, {"sc", "hydro2d"}, {"espresso", "fft"}}
	quanta := []uint64{0, 100_000, 10_000, 1_000}
	rep := &Report{
		ID: "ext-multiprog", Title: "Context-switch quantum sweep (baseline machine)",
		Columns: []string{"pair / quantum", "stall%", "L1 hit%", "WB hit%"},
		Notes: []string{
			"quantum 'none' runs the pair back to back; smaller quanta switch more often",
		},
	}
	for _, pair := range pairs {
		a, ok := workload.ByName(pair[0])
		if !ok {
			panic("experiment: missing benchmark " + pair[0])
		}
		b, ok := workload.ByName(pair[1])
		if !ok {
			panic("experiment: missing benchmark " + pair[1])
		}
		for _, q := range quanta {
			half := o.instructions() / 2
			var s trace.Stream
			label := fmt.Sprintf("%s+%s / none", pair[0], pair[1])
			if q == 0 {
				s = trace.NewConcat(a.Stream(half), b.Stream(half))
			} else {
				s = trace.NewInterleave(q, a.Stream(half), b.Stream(half))
				label = fmt.Sprintf("%s+%s / %d", pair[0], pair[1], q)
			}
			m := sim.MustNew(sim.Baseline())
			warmRun(m, s, o.instructions())
			c := m.Counters()
			rep.Rows = append(rep.Rows, []string{
				label,
				fmt.Sprintf("%.2f", c.TotalStallPct()),
				fmt.Sprintf("%.2f", 100*c.L1LoadHitRate()),
				fmt.Sprintf("%.2f", 100*m.WBStoreHitRate()),
			})
		}
	}
	return rep, nil
}

func runWriteCache(_ context.Context, o Options) (*Report, error) {
	specs := []ConfigSpec{
		{Label: "buf-4 FF", Cfg: sim.Baseline()},
		{Label: "buf-8 RWB", Cfg: sim.Baseline().WithDepth(8).WithRetire(core.RetireAt{N: 4}).WithHazard(core.ReadFromWB)},
		{Label: "wcache-4", Cfg: sim.Baseline().WithWriteCache(4)},
		{Label: "wcache-8", Cfg: sim.Baseline().WithWriteCache(8)},
	}
	benches := o.benchmarks()
	rep := &Report{
		ID: "ext-writecache", Title: "Write buffer vs write cache",
		Columns: []string{"benchmark"},
		Notes: []string{
			"cells: total stall % | L2 block-writes per 100 stores (the traffic-aggregation metric Jouppi optimised)",
		},
	}
	for _, s := range specs {
		rep.Columns = append(rep.Columns, s.Label)
	}
	// RunMatrixCtx does not expose write counts, so run directly here.
	for _, b := range benches {
		row := []string{b.Name}
		for _, s := range specs {
			m := sim.MustNew(s.Cfg)
			streamWarm(m, b, o.instructions())
			c := m.Counters()
			writes := c.Retirements + c.FlushedEntries
			per100 := float64(0)
			if c.Stores > 0 {
				per100 = 100 * float64(writes) / float64(c.Stores)
			}
			row = append(row, fmt.Sprintf("%5.2f | %5.1f", c.TotalStallPct(), per100))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func runMembar(_ context.Context, o Options) (*Report, error) {
	periods := []uint64{0, 1000, 200, 50}
	configs := []ConfigSpec{
		{Label: "buf-4", Cfg: sim.Baseline()},
		{Label: "buf-12 RWB", Cfg: sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8}).WithHazard(core.ReadFromWB)},
		{Label: "wcache-8", Cfg: sim.Baseline().WithWriteCache(8)},
	}
	benches := o.benchmarks()
	rep := &Report{
		ID: "ext-membar", Title: "Membar drain cost",
		Columns: []string{"benchmark / period"},
		Notes: []string{
			"cells: total stall % (membar-drain component) — deeper/lazier write stages pay more per barrier",
		},
	}
	for _, cfgSpec := range configs {
		rep.Columns = append(rep.Columns, cfgSpec.Label)
	}
	for _, b := range benches {
		for _, period := range periods {
			label := fmt.Sprintf("%s / none", b.Name)
			if period > 0 {
				label = fmt.Sprintf("%s / %d", b.Name, period)
			}
			row := []string{label}
			for _, cfgSpec := range configs {
				m := sim.MustNew(cfgSpec.Cfg)
				s := trace.Stream(b.Stream(o.instructions()))
				if period > 0 {
					s = trace.NewInject(s, trace.Ref{Kind: trace.Membar}, period)
				}
				warmRun(m, s, o.instructions())
				c := m.Counters()
				row = append(row, fmt.Sprintf("%5.2f (mb %4.2f)",
					c.TotalStallPct(), c.StallPct(stats.MembarDrain)))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

func runOccupancy(_ context.Context, o Options) (*Report, error) {
	specs := []ConfigSpec{
		{Label: "4d/r2", Cfg: sim.Baseline()},
		{Label: "12d/r2", Cfg: sim.Baseline().WithDepth(12)},
		{Label: "12d/r8", Cfg: sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 8})},
		{Label: "12d/r10", Cfg: sim.Baseline().WithDepth(12).WithRetire(core.RetireAt{N: 10})},
	}
	benches := o.benchmarks()
	rep := &Report{
		ID: "ext-occupancy", Title: "Store-observed write-buffer occupancy",
		Columns: []string{"benchmark"},
		Notes: []string{
			"cells: mean occupancy | % of stores finding <2 entries free — lazy policies erase headroom",
		},
	}
	for _, s := range specs {
		rep.Columns = append(rep.Columns, s.Label)
	}
	for _, b := range benches {
		row := []string{b.Name}
		for _, s := range specs {
			m := sim.MustNew(s.Cfg)
			streamWarm(m, b, o.instructions())
			h := m.OccupancyHistogram()
			var total, tight uint64
			for k, v := range h {
				total += v
				if k >= len(h)-2 {
					tight += v
				}
			}
			pctTight := float64(0)
			if total > 0 {
				pctTight = 100 * float64(tight) / float64(total)
			}
			row = append(row, fmt.Sprintf("%4.1f | %5.2f", m.MeanOccupancy(), pctTight))
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func runAnalytic(_ context.Context, o Options) (*Report, error) {
	rep := &Report{
		ID: "ext-analytic", Title: "Markov model vs simulator (Bernoulli allocating stores, q=0.10)",
		Columns: []string{"config", "model P(block)", "sim P(block)", "model occ", "sim occ"},
		Notes: []string{
			"validation on the model's own workload assumptions; see internal/analytic for the chain",
		},
	}
	const q = 0.10
	for _, tc := range []struct{ depth, hwm int }{{2, 2}, {4, 2}, {6, 2}, {8, 2}, {12, 10}} {
		pred, err := analytic.Solve(analytic.Params{
			AllocRate: q, ServiceLat: 6, Depth: tc.depth, HighWater: tc.hwm,
		})
		if err != nil {
			panic(err)
		}
		m := sim.MustNew(sim.Baseline().WithDepth(tc.depth).WithRetire(core.RetireAt{N: tc.hwm}))
		warmRun(m, bernoulliStores(q, o.instructions()), o.instructions())
		c := m.Counters()
		simBlock := float64(0)
		if c.Stores > 0 {
			simBlock = float64(c.BlockedStores) / float64(c.Stores)
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprintf("%dd/retire-at-%d", tc.depth, tc.hwm),
			fmt.Sprintf("%.4f", pred.PBlocked),
			fmt.Sprintf("%.4f", simBlock),
			fmt.Sprintf("%.2f", pred.MeanOccupancy),
			fmt.Sprintf("%.2f", m.MeanOccupancy()),
		})
	}
	return rep, nil
}

// bernoulliStores mirrors the analytic model's arrival assumptions: each
// instruction is an allocating store (fresh line, never merges) with
// probability q.
func bernoulliStores(q float64, n uint64) trace.Stream {
	refs := make([]trace.Ref, n)
	r := rng.New(7)
	line := mem.Addr(0)
	for i := range refs {
		if r.Bool(q) {
			line += mem.LineBytes
			refs[i] = trace.Ref{Kind: trace.Store, Addr: line}
		} else {
			refs[i] = trace.Ref{Kind: trace.Exec}
		}
	}
	return trace.NewSliceStream(refs)
}

// streamWarm runs a benchmark with the standard warm-up split.
func streamWarm(m *sim.Machine, b workload.Benchmark, n uint64) {
	warmRun(m, b.Stream(n), n)
}

// warmRun executes the first quarter of the stream unmeasured.  The
// implementation lives in dispatch.WarmRun so local and remote execution
// share the warm-up split exactly.
func warmRun(m *sim.Machine, s trace.Stream, n uint64) {
	dispatch.WarmRun(m, s, n)
}
