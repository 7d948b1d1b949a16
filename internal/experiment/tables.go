package experiment

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/workload"
)

func init() {
	registerExperiment(Experiment{
		ID:    "table4",
		Title: "Dynamic instruction mix of the benchmark suite (measured vs paper)",
		Run:   runTable4,
	})
	registerExperiment(Experiment{
		ID:    "table5",
		Title: "L1 load hit rate and write-buffer store hit rate, baseline model (measured vs paper)",
		Run:   runTable5,
	})
	registerExperiment(Experiment{
		ID:    "table6",
		Title: "NASA kernels before and after column-major-fixing transformations",
		Run:   runTable6,
	})
	registerExperiment(Experiment{
		ID:    "table7",
		Title: "L1 and L2 hit rates with finite L2 caches (128K/512K/1M, memory 25 cycles)",
		Run:   runTable7,
	})
}

func runTable4(ctx context.Context, o Options) (*Report, error) {
	benches := o.benchmarks()
	matrix, err := RunMatrixCtx(ctx, benches, []ConfigSpec{{Label: "base", Cfg: sim.Baseline()}}, o)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID: "table4", Title: "Dynamic instruction mix (percent of instructions)",
		Columns: []string{"benchmark", "loads", "paper", "stores", "paper"},
	}
	for bi, b := range benches {
		c := matrix[bi][0].C
		rep.Rows = append(rep.Rows, []string{
			b.Name,
			fmt.Sprintf("%.1f", 100*float64(c.Loads)/float64(c.Instructions)),
			fmt.Sprintf("%.1f", b.Target.PctLoads),
			fmt.Sprintf("%.1f", 100*float64(c.Stores)/float64(c.Instructions)),
			fmt.Sprintf("%.1f", b.Target.PctStores),
		})
	}
	return rep, nil
}

func runTable5(ctx context.Context, o Options) (*Report, error) {
	benches := o.benchmarks()
	matrix, err := RunMatrixCtx(ctx, benches, []ConfigSpec{{Label: "base", Cfg: sim.Baseline()}}, o)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID: "table5", Title: "Baseline hit rates (percent)",
		Columns: []string{"benchmark", "L1 hit", "paper", "WB hit", "paper"},
	}
	for bi, b := range benches {
		m := matrix[bi][0]
		rep.Rows = append(rep.Rows, []string{
			b.Name,
			pct(m.L1Hit), fmt.Sprintf("%.2f", b.Target.L1HitRate),
			pct(m.WBHit), fmt.Sprintf("%.2f", b.Target.WBHitRate),
		})
	}
	return rep, nil
}

func runTable6(ctx context.Context, o Options) (*Report, error) {
	rep := &Report{
		ID: "table6", Title: "Loop interchange (gmtry) and array transposition (cholsky)",
		Columns: []string{"benchmark", "L1 hit", "paper", "WB hit", "paper", "total stall %"},
		Notes: []string{
			"transformed variants traverse their arrays at unit stride; " +
				"the paper reports they suffer almost no write-buffer stalls afterwards",
		},
	}
	var pairs []workload.Benchmark
	for _, name := range []string{"gmtry", "gmtry-t", "cholsky", "cholsky-t"} {
		b, ok := workload.ByName(name)
		if !ok {
			panic("experiment: missing kernel " + name)
		}
		pairs = append(pairs, b)
	}
	matrix, err := RunMatrixCtx(ctx, pairs, []ConfigSpec{{Label: "base", Cfg: sim.Baseline()}}, o)
	if err != nil {
		return nil, err
	}
	for bi, b := range pairs {
		m := matrix[bi][0]
		rep.Rows = append(rep.Rows, []string{
			b.Name,
			pct(m.L1Hit), fmt.Sprintf("%.1f", b.Target.L1HitRate),
			pct(m.WBHit), fmt.Sprintf("%.1f", b.Target.WBHitRate),
			fmt.Sprintf("%.2f", m.C.TotalStallPct()),
		})
	}
	return rep, nil
}

func runTable7(ctx context.Context, o Options) (*Report, error) {
	benches := o.benchmarks()
	specs := []ConfigSpec{
		{Label: "128K", Cfg: sim.Baseline().WithL2(128 << 10)},
		{Label: "512K", Cfg: sim.Baseline().WithL2(512 << 10)},
		{Label: "1M", Cfg: sim.Baseline().WithL2(1 << 20)},
	}
	matrix, err := RunMatrixCtx(ctx, benches, specs, o)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID: "table7", Title: "Hit rates with finite L2 caches (percent)",
		Columns: []string{"benchmark", "L1 hit", "L2@128K", "L2@512K", "L2@1M"},
		Notes: []string{
			"L1 hit rate shown for the 1M configuration; inclusion invalidations " +
				"can lower it slightly versus Table 5, as the paper notes",
		},
	}
	for bi, b := range benches {
		rep.Rows = append(rep.Rows, []string{
			b.Name,
			pct(matrix[bi][2].L1Hit),
			pct(matrix[bi][0].L2Hit),
			pct(matrix[bi][1].L2Hit),
			pct(matrix[bi][2].L2Hit),
		})
	}
	return rep, nil
}
