// Command wbopt searches the write-buffer design space instead of sweeping
// it by hand: it enumerates a space of legal machines, spends a cycle-exact
// simulation budget according to a strategy, and reports the Pareto
// frontier of CPI overhead against buffer area — ending with a check that
// the search rediscovers the paper's headline conclusion (deep buffer,
// retire at about half depth, read-from-WB).
//
// Usage:
//
//	wbopt                                          # guided search of the paper's space
//	wbopt -strategy grid                           # exhaustive reference sweep
//	wbopt -space space.json -budget 200 -seed 7    # a custom space under a budget
//	wbopt -workers host1:8101,host2:8101           # fan out to wbserve -worker pools
//	wbopt -store /var/lib/wb/results               # kill it, rerun it, it resumes
//	wbopt -out frontier.json -stats-out bench.json # machine-readable artifacts
//
// The budget counts full-length (configuration × benchmark) simulations;
// the guided strategy screens twice that many candidates at quarter length
// first, so its default budget of 25% of the exhaustive grid typically
// lands within measurement noise of the grid optimum.  A fixed -seed makes
// the frontier JSON byte-reproducible, locally or through workers.
//
// See docs/EXPLORATION.md for the space-file format and strategy details.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/explore"
	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	var (
		spacePath  = flag.String("space", "", "space JSON file (default: the paper's depth × retire × hazard space)")
		baseSpec   = flag.String("base", "", "base machine spec (machconf key=value string or @file.json); overrides the space file's base")
		strategy   = flag.String("strategy", "guided", "search strategy: guided, grid, random")
		budget     = flag.Float64("budget", 0, "cycle-exact budget in full-length (config × benchmark) simulations; 0 = grid: unlimited, guided/random: 25% of the grid")
		n          = flag.Uint64("n", 1_000_000, "dynamic instructions per full-length run")
		seed       = flag.Uint64("seed", 1, "search seed; fixed seed + space + budget = byte-identical frontier JSON")
		benchCSV   = flag.String("benchmarks", "", "comma-separated benchmark subset (default: the full suite)")
		top        = flag.Int("top", 10, "ranked configurations to print")
		out        = flag.String("out", "", "write the canonical result JSON (frontier, rankings) to this file")
		statsOut   = flag.String("stats-out", "", "write wall-clock search statistics (jobs/sec, sims skipped) to this JSON file")
		workersCSV = flag.String("workers", "", "comma-separated wbserve -worker addresses to dispatch simulations to")
		storeDir   = flag.String("store", "", "shared content-addressed result-store directory (same as wbserve/wbexp -store); simulations any process already paid for are never re-run, so a killed search resumes when rerun")
		verify     = flag.Float64("verify", 0, "fraction (0..1] of remote simulations to re-execute locally; any divergence aborts the search")
		quiet      = flag.Bool("quiet", false, "suppress the live progress line on stderr")
	)
	flag.Parse()

	space, err := loadSpace(*spacePath, *baseSpec)
	if err != nil {
		fatalf("%v", err)
	}
	strat, ok := explore.ByName(*strategy)
	if !ok {
		fatalf("unknown strategy %q (want guided, grid, or random)", *strategy)
	}
	benches, err := pickBenches(*benchCSV)
	if err != nil {
		fatalf("%v", err)
	}

	reg := metrics.NewRegistry()
	backend, closeBackend, err := dispatch.BuildBackendOpts(dispatch.BuildOptions{
		Workers:        *workersCSV,
		Store:          *storeDir,
		VerifyFraction: *verify,
		Metrics:        reg,
		Logf:           func(format string, args ...any) { fmt.Fprintf(os.Stderr, "wbopt: "+format+"\n", args...) },
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer closeBackend()

	env := explore.Env{
		Benches: benches,
		N:       *n,
		Budget:  *budget,
		Seed:    *seed,
		Backend: backend,
		Metrics: reg,
	}
	if !*quiet {
		env.Progress = experiment.ProgressReporter(os.Stderr, "wbopt/"+strat.Name())
	}

	// SIGINT/SIGTERM cancel the search context: dispatch stops promptly
	// (mid-backoff and mid-hedge included) and, with -store, the store
	// holds every finished simulation for the rerun to resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	res, err := strat.Search(ctx, space, env)
	if err != nil {
		if ctx.Err() != nil && *storeDir != "" {
			fmt.Fprintf(os.Stderr, "wbopt: interrupted; rerun with -store %s to resume\n", *storeDir)
		}
		fatalf("%v", err)
	}
	wall := time.Since(start)

	printReport(res, *top)

	if *out != "" {
		blob, err := res.MarshalCanonical()
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *statsOut != "" {
		if err := writeStats(*statsOut, res, wall); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", *statsOut)
	}
}

// loadSpace resolves the search space: a space file, the built-in default,
// and an optional base-machine override on top of either.
func loadSpace(path, baseSpec string) (*explore.Space, error) {
	space := explore.Default()
	if path != "" {
		s, err := explore.LoadFile(path)
		if err != nil {
			return nil, err
		}
		space = s
	}
	if baseSpec != "" {
		base, err := machconf.ParseSpec(baseSpec)
		if err != nil {
			return nil, fmt.Errorf("-base: %w", err)
		}
		space.Base = &base
	}
	return space, nil
}

// pickBenches resolves the -benchmarks subset.
func pickBenches(csv string) ([]workload.Benchmark, error) {
	if csv == "" {
		return nil, nil
	}
	var out []workload.Benchmark
	for _, name := range strings.Split(csv, ",") {
		b, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		out = append(out, b)
	}
	return out, nil
}

// printReport renders the human-readable search summary: spend, ranking,
// frontier, and the paper-conclusion check.
func printReport(res *explore.Result, top int) {
	fmt.Printf("strategy %s  seed %d  space %d configurations  suite %d benchmarks  n %d\n",
		res.Strategy, res.Seed, res.SpaceSize, len(res.Suite), res.N)
	gridJobs := res.SpaceSize * len(res.Suite)
	fmt.Printf("budget %.0f full-length sims (grid: %d)  spent %.1f  runs %d  pruned %d\n\n",
		res.Budget, gridJobs, res.CostSpent, res.SimsRun, res.SimsSkipped)

	if top > len(res.Evaluated) {
		top = len(res.Evaluated)
	}
	fmt.Printf("top configurations (suite-mean write-buffer CPI overhead):\n")
	fmt.Printf("  %4s  %10s  %6s  %s\n", "rank", "CPI ovh", "cost", "configuration")
	for i := 0; i < top; i++ {
		e := res.Evaluated[i]
		fmt.Printf("  %4d  %10.5f  %6d  %s\n", i+1, e.CPIOverhead, e.Cost, e.Label)
	}

	fmt.Printf("\nPareto frontier (cost proxy vs CPI overhead):\n")
	for _, p := range res.Frontier {
		fmt.Printf("  cost %4d  CPI ovh %8.5f  %s\n", p.Cost, p.CPIOverhead, p.Label)
	}

	c := res.PaperCheck()
	fmt.Printf("\npaper check:\n")
	fmt.Printf("  read-from-WB on the frontier:   %s\n", yesno(c.FrontierHasReadFromWB))
	fmt.Printf("  best configuration:             %s (hazard %s)\n", c.BestLabel, c.BestHazard)
	if c.BestRetireRatio > 0 {
		fmt.Printf("  best retire/depth ratio:        %.2f (near half: %s)\n", c.BestRetireRatio, yesno(c.RetireNearHalf))
	}
	fmt.Printf("  headline conclusion rediscovered: %s\n", yesno(c.Rediscovered))
}

func yesno(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// searchStats is the -stats-out artifact: wall-clock figures deliberately
// kept out of the deterministic result JSON.
type searchStats struct {
	Strategy    string  `json:"strategy"`
	SpaceSize   int     `json:"space_size"`
	Suite       int     `json:"suite"`
	N           uint64  `json:"n"`
	Budget      float64 `json:"budget"`
	SimsRun     int     `json:"sims_run"`
	SimsSkipped int     `json:"sims_skipped"`
	CostSpent   float64 `json:"cost_spent"`
	WallSeconds float64 `json:"wall_seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	Frontier    int     `json:"frontier_size"`
}

func writeStats(path string, res *explore.Result, wall time.Duration) error {
	s := searchStats{
		Strategy:    res.Strategy,
		SpaceSize:   res.SpaceSize,
		Suite:       len(res.Suite),
		N:           res.N,
		Budget:      res.Budget,
		SimsRun:     res.SimsRun,
		SimsSkipped: res.SimsSkipped,
		CostSpent:   res.CostSpent,
		WallSeconds: wall.Seconds(),
		Frontier:    len(res.Frontier),
	}
	if wall > 0 {
		s.JobsPerSec = float64(res.SimsRun) / wall.Seconds()
	}
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wbopt: "+format+"\n", args...)
	os.Exit(1)
}
