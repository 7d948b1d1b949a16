package explore

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Env is everything a search needs besides the space: the benchmark suite,
// the per-run instruction count, the simulation budget, the seed, and the
// execution/observability plumbing shared with the experiment harness.
type Env struct {
	// Benches is the evaluation suite; empty means workload.All().  For a
	// distributed Backend the benchmarks must be name-resolvable, as with
	// experiment matrices.
	Benches []workload.Benchmark
	// N is the full-length dynamic instruction count per (configuration,
	// benchmark) run; zero selects the experiment default of one million.
	N uint64
	// Budget caps cycle-exact work, measured in full-length simulator
	// runs: the exhaustive grid over a space S and suite W costs
	// |S|×|W|, and a screening run at N/4 costs 0.25.  Zero means
	// "unlimited" for Grid and "25% of the grid" for Random and Guided.
	Budget float64
	// Seed drives every stochastic choice a strategy makes.  Fixed seed,
	// space, budget, and suite give byte-identical Results on any
	// backend.
	Seed uint64
	// Backend, Metrics, and Progress are threaded through
	// experiment.RunMatrixCtx unchanged: nil Backend runs in-process,
	// a dispatch.Remote fans out to wbserve workers, a dispatch.Cached
	// stores completed runs keyed on the machconf hash so a rerun
	// resumes.
	Backend  dispatch.Backend
	Metrics  *metrics.Registry
	Progress func(experiment.ProgressEvent)
}

func (e Env) benches() []workload.Benchmark {
	if len(e.Benches) == 0 {
		return workload.All()
	}
	return e.Benches
}

func (e Env) n() uint64 {
	if e.N == 0 {
		return 1_000_000
	}
	return e.N
}

// Strategy decides how to spend the simulation budget over a space.
type Strategy interface {
	// Name is the CLI identifier ("grid", "random", "guided").
	Name() string
	// Search runs the strategy to completion and returns the ranked,
	// frontier-reduced result.
	Search(ctx context.Context, space *Space, env Env) (*Result, error)
}

// ByName resolves a strategy identifier.
func ByName(name string) (Strategy, bool) {
	switch name {
	case "grid", "exhaustive":
		return Grid{}, true
	case "random":
		return Random{}, true
	case "guided":
		return Guided{}, true
	}
	return nil, false
}

// Grid is the exhaustive baseline: every legal candidate is simulated at
// full length.  It ignores the budget (its cost IS the reference budget the
// other strategies are measured against).
type Grid struct{}

// Name implements Strategy.
func (Grid) Name() string { return "grid" }

// Search implements Strategy.
func (Grid) Search(ctx context.Context, space *Space, env Env) (*Result, error) {
	cands, err := space.Enumerate()
	if err != nil {
		return nil, err
	}
	r := newResult("grid", env, len(cands))
	if err := evaluateFull(ctx, env, cands, r); err != nil {
		return nil, err
	}
	finish(r, env)
	return r, nil
}

// Random simulates a seeded uniform sample of the space at full length —
// the classic baseline an informed search must beat.  The sample size is
// the budget in full-length runs divided by the suite size.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Search implements Strategy.
func (Random) Search(ctx context.Context, space *Space, env Env) (*Result, error) {
	cands, err := space.Enumerate()
	if err != nil {
		return nil, err
	}
	nb := len(env.benches())
	budget := env.Budget
	if budget <= 0 {
		budget = 0.25 * float64(len(cands)*nb)
	}
	k := int(budget) / nb
	if k < 1 {
		k = 1
	}
	if k > len(cands) {
		k = len(cands)
	}
	// Seeded Fisher–Yates over a copy; the sample is the prefix.
	sample := append([]Candidate(nil), cands...)
	r := rng.New(env.Seed)
	for i := len(sample) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		sample[i], sample[j] = sample[j], sample[i]
	}
	sample = sample[:k]

	res := newResult("random", env, len(cands))
	res.Budget = budget
	res.SimsSkipped = (len(cands) - k) * nb
	if err := evaluateFull(ctx, env, sample, res); err != nil {
		return nil, err
	}
	finish(res, env)
	return res, nil
}

// Guided is the analytic-guided two-stage search.  Stage one costs no
// simulation at all: every candidate is scored with the Markov model
// (ScoreSuite) and ranked.  The cycle-exact budget is then spent
// successive-halving style on the predicted frontier:
//
//	rung 0  the top 2B analytically ranked candidates run at N/4
//	        instructions (screening fidelity, cost 0.25 each);
//	rung 1  the measured top half of the remaining budget runs at the
//	        full N, and only these full-fidelity evaluations enter the
//	        result and its frontiers,
//
// where B = budget/|suite| is the budget in full-length configuration
// evaluations.  The analytic model only has to place the true optimum
// somewhere in the top 2B of the space — a far weaker demand than
// predicting the winner — and the screening rung's real (if short)
// simulations do the fine ranking.
type Guided struct{}

// Name implements Strategy.
func (Guided) Name() string { return "guided" }

// Search implements Strategy.
func (Guided) Search(ctx context.Context, space *Space, env Env) (*Result, error) {
	cands, err := space.Enumerate()
	if err != nil {
		return nil, err
	}
	benches := env.benches()
	nb := len(benches)
	budget := env.Budget
	if budget <= 0 {
		budget = 0.25 * float64(len(cands)*nb)
	}
	res := newResult("guided", env, len(cands))
	res.Budget = budget

	// Stage one: rank everything with the analytic model.  Free.
	type scored struct {
		c     Candidate
		score float64
	}
	ranked := make([]scored, len(cands))
	for i, c := range cands {
		s, err := ScoreSuite(benches, c.Cfg)
		if err != nil {
			return nil, fmt.Errorf("explore: scoring %s: %w", c.Label, err)
		}
		ranked[i] = scored{c, s}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score < ranked[j].score
		}
		return ranked[i].c.Hash < ranked[j].c.Hash
	})

	// Budget split across the two rungs, in full-length config units.
	// Spending k0 screens plus k1 promotions costs 0.25·k0 + k1, which
	// must stay within b; if screening 2b candidates would leave no room
	// for a single full run, shrink the screen until it does.  Below the
	// feasibility floor of 1.25 units the minimal search (one screen, one
	// full run) overspends by necessity.
	b := budget / float64(nb)
	k0 := int(math.Floor(2 * b))
	if k0 > len(ranked) {
		k0 = len(ranked)
	}
	if math.Floor(b-float64(k0)*0.25) < 1 {
		k0 = int(math.Floor(4 * (b - 1)))
	}
	if k0 < 1 {
		k0 = 1
	}
	k1 := int(math.Floor(b - float64(k0)*0.25))
	if k1 < 1 {
		k1 = 1
	}
	if k1 > k0 {
		k1 = k0
	}

	// Rung 0: screen the analytic top k0 at quarter fidelity.
	screen := make([]Candidate, k0)
	for i := range screen {
		screen[i] = ranked[i].c
	}
	n0 := env.n() / 4
	if n0 < 4 {
		n0 = 4
	}
	screenEnv := env
	screenEnv.N = n0
	screened, err := runMatrix(ctx, screenEnv, screen)
	if err != nil {
		return nil, err
	}
	res.Screened = k0
	res.SimsRun += k0 * nb
	res.CostSpent += float64(k0*nb) * float64(n0) / float64(env.n())
	res.SimsSkipped = (len(cands) - k0) * nb
	if env.Metrics != nil {
		env.Metrics.Counter("explore_screen_sims_total").Add(uint64(k0 * nb))
	}

	// Promote the measured best k1 to full fidelity.
	type measured struct {
		c        Candidate
		overhead float64
	}
	ms := make([]measured, k0)
	for ci, c := range screen {
		var sum float64
		for bi := range benches {
			m := screened[bi][ci]
			sum += overheadOf(m)
		}
		ms[ci] = measured{c, sum / float64(nb)}
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].overhead != ms[j].overhead {
			return ms[i].overhead < ms[j].overhead
		}
		return ms[i].c.Hash < ms[j].c.Hash
	})
	finalists := make([]Candidate, k1)
	for i := range finalists {
		finalists[i] = ms[i].c
	}

	// Rung 1: full-length evaluation; only these enter the result.
	if err := evaluateFull(ctx, env, finalists, res); err != nil {
		return nil, err
	}
	finish(res, env)
	return res, nil
}

// newResult seeds the common Result fields.
func newResult(strategy string, env Env, spaceSize int) *Result {
	benches := env.benches()
	suite := make([]string, len(benches))
	for i, b := range benches {
		suite[i] = b.Name
	}
	if env.Metrics != nil {
		env.Metrics.Counter("explore_candidates_total").Add(uint64(spaceSize))
	}
	return &Result{
		Strategy:  strategy,
		Seed:      env.Seed,
		N:         env.n(),
		Budget:    float64(spaceSize * len(benches)),
		SpaceSize: spaceSize,
		Suite:     suite,
	}
}

// runMatrix evaluates candidates through the experiment harness, returning
// measurements indexed [benchmark][candidate].
func runMatrix(ctx context.Context, env Env, cands []Candidate) ([][]experiment.Measurement, error) {
	specs := make([]experiment.ConfigSpec, len(cands))
	for i, c := range cands {
		specs[i] = experiment.ConfigSpec{Label: c.Label, Cfg: c.Cfg}
	}
	return experiment.RunMatrixCtx(ctx, env.benches(), specs, experiment.Options{
		Instructions: env.N,
		Backend:      env.Backend,
		Metrics:      env.Metrics,
		Progress:     env.Progress,
	})
}

// overheadOf is the per-run objective: all write-buffer-induced stall
// cycles per instruction.
func overheadOf(m experiment.Measurement) float64 {
	if m.C.Instructions == 0 {
		return 0
	}
	return float64(m.C.WBStallCycles()) / float64(m.C.Instructions)
}

// evaluateFull runs candidates at full length and appends their ranked
// evaluations to the result.
func evaluateFull(ctx context.Context, env Env, cands []Candidate, res *Result) error {
	if len(cands) == 0 {
		return nil
	}
	benches := env.benches()
	fullEnv := env
	fullEnv.N = env.n()
	matrix, err := runMatrix(ctx, fullEnv, cands)
	if err != nil {
		return err
	}
	nb := len(benches)
	res.SimsRun += len(cands) * nb
	res.CostSpent += float64(len(cands) * nb)
	if res.Screened < len(cands) {
		res.Screened = len(cands)
	}
	if env.Metrics != nil {
		env.Metrics.Counter("explore_full_sims_total").Add(uint64(len(cands) * nb))
	}
	for ci, c := range cands {
		canon, err := machconf.Encode(c.Cfg)
		if err != nil {
			return err
		}
		hazard := c.Cfg.Hazard.String()
		if c.Cfg.WriteCacheDepth > 0 {
			hazard = "write-cache"
		}
		e := Eval{
			Label:  c.Label,
			Hash:   c.Hash,
			Config: canon,
			Cost:   CostProxy(c.Cfg),
			Hazard: hazard,
		}
		var sum float64
		for bi, b := range benches {
			ov := overheadOf(matrix[bi][ci])
			e.PerBench = append(e.PerBench, BenchPoint{Bench: b.Name, CPIOverhead: ov})
			sum += ov
		}
		e.CPIOverhead = sum / float64(nb)
		res.Evaluated = append(res.Evaluated, e)
	}
	return nil
}

// finish ranks the evaluations and computes the frontiers.
func finish(res *Result, env Env) {
	sort.Slice(res.Evaluated, func(i, j int) bool {
		if res.Evaluated[i].CPIOverhead != res.Evaluated[j].CPIOverhead {
			return res.Evaluated[i].CPIOverhead < res.Evaluated[j].CPIOverhead
		}
		return res.Evaluated[i].Hash < res.Evaluated[j].Hash
	})
	var agg Frontier
	for _, e := range res.Evaluated {
		agg.Add(Point{Label: e.Label, Hash: e.Hash, Cost: e.Cost, Hazard: e.Hazard, CPIOverhead: e.CPIOverhead})
	}
	res.Frontier = agg.Points()
	for bi, name := range res.Suite {
		var f Frontier
		for _, e := range res.Evaluated {
			f.Add(Point{Label: e.Label, Hash: e.Hash, Cost: e.Cost, Hazard: e.Hazard, CPIOverhead: e.PerBench[bi].CPIOverhead})
		}
		res.PerBench = append(res.PerBench, BenchFrontier{Bench: name, Points: f.Points()})
	}
	if env.Metrics != nil {
		env.Metrics.Gauge("explore_frontier_size").Set(float64(len(res.Frontier)))
		env.Metrics.Counter("explore_sims_total").Add(uint64(res.SimsRun))
		env.Metrics.Counter("explore_sims_skipped_total").Add(uint64(res.SimsSkipped))
	}
}
