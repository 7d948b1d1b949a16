package faultline

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The chaos contract: a sweep that survives an injected fault schedule
// must produce byte-identical result JSON to a fault-free run.  Anything
// less — a dropped job, a retried job counted twice, a corrupted
// measurement that slipped through — shows up as a byte diff.

const chaosN = 20_000

func chaosSuite(t *testing.T) ([]workload.Benchmark, []experiment.ConfigSpec) {
	t.Helper()
	var benches []workload.Benchmark
	for _, name := range []string{"li", "compress"} {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("benchmark %q not registered", name)
		}
		benches = append(benches, b)
	}
	specs := []experiment.ConfigSpec{
		{Label: "base", Cfg: sim.Baseline()},
		{Label: "deep", Cfg: sim.Baseline().WithDepth(12)},
		{Label: "lazy", Cfg: sim.Baseline().WithRetire(core.RetireAt{N: 4})},
		{Label: "readWB", Cfg: sim.Baseline().WithHazard(core.ReadFromWB)},
	}
	return benches, specs
}

// chaosJobs is the sweep size: len(benches) × len(specs).
const chaosJobs = 8

// startPool launches nWorkers real worker HTTP servers, each wrapped with
// the scenario pool's middleware, and returns their URLs.
func startPool(t *testing.T, p *Pool, nWorkers int) []string {
	t.Helper()
	addrs := make([]string, nWorkers)
	for i := 0; i < nWorkers; i++ {
		ts := httptest.NewServer(p.Worker(i, nWorkers, dispatch.WorkerHandler(nil, nil)))
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	return addrs
}

// chaosOpts are dispatcher options tuned for test wall-clock: tight
// backoff, a short per-attempt timeout (the hang scenario burns one per
// injected fault), quarantine off by default so scheduled per-attempt
// faults do not bleed into pool-membership changes.
func chaosOpts(reg *metrics.Registry) dispatch.RemoteOptions {
	return dispatch.RemoteOptions{
		JobTimeout:      500 * time.Millisecond,
		MaxRetries:      3,
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      8 * time.Millisecond,
		QuarantineAfter: 100,
		ProbeInterval:   20 * time.Millisecond,
		Metrics:         reg,
	}
}

func matrixJSON(t *testing.T, backend dispatch.Backend) []byte {
	t.Helper()
	benches, specs := chaosSuite(t)
	got, err := experiment.RunMatrixCtx(context.Background(), benches, specs,
		experiment.Options{Instructions: chaosN, Backend: backend})
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	blob, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func localJSON(t *testing.T) []byte {
	t.Helper()
	benches, specs := chaosSuite(t)
	got, err := experiment.RunMatrixCtx(context.Background(), benches, specs,
		experiment.Options{Instructions: chaosN})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestChaosScenarioParity drives the full experiment matrix through a
// worker pool under every scenario in the canonical suite and asserts the
// result JSON is byte-identical to the fault-free local run.
func TestChaosScenarioParity(t *testing.T) {
	want := localJSON(t)
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			pool := NewPool(sc, reg)
			opts := chaosOpts(reg)
			nWorkers := 3
			switch sc.Kind {
			case Partition:
				// Pool-membership fault: quarantine IS the defense here.
				nWorkers = 4
				opts.QuarantineAfter = 1
				opts.ProbeInterval = time.Hour // the dead stay dead
			case Hang:
				opts.JobTimeout = 150 * time.Millisecond
			}
			addrs := startPool(t, pool, nWorkers)
			rem, err := dispatch.NewRemote(addrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rem.Close()

			got := matrixJSON(t, rem)
			if !bytes.Equal(want, got) {
				t.Errorf("result JSON under %s faults differs from fault-free run", sc.Name)
			}
			if pool.Injected() == 0 {
				t.Errorf("scenario %s injected nothing — the parity pass is vacuous", sc.Name)
			}
			if sc.Kind == Corrupt || sc.Kind == BitFlip {
				if n := reg.Counter("dispatch_integrity_rejections_total").Value(); n == 0 {
					t.Errorf("%s faults produced no integrity rejections", sc.Name)
				}
			}
		})
	}
}

// TestChaosFullPartitionDowngrades partitions the entire pool: every
// worker unreachable from the first byte.  With FallbackLocal the sweep
// must complete in-process with identical results and a recorded
// downgrade event.
func TestChaosFullPartitionDowngrades(t *testing.T) {
	sc := Scenario{Name: "blackout", Kind: Partition, Seed: 99, PartitionFraction: 1}
	reg := metrics.NewRegistry()
	pool := NewPool(sc, reg)
	addrs := startPool(t, pool, 2)

	opts := chaosOpts(reg)
	opts.MaxRetries = 1
	opts.QuarantineAfter = 1
	opts.ProbeInterval = time.Hour
	opts.FallbackLocal = true
	var logged bool
	opts.Logf = func(string, ...any) { logged = true }

	rem, err := dispatch.NewRemote(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	got := matrixJSON(t, rem)
	if want := localJSON(t); !bytes.Equal(want, got) {
		t.Error("degraded-to-local sweep differs from the plain local run")
	}
	if rem.Downgrades() == 0 {
		t.Error("full partition completed without recording any downgrade")
	}
	if reg.Counter("dispatch_downgrades_total").Value() != rem.Downgrades() {
		t.Error("downgrade counter and accessor disagree")
	}
	if !logged {
		t.Error("downgrade to local execution was not logged")
	}
}

// TestChaosHedgingCutsStragglers runs a slow-worker scenario with hedging
// enabled: straggling attempts must be beaten by hedges (visible in the
// dispatch_hedge_* counters), results must stay byte-identical, and —
// the double-count trap — the result store in front of the pool must see
// each job exactly once.
func TestChaosHedgingCutsStragglers(t *testing.T) {
	sc := Scenario{Name: "stragglers", Kind: Slow, Seed: 21, Rate: 0.9, MaxFaults: 1,
		Latency: 300 * time.Millisecond}
	reg := metrics.NewRegistry()
	pool := NewPool(sc, reg)
	addrs := startPool(t, pool, 2)

	opts := chaosOpts(reg)
	opts.JobTimeout = 2 * time.Second
	opts.HedgeAfter = 5 * time.Millisecond

	rem, err := dispatch.NewRemote(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	store, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	start := time.Now()
	got := matrixJSON(t, dispatch.NewCached(rem, store, reg))
	elapsed := time.Since(start)

	if want := localJSON(t); !bytes.Equal(want, got) {
		t.Error("hedged sweep differs from the fault-free run")
	}
	wins := reg.Counter("dispatch_hedge_wins_total").Value()
	attempts := reg.Counter("dispatch_hedge_attempts_total").Value()
	if wins == 0 {
		t.Error("no hedge ever beat a straggler (dispatch_hedge_wins_total = 0)")
	}
	if attempts < wins {
		t.Errorf("hedge accounting impossible: %d wins out of %d attempts", wins, attempts)
	}
	// Every straggler beaten by a hedge saves most of the injected
	// latency; with every job slow-targeted and hedges winning, the sweep
	// must finish well under the serial injected delay.
	if serial := time.Duration(chaosJobs) * sc.Latency; elapsed > serial {
		t.Errorf("hedged sweep took %v, slower than the %v serial injected delay", elapsed, serial)
	}
	// No double counting: one dispatch and one store miss per job.
	if n := reg.Counter("dispatch_jobs_dispatched_total").Value(); n != chaosJobs {
		t.Errorf("dispatched %d jobs, want %d (hedges must not count as jobs)", n, chaosJobs)
	}
	if n := reg.Counter("dispatch_store_misses_total").Value(); n != chaosJobs {
		t.Errorf("store saw %d misses, want %d", n, chaosJobs)
	}
}

// TestChaosVerificationCatchesLyingWorker uses the backend-level injector
// as an untrusted inner backend: bit-flipped measurements carry no
// transport checksum to fail, so only local re-verification can catch
// them.  VerifyFraction 1 must abort the sweep loudly.
func TestChaosVerificationCatchesLyingWorker(t *testing.T) {
	// A worker whose answers are wrong but whose transport raises no
	// alarm: the flipped response travels without any checksum header (an
	// old or foreign worker build), so nothing fails in flight.
	lying := dispatch.WorkerHandler(nil, nil)
	flipAll := NewPool(Scenario{Kind: BitFlip, Seed: 7, Rate: 1, MaxFaults: 1 << 20}, nil)
	rewrap := httptest.NewServer(stripChecksum(flipAll.Worker(0, 1, lying)))
	t.Cleanup(rewrap.Close)

	reg := metrics.NewRegistry()
	opts := chaosOpts(reg)
	opts.MaxRetries = 1
	opts.VerifyFraction = 1
	rem, err := dispatch.NewRemote([]string{rewrap.URL}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	benches, specs := chaosSuite(t)
	_, err = experiment.RunMatrixCtx(context.Background(), benches, specs,
		experiment.Options{Instructions: chaosN, Backend: rem})
	if err == nil {
		t.Fatal("sweep accepted bit-flipped measurements despite VerifyFraction=1")
	}
	if reg.Counter("dispatch_verify_failures_total").Value() == 0 {
		t.Error("verification failure was not counted")
	}
	if reg.Counter("dispatch_verify_runs_total").Value() == 0 {
		t.Error("no verification runs recorded")
	}
}

// stripChecksum removes the integrity attestation from responses,
// modelling a worker build that predates (or never implemented) the
// checksum protocol.
func stripChecksum(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cr := capture(inner, r)
		cr.header.Del(dispatch.ChecksumHeader)
		cr.replay(w)
	})
}
