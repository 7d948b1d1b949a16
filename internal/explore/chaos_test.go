package explore

import (
	"bytes"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/faultline"
	"repro/internal/metrics"
)

// The wbopt-path chaos contract: a guided design-space search driven
// through a worker pool under fault injection must render canonical
// result JSON byte-identical to the fault-free in-process run.  This is
// the acceptance artifact (wbopt -out) — if it survives chaos unchanged,
// so does every conclusion drawn from it.
func TestChaosGuidedSearchParity(t *testing.T) {
	env := smallEnv(42)
	env.Budget = 8
	want := canonical(t, Guided{}, env)

	for _, sc := range faultline.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			pool := faultline.NewPool(sc, reg)
			opts := dispatch.RemoteOptions{
				JobTimeout:      500 * time.Millisecond,
				MaxRetries:      3,
				BaseBackoff:     time.Millisecond,
				MaxBackoff:      8 * time.Millisecond,
				QuarantineAfter: 100,
				ProbeInterval:   20 * time.Millisecond,
				Metrics:         reg,
			}
			nWorkers := 3
			switch sc.Kind {
			case faultline.Partition:
				nWorkers = 4
				opts.QuarantineAfter = 1
				opts.ProbeInterval = time.Hour
			case faultline.Hang:
				opts.JobTimeout = 150 * time.Millisecond
			}
			addrs := make([]string, nWorkers)
			for i := 0; i < nWorkers; i++ {
				ts := httptest.NewServer(pool.Worker(i, nWorkers, dispatch.WorkerHandler(nil, nil)))
				t.Cleanup(ts.Close)
				addrs[i] = ts.URL
			}
			rem, err := dispatch.NewRemote(addrs, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rem.Close()

			chaosEnv := smallEnv(42)
			chaosEnv.Budget = 8
			chaosEnv.Backend = rem
			got := canonical(t, Guided{}, chaosEnv)
			if !bytes.Equal(want, got) {
				t.Errorf("canonical search artifact under %s faults differs from fault-free run", sc.Name)
			}
			if pool.Injected() == 0 {
				t.Logf("note: scenario %s targeted no job in this search (parity still holds)", sc.Name)
			}
		})
	}
}
