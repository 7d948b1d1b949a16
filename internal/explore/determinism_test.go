package explore

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/metrics"
	"repro/internal/resultstore"
)

// Satellite of the reproducibility story: a fixed (space, seed, budget,
// suite, n) must render byte-identical canonical result JSON on every run
// and on every backend.  Resuming over the result store, the acceptance
// criterion, and wbopt's -out artifact all key on this.

func detSpace() *Space {
	return &Space{
		Depths:  []int{2, 4, 8},
		Retires: []int{1, 2, 4},
		Hazards: []core.HazardPolicy{core.FlushFull, core.ReadFromWB},
	}
}

func canonical(t *testing.T, strat Strategy, env Env) []byte {
	t.Helper()
	res, err := strat.Search(context.Background(), detSpace(), env)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestSameSeedByteIdentical(t *testing.T) {
	for _, name := range []string{"grid", "random", "guided"} {
		strat, _ := ByName(name)
		env := smallEnv(42)
		env.Budget = 8
		a := canonical(t, strat, env)
		b := canonical(t, strat, env)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two same-seed runs differ", name)
		}
	}
}

func TestDifferentSeedChangesRandom(t *testing.T) {
	envA, envB := smallEnv(1), smallEnv(2)
	envA.Budget, envB.Budget = 4, 4
	a := canonical(t, Random{}, envA)
	b := canonical(t, Random{}, envB)
	if bytes.Equal(a, b) {
		t.Error("random sample insensitive to the seed (suspicious for this space)")
	}
}

// TestLocalWorkerByteParity runs the guided search once in-process and once
// through a Remote backend against a real worker HTTP surface; the two
// canonical artifacts must be byte-identical.
func TestLocalWorkerByteParity(t *testing.T) {
	env := smallEnv(42)
	env.Budget = 8
	local := canonical(t, Guided{}, env)

	ts := httptest.NewServer(dispatch.WorkerHandler(nil, nil))
	defer ts.Close()
	rem, err := dispatch.NewRemote([]string{ts.URL}, dispatch.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	env.Backend = rem
	remote := canonical(t, Guided{}, env)

	if !bytes.Equal(local, remote) {
		t.Fatal("guided search differs between local and worker execution")
	}
}

// storeBackend is one process's view of the result store in dir:
// Cached(Local) over a freshly opened handle, so a second call sees only
// what the first persisted.
func storeBackend(t *testing.T, dir string, reg *metrics.Registry) dispatch.Backend {
	t.Helper()
	s, err := resultstore.Open(dir, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return dispatch.NewCached(&dispatch.Local{}, s, reg)
}

// TestCheckpointResume stores a guided search, then reruns it over the
// same store: every simulation is a store hit, none run, and the artifact
// is byte-identical.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	env := smallEnv(42)
	env.Budget = 8

	env.Backend = storeBackend(t, dir, nil)
	first := canonical(t, Guided{}, env)

	reg := metrics.NewRegistry()
	env.Backend = storeBackend(t, dir, reg)
	second := canonical(t, Guided{}, env)

	if reg.Counter("dispatch_store_hits_total").Value() == 0 {
		t.Fatal("store empty on resume")
	}
	if n := reg.Counter("dispatch_store_misses_total").Value(); n != 0 {
		t.Errorf("resumed search simulated %d jobs, want 0", n)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("resumed search differs from the original")
	}
}
