package explore

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ftlSpace is the organization sweep the determinism tests pin: org ×
// numbuffers × sectorbits over two depths.
func ftlSpace() *Space {
	return &Space{
		Depths:     []int{4, 8},
		Orgs:       []string{"fifo", "ftl"},
		NumBufs:    []int{1, 2, 4},
		SectorBits: []int{0, 1},
		Retires:    []int{2},
	}
}

func TestEnumerateOrgAxes(t *testing.T) {
	cands, err := ftlSpace().Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	// Per depth: 1 fifo (nb/sb pinned) + 3×2 ftl shapes, all legal since
	// 1,2,4 divide both 4 and 8.  Two depths → 14 candidates.
	if len(cands) != 14 {
		for _, c := range cands {
			t.Log(c.Label)
		}
		t.Fatalf("got %d candidates, want 14", len(cands))
	}
	var fifo, ftl int
	for _, c := range cands {
		switch org := c.Cfg.Org.(type) {
		case nil:
			fifo++
			if strings.Contains(c.Label, "numbuffers") {
				t.Errorf("fifo label %q carries ftl keys", c.Label)
			}
		case core.FTLOrg:
			ftl++
			if !strings.Contains(c.Label, "org=ftl") {
				t.Errorf("ftl label %q lacks org key", c.Label)
			}
			// Labels are ParseSpec specs; they must round-trip to the
			// candidate's own machine.
			cfg, err := machconf.ParseSpec(c.Label)
			if err != nil {
				t.Errorf("label %q does not parse: %v", c.Label, err)
				continue
			}
			hash, _ := machconf.Hash(cfg)
			if hash != c.Hash {
				t.Errorf("label %q parses to a different machine (org %+v)", c.Label, org)
			}
		}
	}
	if fifo != 2 || ftl != 12 {
		t.Errorf("fifo=%d ftl=%d, want 2 and 12", fifo, ftl)
	}
}

// TestEnumerateDropsIndivisibleShapes: numbuffers that do not divide the
// depth are pruned by validation, not fatal.
func TestEnumerateDropsIndivisibleShapes(t *testing.T) {
	s := &Space{Depths: []int{4}, Orgs: []string{"ftl"}, NumBufs: []int{2, 8}}
	cands, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want only the dividing shape", len(cands))
	}
	if got := cands[0].Cfg.Org; !reflect.DeepEqual(got, core.FTLOrg{NumBuffers: 2}) {
		t.Errorf("surviving org = %#v", got)
	}
}

// TestEnumerateWCachePinsOrg: a write-cache point ignores the organization
// axes entirely and carries no Org, so the axis product cannot mint
// distinct hashes for identical machines.
func TestEnumerateWCachePinsOrg(t *testing.T) {
	s := &Space{
		Orgs:    []string{"fifo", "ftl"},
		NumBufs: []int{1, 2},
		WCaches: []int{0, 8},
	}
	cands, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	var wcache int
	for _, c := range cands {
		if c.Cfg.WriteCacheDepth > 0 {
			wcache++
			if c.Cfg.Org != nil {
				t.Errorf("write-cache candidate %q carries org %#v", c.Label, c.Cfg.Org)
			}
		}
	}
	if wcache != 1 {
		t.Errorf("got %d write-cache candidates, want exactly 1", wcache)
	}
}

func TestCostProxyFTL(t *testing.T) {
	fifo := sim.Baseline().WithDepth(8)
	if got, want := CostProxy(fifo.WithOrg(core.FTLOrg{NumBuffers: 1})), CostProxy(fifo); got != want {
		t.Errorf("degenerate ftl cost %d != fifo cost %d", got, want)
	}
	if got, want := CostProxy(fifo.WithOrg(core.FTLOrg{NumBuffers: 4})), CostProxy(fifo)+3; got != want {
		t.Errorf("4-buffer ftl cost %d, want fifo+3 = %d", got, want)
	}
	// Coarser granules never cost more than finer ones at equal striping.
	fine := CostProxy(fifo.WithOrg(core.FTLOrg{NumBuffers: 2, SectorBits: 0}))
	coarse := CostProxy(fifo.WithOrg(core.FTLOrg{NumBuffers: 2, SectorBits: 2}))
	if coarse > fine {
		t.Errorf("coarse-mask cost %d exceeds fine-mask cost %d", coarse, fine)
	}
}

// TestFTLResidualOrdering: the registered ftl residual must rank heavier
// striping as more expensive at fixed depth, and leave the degenerate
// shape exactly at the fifo score.
func TestFTLResidualOrdering(t *testing.T) {
	b, _ := workload.ByName("cholsky")
	base := sim.Baseline().WithDepth(8)
	fifoScore, err := Score(b.Target, base)
	if err != nil {
		t.Fatal(err)
	}
	prev := fifoScore
	for _, nb := range []int{1, 2, 4} {
		s, err := Score(b.Target, base.WithOrg(core.FTLOrg{NumBuffers: nb}))
		if err != nil {
			t.Fatal(err)
		}
		if nb == 1 && s != fifoScore {
			t.Errorf("degenerate ftl score %v != fifo score %v", s, fifoScore)
		}
		if s < prev {
			t.Errorf("numbuffers=%d scored %v, below the less-striped %v", nb, s, prev)
		}
		prev = s
	}
}

// TestFTLSameSeedByteIdentical extends the reproducibility contract to the
// organization sweep: fixed (space, seed, budget, suite, n) renders
// byte-identical canonical result JSON for every strategy.
func TestFTLSameSeedByteIdentical(t *testing.T) {
	run := func(strat Strategy) []byte {
		env := smallEnv(42)
		env.Budget = 8
		res, err := strat.Search(context.Background(), ftlSpace(), env)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := res.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	for _, name := range []string{"grid", "random", "guided"} {
		strat, _ := ByName(name)
		if a, b := run(strat), run(strat); !bytes.Equal(a, b) {
			t.Errorf("%s: two same-seed ftl runs differ", name)
		}
	}
}

// TestFTLWorkerParityAndResume: ftl configurations travel the full
// distributed stack — a real worker HTTP surface and a resume over the
// result store both reproduce the in-process artifact byte for byte.
func TestFTLWorkerParityAndResume(t *testing.T) {
	env := smallEnv(42)
	env.Budget = 8
	search := func(backend dispatch.Backend) []byte {
		e := env
		e.Backend = backend
		res, err := Guided{}.Search(context.Background(), ftlSpace(), e)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := res.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	local := search(nil)

	ts := httptest.NewServer(dispatch.WorkerHandler(nil, nil))
	defer ts.Close()
	rem, err := dispatch.NewRemote([]string{ts.URL}, dispatch.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	if remote := search(rem); !bytes.Equal(local, remote) {
		t.Fatal("ftl search differs between local and worker execution")
	}

	dir := t.TempDir()
	first := search(storeBackend(t, dir, nil))
	if !bytes.Equal(local, first) {
		t.Fatal("store-backed ftl search differs from in-process")
	}
	reg := metrics.NewRegistry()
	second := search(storeBackend(t, dir, reg))
	if reg.Counter("dispatch_store_hits_total").Value() == 0 {
		t.Fatal("store empty on resume")
	}
	if !bytes.Equal(first, second) {
		t.Fatal("resumed ftl search differs from the original")
	}
}
