package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/machconf"
	"repro/internal/sim"
)

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000, Worker: true})
}

func testServerCfg(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, RunResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out RunResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, out
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var items []struct{ ID, Title string }
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, it := range items {
		ids[it.ID] = true
	}
	for _, want := range []string{"fig3", "fig13", "table7", "summary"} {
		if !ids[want] {
			t.Errorf("experiment list missing %q (%d listed)", want, len(items))
		}
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := testServer(t)
	resp, out := postRun(t, ts, `{"bench":"li","n":100000,"depth":12,"retire_at":8,"hazard":"read-from-WB"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Bench != "li" || out.Cached {
		t.Errorf("unexpected identity: %+v", out)
	}
	if out.Instructions == 0 || out.Cycles < out.Instructions {
		t.Errorf("implausible measurement: instr %d cycles %d", out.Instructions, out.Cycles)
	}
	if out.CPI < 1 {
		t.Errorf("CPI %v < 1", out.CPI)
	}
	if _, ok := out.StallPct["total"]; !ok {
		t.Errorf("stall_pct missing total: %v", out.StallPct)
	}
	// read-from-WB eliminates load-hazard stalls (the paper's Figure 7).
	if out.StallPct["load-hazard"] != 0 {
		t.Errorf("read-from-WB produced load-hazard stalls: %v", out.StallPct)
	}
	if out.Config != "depth=12,width=4,retire=8,hazard=read-from-WB" {
		t.Errorf("config label = %q", out.Config)
	}
}

func TestRunCaching(t *testing.T) {
	s, ts := testServer(t)
	body := `{"bench":"compress","n":100000}`
	if _, out := postRun(t, ts, body); out.Cached {
		t.Fatal("first request reported cached")
	}
	_, out := postRun(t, ts, body)
	if !out.Cached {
		t.Fatal("identical second request missed the cache")
	}
	// Default-filling must canonicalise: an explicit baseline field still hits.
	if _, out := postRun(t, ts, `{"bench":"compress","n":100000,"depth":4}`); !out.Cached {
		t.Error("normalized-equal request missed the cache")
	}
	// Only the first request simulated; the other two were store hits.
	if n := s.reg.Counter("wbserve_dispatched_jobs_total").Value(); n != 1 {
		t.Errorf("dispatched jobs = %d, want 1", n)
	}
}

func TestRunRejections(t *testing.T) {
	_, ts := testServer(t)
	for name, body := range map[string]string{
		"unknown bench":  `{"bench":"nosuch"}`,
		"missing bench":  `{}`,
		"over cap":       `{"bench":"li","n":999999999}`,
		"bad hazard":     `{"bench":"li","hazard":"explode"}`,
		"unknown field":  `{"bench":"li","bogus":1}`,
		"malformed json": `{`,
	} {
		resp, _ := postRun(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// A well-formed request describing a machine that fails sim validation is
// the client's configuration problem, not a malformed request: 422.
func TestRunInvalidConfigIs422(t *testing.T) {
	_, ts := testServer(t)
	for name, body := range map[string]string{
		"negative depth":    `{"bench":"li","depth":-1}`,
		"threshold too big": `{"bench":"li","depth":2,"issue_width":99}`,
	} {
		resp, _ := postRun(t, ts, body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", name, resp.StatusCode)
		}
	}
}

// /healthz must feed the same request/latency series as every other
// endpoint, so probes are visible in /metrics.
func TestHealthzInstrumented(t *testing.T) {
	s, ts := testServer(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := s.reg.Counter(`wbserve_requests_total{path="/healthz"}`).Value(); got != 3 {
		t.Errorf("healthz request counter = %d, want 3", got)
	}
	if got := s.reg.Histogram(`wbserve_request_microseconds{path="/healthz"}`).Count(); got != 3 {
		t.Errorf("healthz latency observations = %d, want 3", got)
	}
}

// TestJobEndpoint exercises the -worker surface end to end: a wire job in,
// a measurement out, matching what the local harness computes.
func TestJobEndpoint(t *testing.T) {
	s, ts := testServer(t)
	job := dispatch.Job{Bench: "li", Label: "base", Cfg: sim.Baseline(), N: 100_000}
	want, err := dispatch.Execute(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := postJob(t, ts, job)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("remote measurement differs:\n got %+v\nwant %+v", got, want)
	}
	if s.reg.Counter("dispatch_worker_jobs_total").Value() != 1 {
		t.Errorf("worker job counter = %d, want 1",
			s.reg.Counter("dispatch_worker_jobs_total").Value())
	}
	if s.reg.Counter(`wbserve_requests_total{path="/job"}`).Value() != 1 {
		t.Errorf("/job not instrumented")
	}
}

// burstRetire is a custom retirement policy with no built-in wire family:
// it waits for Burst buffered entries, then drains them as one burst.
type burstRetire struct{ Burst int }

func (p burstRetire) NextStart(occ int, headAlloc, lastStart, now uint64) (uint64, bool) {
	return now, occ >= p.Burst
}
func (p burstRetire) Name() string { return fmt.Sprintf("burst(%d)", p.Burst) }

var registerBurstOnce sync.Once

func registerBurst() {
	registerBurstOnce.Do(func() {
		machconf.RegisterRetirement(machconf.RetirementCodec{
			Kind: "burst",
			Encode: func(p core.RetirementPolicy) (any, bool) {
				b, ok := p.(burstRetire)
				if !ok {
					return nil, false
				}
				return map[string]int{"burst": b.Burst}, true
			},
			Decode: func(raw json.RawMessage) (core.RetirementPolicy, error) {
				var params struct {
					Burst int `json:"burst"`
				}
				if err := json.Unmarshal(raw, &params); err != nil {
					return nil, err
				}
				return burstRetire{Burst: params.Burst}, nil
			},
		})
	})
}

// A custom policy registered with the machconf registry round-trips
// through the real wbserve worker surface: the wire job carries the
// registered kind, the worker decodes and runs it, and the measurement
// matches local execution exactly.
func TestJobEndpointCustomPolicy(t *testing.T) {
	registerBurst()
	_, ts := testServer(t)
	cfg := sim.Baseline().WithDepth(8).WithRetire(burstRetire{Burst: 6})
	job := dispatch.Job{Bench: "compress", Label: "burst", Cfg: cfg, N: 100_000}
	want, err := dispatch.Execute(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := postJob(t, ts, job)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("remote custom-policy measurement differs:\n got %+v\nwant %+v", got, want)
	}
}

// POST /run accepts the machconf canonical form in the config field; a
// scalar request and a blob describing the same machine must share one
// cache entry (the key is the canonical hash, not the request shape).
func TestRunConfigBlob(t *testing.T) {
	_, ts := testServer(t)
	blob, err := machconf.Encode(sim.Baseline())
	if err != nil {
		t.Fatal(err)
	}

	// Scalar request first: all defaults, i.e. the baseline machine.
	if _, out := postRun(t, ts, `{"bench":"li","n":100000}`); out.Cached {
		t.Fatal("first request reported cached")
	}
	resp, out := postRun(t, ts, fmt.Sprintf(`{"bench":"li","n":100000,"config":%s}`, blob))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blob request: status %d", resp.StatusCode)
	}
	if !out.Cached {
		t.Error("equivalent blob request missed the scalar request's cache entry")
	}

	// A blob for a machine no scalar request can describe still runs, and
	// its label carries the canonical hash prefix.
	registerBurst()
	custom := sim.Baseline().WithRetire(burstRetire{Burst: 3})
	cblob, err := machconf.Encode(custom)
	if err != nil {
		t.Fatal(err)
	}
	resp, out = postRun(t, ts, fmt.Sprintf(`{"bench":"li","n":100000,"config":%s}`, cblob))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("custom-policy blob: status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(out.Config, "machconf:") {
		t.Errorf("blob request label = %q, want a machconf hash prefix", out.Config)
	}
}

func TestRunConfigBlobRejections(t *testing.T) {
	_, ts := testServer(t)
	blob, err := machconf.Encode(sim.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"blob plus machine field": {fmt.Sprintf(`{"bench":"li","depth":8,"config":%s}`, blob), http.StatusBadRequest},
		"unparsable blob":         {`{"bench":"li","config":{"v":99}}`, http.StatusBadRequest},
		"invalid machine":         {`{"bench":"li","config":` + strings.Replace(string(blob), `"wb_depth":4`, `"wb_depth":-1`, 1) + `}`, http.StatusUnprocessableEntity},
	} {
		resp, _ := postRun(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
	}
}

// postJob round-trips one job through a Remote backend pointed at the
// test server, exactly how wbexp -workers reaches it.
func postJob(t *testing.T, ts *httptest.Server, job dispatch.Job) (dispatch.Measurement, error) {
	t.Helper()
	rem, err := dispatch.NewRemote([]string{ts.URL}, dispatch.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()
	return rem.Run(context.Background(), job)
}

// Without -worker the job endpoint must not exist.
func TestJobEndpointRequiresWorkerMode(t *testing.T) {
	_, ts := testServerCfg(t, serverConfig{CacheSize: 4, MaxN: 5_000_000})
	resp, err := http.Post(ts.URL+"/job", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/job without -worker: status %d, want 404", resp.StatusCode)
	}
}

// -cachesize semantics: the in-memory tier needs at least one entry; 0 and
// negatives are configuration errors, not silent cache-disable switches.
func TestCacheSizeValidation(t *testing.T) {
	for _, size := range []int{0, -1} {
		if _, err := newServer(serverConfig{CacheSize: size, MaxN: 1}); err == nil {
			t.Errorf("cachesize %d accepted, want an error", size)
		}
	}
	// A durable queue without a durable store cannot honour done markers.
	if _, err := newServer(serverConfig{CacheSize: 1, MaxN: 1, QueuePath: t.TempDir() + "/q.jsonl"}); err == nil {
		t.Error("queue without store accepted, want an error")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	postRun(t, ts, `{"bench":"li","n":100000}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`wbserve_requests_total{path="/run"} 1`,
		"wbserve_dispatched_jobs_total 1",
		"sim_instructions_total",
		"sim_retirement_latency_cycles_count",
		`sim_stall_cycles_total{kind="L2-read-access"}`,
		"experiment_jobs_total 1",
		"wbserve_goroutines",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestPprofAndHealth(t *testing.T) {
	_, ts := testServer(t)
	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestConcurrentRuns exercises the serving path under the race detector:
// identical and distinct configurations racing through cache and registry.
func TestConcurrentRuns(t *testing.T) {
	_, ts := testServer(t)
	bodies := []string{
		`{"bench":"li","n":50000}`,
		`{"bench":"li","n":50000}`,
		`{"bench":"compress","n":50000}`,
		`{"bench":"espresso","n":50000,"depth":8}`,
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		for _, body := range bodies {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
				}
			}(body)
		}
	}
	wg.Wait()
}
