package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/workload"
)

func TestMain(m *testing.M) {
	if os.Getenv(setupProbeEnv) != "" {
		os.Exit(setupProbeMain())
	}
	os.Exit(m.Run())
}

// smallSizes shrinks every workload so a run takes seconds.
func smallSizes() sizes {
	return sizes{
		sweepN:   20_000,
		serveN:   10_000,
		remoteN:  10_000,
		probeN:   5_000,
		warmSet:  8,
		minTail:  20,
		setups:   2,
		storeOps: 40,
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests hold the
// benchmark to.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runReduced runs one workload at reduced size and returns the parsed
// final line.
func runReduced(t *testing.T, name string, trace bool) finalLine {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	p := params{workload: name, seed: 5, window: time.Second, trace: trace, sizes: smallSizes()}
	res, err := workloads[name](context.Background(), e, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out, table bytes.Buffer
	if err := report(&out, &table, e, p, res, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last finalLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d\n%s", name, last.Correct, last.Failed, last.Attempted, table.String())
	}
	return last
}

// wantMetrics asserts that got holds exactly the named metrics, each with
// its unit, and that every metric other than a tail percentile (which may
// lack samples at reduced size) is a number.
func wantMetrics(t *testing.T, workload string, got map[string]metricValue, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", workload, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, w.Name)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, w.Name, m.Unit, w.Unit)
		case m.Value == nil && !strings.Contains(w.Name, "_p9"):
			t.Errorf("%s: metric %s has no value", workload, w.Name)
		}
	}
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	for w := range workloads {
		w := w
		t.Run(w, func(t *testing.T) {
			wantMetrics(t, w, runReduced(t, w, false).Metrics, spec.EndToEnd)
			wantMetrics(t, w, runReduced(t, w, true).Metrics, spec.PerLayer)
		})
	}
}

// TestOracleCatchesAlteredMeasurement alters one simulated statistic and
// expects every comparison the benchmark makes to flag it.
func TestOracleCatchesAlteredMeasurement(t *testing.T) {
	job := dispatch.Job{Bench: "li", Label: "base", Cfg: suiteMachines[0].Cfg, N: 20_000}
	good, err := dispatch.Execute(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.C.Cycles++

	want := [][]dispatch.Measurement{{good}}
	if n := mismatches([][]dispatch.Measurement{{bad}}, want); n != 1 {
		t.Errorf("matrix check: %d mismatches, want 1", n)
	}
	if mismatches(want, want) != 0 {
		t.Error("matrix check flags identical results")
	}
	if digest([][]dispatch.Measurement{{bad}}) == digest(want) {
		t.Error("digest does not see the altered cycle count")
	}

	b, _ := workload.ByName("li")
	traced, _, err := tracedExecute(b, job)
	if err != nil {
		t.Fatal(err)
	}
	if mismatches([][]dispatch.Measurement{{traced}}, want) != 0 {
		t.Error("the traced execution differs from dispatch.Execute")
	}

	m := machine{Depth: 4, Retire: 2, Hazard: "flush-full", L1: 8 << 10, L2Lat: 6}
	req := serveReq{kind: coldReq, m: m, benches: []string{"li"}}
	served, err := dispatch.Execute(req.jobs(20_000)[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	reply := func(meas dispatch.Measurement, cached bool) servedReply {
		body, _ := json.Marshal(struct {
			servedResult
			Cached bool `json:"cached"`
		}{expectServed(meas), cached})
		return servedReply{req: req, status: 200, body: body}
	}
	wantServed := map[string]dispatch.Measurement{"li|" + m.label(): served}
	if !checkReply(reply(served, false), 20_000, wantServed) {
		t.Error("served check rejects a correct reply")
	}
	alteredServed := served
	alteredServed.C.Stores--
	if checkReply(reply(alteredServed, false), 20_000, wantServed) {
		t.Error("served check accepts an altered store count")
	}
	if checkReply(reply(served, true), 20_000, wantServed) {
		t.Error("served check accepts a cold reply marked cached")
	}
}

// TestSuiteDigestAtDefaultSize pins the committed digest to the default
// seed and size.
func TestSuiteDigestAtDefaultSize(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full suite matrix")
	}
	s := &sweepRun{benches: suiteBenches(defaultSeed), specs: suiteMachines, n: defaultSizes().sweepN}
	out, _, err := runPass(context.Background(), s.benches, s.specs, s.n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(out); got != suiteDigest {
		t.Errorf("suite-sweep digest %s, committed %s", got, suiteDigest)
	}
}

func TestGroupedQuantile(t *testing.T) {
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 100)
	}
	if v, ok := groupedQuantile(xs, 0.99); !ok || v != 98 {
		t.Errorf("p99 = %v, %v; want 98, true", v, ok)
	}
	if _, ok := groupedQuantile(xs[:50], 0.99); ok {
		t.Error("p99 of 50 samples reported as a number")
	}
	if v, ok := groupedQuantile(xs, 0.5); !ok || v != 49 {
		t.Errorf("p50 = %v, %v; want 49, true", v, ok)
	}
}

func TestQuietHalf(t *testing.T) {
	got := quietHalf([]float64{0.3, 0, 0.1, 0, 0.2})
	want := []int{1, 2, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("quietHalf = %v, want %v", got, want)
	}
}
