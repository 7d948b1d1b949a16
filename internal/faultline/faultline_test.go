package faultline

import (
	"context"
	"strings"
	"testing"

	"repro/internal/dispatch"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestScheduleIsDeterministic(t *testing.T) {
	sc := Scenario{Kind: Crash, Seed: 42, Rate: 0.5, MaxFaults: 3}
	job := JobHash([]byte("some job payload"))
	for i := 0; i < 100; i++ {
		if sc.Targets(job) != sc.Targets(job) {
			t.Fatal("Targets is not a pure function")
		}
		if sc.FaultCount(job) != sc.FaultCount(job) {
			t.Fatal("FaultCount is not a pure function")
		}
	}
	if n := sc.FaultCount(job); n < 1 || n > sc.MaxFaults {
		t.Errorf("FaultCount = %d, want in [1, %d]", n, sc.MaxFaults)
	}
}

func TestScheduleSeedSensitivity(t *testing.T) {
	// Across many jobs, two seeds must disagree on at least one target —
	// and rates 0 and 1 must be absolute.
	a := Scenario{Kind: Crash, Seed: 1, Rate: 0.5}
	b := Scenario{Kind: Crash, Seed: 2, Rate: 0.5}
	differ := false
	for i := 0; i < 64; i++ {
		job := JobHash([]byte(strings.Repeat("j", i+1)))
		if a.Targets(job) != b.Targets(job) {
			differ = true
		}
		if (Scenario{Rate: 0}).Targets(job) {
			t.Fatal("rate 0 targeted a job")
		}
		if !(Scenario{Rate: 1}).Targets(job) {
			t.Fatal("rate 1 missed a job")
		}
	}
	if !differ {
		t.Error("seeds 1 and 2 produced identical target sets over 64 jobs")
	}
}

func TestPartitionedWorkersRounding(t *testing.T) {
	cases := []struct {
		frac string
		s    Scenario
		pool int
		want int
	}{
		{"zero", Scenario{Kind: Partition}, 4, 0},
		{"half of four", Scenario{Kind: Partition, PartitionFraction: 0.5}, 4, 2},
		{"half of three rounds up", Scenario{Kind: Partition, PartitionFraction: 0.5}, 3, 2},
		{"full", Scenario{Kind: Partition, PartitionFraction: 1}, 3, 3},
		{"clamped", Scenario{Kind: Partition, PartitionFraction: 2}, 3, 3},
		{"wrong kind", Scenario{Kind: Crash, PartitionFraction: 1}, 3, 0},
	}
	for _, c := range cases {
		if got := c.s.PartitionedWorkers(c.pool); got != c.want {
			t.Errorf("%s: PartitionedWorkers(%d) = %d, want %d", c.frac, c.pool, got, c.want)
		}
	}
}

// TestPoolSharesArrivalOrdinals is the routing-independence property: the
// fault schedule counts a job's attempts pool-wide, so a retry on a
// different worker continues the schedule instead of restarting it.
func TestPoolSharesArrivalOrdinals(t *testing.T) {
	p := NewPool(Scenario{Kind: Crash, Seed: 1, Rate: 1, MaxFaults: 2}, nil)
	job := JobHash([]byte("payload"))
	if got := p.arrival(job); got != 1 {
		t.Fatalf("first arrival ordinal = %d, want 1", got)
	}
	if got := p.arrival(job); got != 2 {
		t.Fatalf("second arrival ordinal = %d, want 2", got)
	}
	if got := p.arrival(JobHash([]byte("other"))); got != 1 {
		t.Fatalf("unrelated job's first ordinal = %d, want 1", got)
	}
}

// TestBackendInjectorFaultsThenRecovers: a targeted job fails exactly its
// scheduled fault count at the Backend boundary, then succeeds — the
// property store-resume chaos tests lean on.
func TestBackendInjectorFaultsThenRecovers(t *testing.T) {
	bench, ok := workload.ByName("li")
	if !ok {
		t.Fatal("li not registered")
	}
	job := dispatch.Job{Bench: bench.Name, Cfg: sim.Baseline(), N: 10_000}
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Kind: Crash, Seed: 3, Rate: 1, MaxFaults: 2}
	fb := &Backend{Inner: &dispatch.Local{}, Scenario: sc}

	wantFaults := sc.FaultCount(JobHash([]byte(key)))
	var failures int
	var m dispatch.Measurement
	for i := 0; i < wantFaults+1; i++ {
		var runErr error
		m, runErr = fb.Run(context.Background(), job)
		if runErr != nil {
			failures++
		}
	}
	if failures != wantFaults {
		t.Errorf("injected %d failures, scheduled %d", failures, wantFaults)
	}
	direct, err := (&dispatch.Local{}).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if m != direct {
		t.Error("post-fault measurement differs from direct execution")
	}
}
