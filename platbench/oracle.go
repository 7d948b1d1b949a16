package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"runtime"
	"sync"

	"repro/internal/dispatch"
	"repro/internal/stats"
)

// suiteDigest is the committed digest of every suite-sweep measurement, in
// matrix order, for the default seed at the default suite-sweep size.  A
// change that alters any simulated statistic changes it: such a change is
// a different simulator, not a faster one.  Regenerate it only for a
// declared change of simulated behaviour (README.md says how).
const suiteDigest = "sha256:5dd2c2a2fc63c5b85b84e2763a09c29e67172ccefac2e6ed0a651fc7b3a522d5"

// digest hashes measurements in order; each is hashed as its JSON
// encoding, which round-trips every field exactly.
func digest(ms [][]dispatch.Measurement) string {
	h := sha256.New()
	for _, row := range ms {
		for _, m := range row {
			b, err := json.Marshal(m)
			if err != nil {
				panic(err) // Measurement is scalars and arrays only
			}
			h.Write(b)
			h.Write([]byte{'\n'})
		}
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// mismatches counts the cells of got that differ from want.
func mismatches(got, want [][]dispatch.Measurement) int {
	bad := 0
	for i := range want {
		for j := range want[i] {
			if i >= len(got) || j >= len(got[i]) || !reflect.DeepEqual(got[i][j], want[i][j]) {
				bad++
			}
		}
	}
	return bad
}

// servedResult is the part of wbserve's POST /run reply that carries the
// simulated measurement; the oracle compares it field by field with an
// in-process execution of the same job.
type servedResult struct {
	Bench          string             `json:"bench"`
	Instructions   uint64             `json:"instructions"`
	Cycles         uint64             `json:"cycles"`
	CPI            float64            `json:"cpi"`
	StallPct       map[string]float64 `json:"stall_pct"`
	L1HitRate      float64            `json:"l1_hit_rate"`
	WBHitRate      float64            `json:"wb_hit_rate"`
	L2HitRate      float64            `json:"l2_hit_rate"`
	Loads          uint64             `json:"loads"`
	Stores         uint64             `json:"stores"`
	Retirements    uint64             `json:"retirements"`
	FlushedEntries uint64             `json:"flushed_entries"`
	WBReadHits     uint64             `json:"wb_read_hits"`
	HazardEvents   uint64             `json:"hazard_events"`
}

// expectServed renders a measurement the way POST /run documents its
// reply: the headline stall percentages (total and the paper's three
// categories, plus any other category that stalled) and the counters.
func expectServed(m dispatch.Measurement) servedResult {
	c := m.C
	stall := map[string]float64{"total": c.TotalStallPct()}
	for k := range c.Stalls {
		kind := stats.StallKind(k)
		if c.Stalls[k] > 0 || kind <= stats.LoadHazard {
			stall[kind.String()] = c.StallPct(kind)
		}
	}
	return servedResult{
		Bench:          m.Bench,
		Instructions:   c.Instructions,
		Cycles:         c.Cycles,
		CPI:            c.CPI(),
		StallPct:       stall,
		L1HitRate:      m.L1Hit,
		WBHitRate:      m.WBHit,
		L2HitRate:      m.L2Hit,
		Loads:          c.Loads,
		Stores:         c.Stores,
		Retirements:    c.Retirements,
		FlushedEntries: c.FlushedEntries,
		WBReadHits:     c.WBReadHits,
		HazardEvents:   c.HazardEvents,
	}
}

// flatten lists a matrix's measurements in matrix order.
func flatten(ms [][]dispatch.Measurement) []dispatch.Measurement {
	var out []dispatch.Measurement
	for _, row := range ms {
		out = append(out, row...)
	}
	return out
}

// executeAll runs every job in process with dispatch.Execute, on GOMAXPROCS
// goroutines, and returns the measurements in job order.
func executeAll(jobs []dispatch.Job) ([]dispatch.Measurement, error) {
	out := make([]dispatch.Measurement, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = dispatch.Execute(jobs[i], nil)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
