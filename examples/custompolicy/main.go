// Custompolicy: extend the simulator with a retirement policy the paper
// never evaluated — an adaptive scheme that retires eagerly while loads
// have been missing recently (to keep the L2 port clear) and lazily during
// store-heavy phases (to maximise coalescing) — and race it against the
// paper's fixed policies.
//
// It demonstrates two extension points together: core.RetirementPolicy
// (any type with a NextStart method plugs into the machine) and the
// machconf policy registry (registering a codec makes the policy
// wire-encodable, so its results can be kept in the result store, and it
// can travel to wbserve -worker processes and be requested through
// wbserve's /run config blob — see docs/DISTRIBUTED.md).
//
//	go run ./examples/custompolicy
package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/machconf"
	"repro/internal/sim"
	"repro/internal/workload"
)

// phased switches its high-water mark on a fixed cycle cadence, a crude
// stand-in for phase detection: even windows retire eagerly, odd windows
// lazily.  A real implementation would watch the miss counters; the
// simulator's policy interface only sees time and occupancy, which keeps
// policies deterministic and replayable.
type phased struct {
	Window uint64
	Eager  int
	Lazy   int
}

// NextStart implements core.RetirementPolicy.
func (p phased) NextStart(occ int, headAlloc, lastStart, now uint64) (uint64, bool) {
	hwm := p.Eager
	if (now/p.Window)%2 == 1 {
		hwm = p.Lazy
	}
	if occ >= hwm {
		return now, true
	}
	return 0, false
}

// Name implements core.RetirementPolicy.
func (p phased) Name() string {
	return fmt.Sprintf("phased(%d/%d,win=%d)", p.Eager, p.Lazy, p.Window)
}

// phasedParams is the policy's wire payload; typed so the canonical
// encoding is deterministic.
type phasedParams struct {
	Window uint64 `json:"window"`
	Eager  int    `json:"eager"`
	Lazy   int    `json:"lazy"`
}

// init registers phased with the machconf registry.  This is the whole
// cost of making a custom policy distributable: a remote worker running a
// binary with this registration accepts phased configurations on its /job
// endpoint exactly like the built-in families.
func init() {
	machconf.RegisterRetirement(machconf.RetirementCodec{
		Kind: "phased",
		Encode: func(p core.RetirementPolicy) (any, bool) {
			ph, ok := p.(phased)
			if !ok {
				return nil, false
			}
			return phasedParams{Window: ph.Window, Eager: ph.Eager, Lazy: ph.Lazy}, true
		},
		Decode: func(raw json.RawMessage) (core.RetirementPolicy, error) {
			var params phasedParams
			if err := json.Unmarshal(raw, &params); err != nil {
				return nil, err
			}
			return phased{Window: params.Window, Eager: params.Eager, Lazy: params.Lazy}, nil
		},
	})
}

func main() {
	const n = 300_000
	policies := []core.RetirementPolicy{
		core.RetireAt{N: 2},
		core.RetireAt{N: 8},
		phased{Window: 4096, Eager: 2, Lazy: 8},
	}

	fmt.Println("custom retirement policy vs the paper's fixed ones")
	fmt.Println("(12-deep, read-from-WB, total stall % of run time)")
	fmt.Println()
	fmt.Printf("%-12s", "benchmark")
	for _, p := range policies {
		fmt.Printf(" %22s", p.Name())
	}
	fmt.Println()
	for _, name := range []string{"compress", "sc", "li", "fpppp", "wave5", "su2cor"} {
		b, ok := workload.ByName(name)
		if !ok {
			panic("missing benchmark " + name)
		}
		fmt.Printf("%-12s", name)
		for _, p := range policies {
			cfg := sim.Baseline().WithDepth(12).WithRetire(p).WithHazard(core.ReadFromWB)
			m := sim.MustNew(cfg)
			m.Run(b.Stream(n))
			fmt.Printf(" %21.2f%%", m.Counters().TotalStallPct())
		}
		fmt.Println()
	}

	// Because phased is registered, a configuration using it has a wire
	// form and a canonical identity like any built-in policy.
	cfg := sim.Baseline().WithDepth(12).
		WithRetire(phased{Window: 4096, Eager: 2, Lazy: 8}).
		WithHazard(core.ReadFromWB)
	blob, err := machconf.Encode(cfg)
	if err != nil {
		panic(err)
	}
	hash, err := machconf.Hash(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nwire form: %s\ncanonical hash: %s…\n", blob, hash[:16])
}
