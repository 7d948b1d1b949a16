package sim

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// PublishMetrics folds the machine's accumulated statistics into a shared
// metrics registry: stall-cycle counters split by category, event counts,
// the store-time occupancy distribution, and the retirement-latency
// histogram.  The machine keeps all of these in private, non-shared state
// on its hot path; publishing is one batch of atomic adds, so it is called
// once per run (the experiment harness does this after every job), never
// per instruction.
func (m *Machine) PublishMetrics(reg *metrics.Registry) {
	c := m.Counters()
	reg.Counter("sim_instructions_total").Add(c.Instructions)
	reg.Counter("sim_cycles_total").Add(c.Cycles)
	reg.Counter("sim_loads_total").Add(c.Loads)
	reg.Counter("sim_stores_total").Add(c.Stores)
	reg.Counter("sim_blocked_stores_total").Add(c.BlockedStores)
	reg.Counter("sim_l1_load_hits_total").Add(c.L1LoadHits)
	reg.Counter("sim_wb_read_hits_total").Add(c.WBReadHits)
	reg.Counter("sim_hazard_events_total").Add(c.HazardEvents)
	reg.Counter("sim_retirements_total").Add(c.Retirements)
	reg.Counter("sim_flushed_entries_total").Add(c.FlushedEntries)
	reg.Counter("sim_miss_cycles_total").Add(c.MissCycles)
	for k := range c.Stalls {
		if c.Stalls[k] > 0 {
			reg.Counter(metrics.Label("sim_stall_cycles_total",
				"kind", stats.StallKind(k).String())).Add(c.Stalls[k])
		}
	}
	for occ, n := range m.occHist {
		if n > 0 {
			reg.Counter(metrics.Label("sim_store_occupancy_total",
				"occupancy", strconv.Itoa(occ))).Add(n)
		}
	}
	reg.Histogram("sim_retirement_latency_cycles").MergeLocal(&m.retLat)

	// Drain-side backend counters — bank contention and row-buffer
	// locality under the banked backend.  The flat backend keeps them all
	// zero, and zero-valued counters are not published, so the /metrics
	// surface is unchanged for machines predating the backend axis.
	if bs := m.be.Stats(); bs.Writes > 0 {
		reg.Counter("sim_backend_writes_total").Add(bs.Writes)
		if bs.BankConflicts > 0 {
			reg.Counter("sim_backend_bank_conflicts_total").Add(bs.BankConflicts)
		}
		if bs.ConflictWaitCycles > 0 {
			reg.Counter("sim_backend_conflict_wait_cycles_total").Add(bs.ConflictWaitCycles)
		}
		if bs.RowHits > 0 {
			reg.Counter("sim_backend_row_hits_total").Add(bs.RowHits)
		}
		if bs.RowMisses > 0 {
			reg.Counter("sim_backend_row_misses_total").Add(bs.RowMisses)
		}
		if bs.OverlapCycles > 0 {
			reg.Counter("sim_backend_overlap_cycles_total").Add(bs.OverlapCycles)
		}
	}

	// Organization-specific counters — per-buffer striping balance and
	// sector-mask coalescing for ftl, whatever a custom organization
	// chooses to expose.  The FIFO has none beyond the shared Stats.
	if om, ok := m.org.(core.OrgMetrics); ok {
		for _, s := range om.OrgSamples(nil) {
			name := "sim_wb_org_" + s.Name
			if s.Gauge {
				if s.Buf >= 0 {
					name = metrics.Label(name, "buf", strconv.Itoa(s.Buf))
				}
				reg.Gauge(name).Set(float64(s.Value))
				continue
			}
			name += "_total"
			if s.Buf >= 0 {
				name = metrics.Label(name, "buf", strconv.Itoa(s.Buf))
			}
			reg.Counter(name).Add(s.Value)
		}
	}
}
