// Package explore searches the write-buffer design space the paper sweeps
// by hand: depth × retirement × aging × load-hazard policy × write cache ×
// cache/memory environment.  A Space enumerates the legal machconf
// configurations of that product, a Strategy decides which of them to
// simulate cycle-exactly within a budget, and a Frontier reduces the
// measurements to the Pareto-optimal set over (CPI overhead, area proxy) —
// the tradeoff curve the paper's Figures 4–8 trace pointwise.
//
// The subsystem layers on everything beneath it: candidates are identified
// by their canonical machconf hash, evaluation runs through
// experiment.RunMatrixCtx (so any dispatch backend — local, remote worker
// pools, the result store — works unchanged), the analytic Markov model
// (internal/analytic) is the cheap predictor that lets the guided strategy
// spend its simulation budget only on the predicted frontier, and progress
// and counters publish through internal/metrics.  cmd/wbopt is the CLI.
//
// See docs/EXPLORATION.md for space files, budget semantics, and the
// frontier format.
package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	backendpkg "repro/internal/backend"
	"repro/internal/core"
	"repro/internal/machconf"
	"repro/internal/sim"
)

// Space describes a design space as per-axis value lists over a base
// machine.  Empty axes keep the base's value.  Enumerate expands the
// Cartesian product, drops illegal or redundant points (see the constraint
// list on Enumerate), and yields each surviving machine exactly once in a
// deterministic order.
type Space struct {
	// Base is the machine every axis overrides; the zero value means
	// sim.Baseline().
	Base *sim.Config
	// Depths, Widths, Retires, Agings sweep the write buffer itself:
	// entries, words per entry, retire-at high-water mark, aging timeout.
	Depths  []int
	Widths  []int
	Retires []int
	Agings  []uint64
	// Orgs sweeps the buffer organization family ("fifo", "ftl"); NumBufs
	// and SectorBits sweep the ftl shape and are pinned to their first
	// value for non-ftl points.  Custom organization specs enter through
	// Base, not this axis.
	Orgs       []string
	NumBufs    []int
	SectorBits []int
	// Hazards sweeps the load-hazard policy.
	Hazards []core.HazardPolicy
	// WCaches sweeps Jouppi-style write caches; 0 keeps the plain buffer.
	WCaches []int
	// L1Sizes, L2Lats, L2Sizes, MemLats sweep the cache environment.
	// An L2 size of 0 is the paper's perfect L2.
	L1Sizes []int
	L2Lats  []uint64
	L2Sizes []int
	MemLats []uint64
	// Backends sweeps the memory-backend family ("flat", "banked"); Banks,
	// RowHits, and RowMisses sweep the banked shape and are pinned to
	// their first values for non-banked points.  Unlike the buffer-shape
	// axes, the backend is NOT pinned under a write cache: it times the
	// victim-slot drains too.  Custom backend specs enter through Base.
	Backends  []string
	Banks     []int
	RowHits   []uint64
	RowMisses []uint64
	// FenceCosts sweeps the full-membar surcharge of a fenced wrap over
	// whichever backend a point runs; 0 means no wrap.  It is orthogonal
	// to the Backends axis, matching the fencecost spec key.
	FenceCosts []uint64
	// MaxCost, when > 0, drops candidates whose area proxy (CostProxy)
	// exceeds it — the designer's area budget as a constraint predicate.
	MaxCost int
	// Filter, when non-nil, is an arbitrary extra constraint; candidates
	// it rejects are dropped.  Only programmatic spaces can set it.
	Filter func(sim.Config) bool
}

// Candidate is one legal point of the space: a complete machine, its
// canonical machconf hash (the identity every layer below keys on), and a
// human-readable label built from the axes that vary.
type Candidate struct {
	Label string
	Hash  string
	Cfg   sim.Config
}

// spaceFile is the strict JSON form of a Space (docs/EXPLORATION.md).
// Hazards travel by registered name and the base machine as a ParseSpec
// string, so a space file composes with the rest of the config tooling.
type spaceFile struct {
	Base       string   `json:"base,omitempty"`
	Depths     []int    `json:"depths,omitempty"`
	Widths     []int    `json:"widths,omitempty"`
	Retires    []int    `json:"retires,omitempty"`
	Agings     []uint64 `json:"agings,omitempty"`
	Orgs       []string `json:"orgs,omitempty"`
	NumBufs    []int    `json:"numbuffers,omitempty"`
	SectorBits []int    `json:"sectorbits,omitempty"`
	Hazards    []string `json:"hazards,omitempty"`
	WCaches    []int    `json:"wcaches,omitempty"`
	L1Sizes    []int    `json:"l1_sizes,omitempty"`
	L2Lats     []uint64 `json:"l2_lats,omitempty"`
	L2Sizes    []int    `json:"l2_sizes,omitempty"`
	MemLats    []uint64 `json:"mem_lats,omitempty"`
	Backends   []string `json:"backends,omitempty"`
	Banks      []int    `json:"banks,omitempty"`
	RowHits    []uint64 `json:"rowhits,omitempty"`
	RowMisses  []uint64 `json:"rowmisses,omitempty"`
	FenceCosts []uint64 `json:"fence_costs,omitempty"`
	MaxCost    int      `json:"max_cost,omitempty"`
}

// Load parses a space file.  Unknown fields, trailing data, unknown hazard
// names, and unparsable base specs are errors.
func Load(data []byte) (*Space, error) {
	var f spaceFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("explore: trailing data after space")
	}
	s := &Space{
		Depths: f.Depths, Widths: f.Widths, Retires: f.Retires, Agings: f.Agings,
		Orgs: f.Orgs, NumBufs: f.NumBufs, SectorBits: f.SectorBits,
		WCaches: f.WCaches, L1Sizes: f.L1Sizes, L2Lats: f.L2Lats,
		L2Sizes: f.L2Sizes, MemLats: f.MemLats, MaxCost: f.MaxCost,
		Backends: f.Backends, Banks: f.Banks,
		RowHits: f.RowHits, RowMisses: f.RowMisses, FenceCosts: f.FenceCosts,
	}
	for _, org := range f.Orgs {
		if org != "fifo" && org != "ftl" {
			return nil, fmt.Errorf("explore: unknown buffer organization %q in orgs axis", org)
		}
	}
	for _, be := range f.Backends {
		if be != "flat" && be != "banked" {
			return nil, fmt.Errorf("explore: unknown memory backend %q in backends axis", be)
		}
	}
	if f.Base != "" {
		base, err := machconf.ParseSpec(f.Base)
		if err != nil {
			return nil, fmt.Errorf("explore: base: %w", err)
		}
		s.Base = &base
	}
	for _, name := range f.Hazards {
		h, ok := machconf.HazardByName(name)
		if !ok {
			// Space files are hand-written; forgive the case (the
			// canonical name "read-from-WB" is easy to miscapitalise).
			for _, p := range core.HazardPolicies {
				if strings.EqualFold(p.String(), name) {
					h, ok = p, true
					break
				}
			}
		}
		if !ok {
			return nil, fmt.Errorf("explore: unknown hazard policy %q", name)
		}
		s.Hazards = append(s.Hazards, h)
	}
	return s, nil
}

// LoadFile is Load over a file.
func LoadFile(path string) (*Space, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// Default returns the paper's own design space: the depth and high-water
// sweep of Figures 4–7 crossed with all four load-hazard policies, on the
// baseline cache environment.  It is what cmd/wbopt searches when no space
// file is given.
func Default() *Space {
	return &Space{
		Depths:  []int{1, 2, 4, 8, 12, 16},
		Retires: []int{1, 2, 4, 6, 8, 12},
		Hazards: append([]core.HazardPolicy(nil), core.HazardPolicies...),
	}
}

// CostProxy returns a configuration's area proxy in word-slots of storage:
// depth × entry width for a write buffer, doubled for a write cache (its
// fully associative CAM match and victim-slot path cost roughly a second
// buffer's worth of area per entry).  The ftl organization adjusts the
// buffer figure in both directions: each extra buffer adds one word-slot
// of head/count control, and coarse sector granules shrink every entry's
// valid mask from WordsPerEntry bits to WordsPerEntry>>SectorBits bits,
// crediting the saved mask SRAM at 64 bits per word-slot — which is what
// sectorbits buys, since its timing effect is purely conservative.  The
// degenerate ftl{1,0} shape costs exactly what the fifo does.  The Pareto
// frontier minimises this against CPI overhead; it is a proxy, not a
// layout model.
func CostProxy(cfg sim.Config) int {
	var cost int
	if cfg.WriteCacheDepth > 0 {
		cost = 2 * cfg.WriteCacheDepth * cfg.WB.Geometry.WordsPerLine()
	} else {
		cost = cfg.WB.Depth * cfg.WB.WordsPerEntry
		if f, ok := cfg.Org.(core.FTLOrg); ok {
			maskBits := cfg.WB.WordsPerEntry
			if f.SectorBits > 0 {
				maskBits = cfg.WB.WordsPerEntry >> f.SectorBits
				if maskBits < 1 {
					maskBits = 1
				}
			}
			cost += f.NumBuffers - 1
			cost -= cfg.WB.Depth * (cfg.WB.WordsPerEntry - maskBits) / 64
		}
	}
	// A banked backend adds one word-slot of drain-engine control per extra
	// bank (busy-until timer plus open-row tag), whichever buffer fronts it
	// — a write cache drains through the same banks, so the term applies
	// there too.  The degenerate single bank costs exactly what flat does,
	// and a fenced wrap is pure policy: zero area.
	be := cfg.Backend
	if f, ok := be.(backendpkg.FencedSpec); ok {
		be = f.Inner
	}
	if b, ok := be.(backendpkg.BankedSpec); ok && b.Banks > 1 {
		cost += b.Banks - 1
	}
	return cost
}

// base returns the machine the axes override.
func (s *Space) base() sim.Config {
	if s.Base != nil {
		return *s.Base
	}
	return sim.Baseline()
}

// axis helpers: an empty axis is the singleton holding the base's value.
func intAxis(vals []int, base int) []int {
	if len(vals) == 0 {
		return []int{base}
	}
	return vals
}

func u64Axis(vals []uint64, base uint64) []uint64 {
	if len(vals) == 0 {
		return []uint64{base}
	}
	return vals
}

// Enumerate expands the space into its legal, deduplicated candidate list.
// The order is deterministic: nested loops over the axes in the order
// depth, width, org, numbuffers, sectorbits, retire, aging, hazard,
// wcache, l1, l2lat, l2, memlat.
//
// Constraints applied, in the spirit of the paper's own pruning:
//
//   - a retire-at mark above the depth is meaningless (skipped);
//   - a write-cache point ignores the buffer-shape and policy axes (the
//     write cache reads its own entries and retires via its victim
//     buffer), so depth/width/org/numbuffers/sectorbits/retire/aging/
//     hazard are pinned to their first values for wcache > 0, and the
//     organization itself to the fifo (sim ignores Org there; pinning
//     keeps equal machines hash-equal);
//   - a non-ftl organization pins numbuffers and sectorbits to their
//     first values (they parameterise only the ftl family);
//   - the memory latency is pinned to the base's for a perfect L2 (it is
//     unreachable without one);
//   - MaxCost and Filter drop what they reject;
//   - machines failing sim validation are skipped — this is what drops
//     ftl shapes whose buffer count does not divide the depth;
//   - any remaining duplicates are removed by canonical machconf hash.
func (s *Space) Enumerate() ([]Candidate, error) {
	base := s.base()
	baseRetire, _ := base.Retire.(core.RetireAt)
	if baseRetire.N == 0 {
		baseRetire.N = 2
	}

	depths := intAxis(s.Depths, base.WB.Depth)
	widths := intAxis(s.Widths, base.WB.WordsPerEntry)
	retires := intAxis(s.Retires, baseRetire.N)
	agings := u64Axis(s.Agings, baseRetire.Timeout)
	baseFTL, baseIsFTL := base.Org.(core.FTLOrg)
	orgs := s.Orgs
	if len(orgs) == 0 {
		switch {
		case base.Org == nil:
			orgs = []string{"fifo"}
		case baseIsFTL:
			orgs = []string{"ftl"}
		default:
			orgs = []string{"base"} // keep a custom base spec as-is
		}
	}
	defNB, defSB := 1, 0
	if baseIsFTL {
		defNB, defSB = baseFTL.NumBuffers, baseFTL.SectorBits
	}
	numbufs := intAxis(s.NumBufs, defNB)
	secbits := intAxis(s.SectorBits, defSB)
	hazards := s.Hazards
	if len(hazards) == 0 {
		hazards = []core.HazardPolicy{base.Hazard}
	}
	wcaches := intAxis(s.WCaches, base.WriteCacheDepth)
	l1s := intAxis(s.L1Sizes, base.L1.SizeBytes)
	l2lats := u64Axis(s.L2Lats, base.L2WriteLat)
	l2sizes := s.L2Sizes
	if len(l2sizes) == 0 {
		if base.L2 != nil {
			l2sizes = []int{base.L2.SizeBytes}
		} else {
			l2sizes = []int{0}
		}
	}
	memlats := u64Axis(s.MemLats, base.MemLat)

	// Backend axis defaults come from the base machine, unwrapping a
	// fenced base to seed the inner shape and the fence-cost axis.
	baseBE := base.Backend
	baseFenced, baseIsFenced := baseBE.(backendpkg.FencedSpec)
	baseInner := baseBE
	if baseIsFenced {
		baseInner = baseFenced.Inner
	}
	baseBanked, baseIsBanked := baseInner.(backendpkg.BankedSpec)
	backends := s.Backends
	if len(backends) == 0 {
		switch {
		case baseInner == nil:
			backends = []string{"flat"}
		case baseIsBanked:
			backends = []string{"banked"}
		default:
			backends = []string{"basebe"} // keep a custom base spec as-is
		}
	}
	defBanks, defRowHit, defRowMiss := 1, uint64(0), uint64(0)
	if baseIsBanked {
		defBanks, defRowHit, defRowMiss = baseBanked.Banks, baseBanked.RowHit, baseBanked.RowMiss
	}
	banks := intAxis(s.Banks, defBanks)
	rowhits := u64Axis(s.RowHits, defRowHit)
	rowmisses := u64Axis(s.RowMisses, defRowMiss)
	defFenceCost := uint64(0)
	if baseIsFenced {
		defFenceCost = baseFenced.FullCost
	}
	fencecosts := u64Axis(s.FenceCosts, defFenceCost)

	vary := map[string]bool{
		"depth": len(depths) > 1, "width": len(widths) > 1,
		"org": len(orgs) > 1, "numbuffers": len(numbufs) > 1,
		"sectorbits": len(secbits) > 1,
		"retire":     len(retires) > 1, "aging": len(agings) > 1,
		"hazard": len(hazards) > 1, "wcache": len(wcaches) > 1,
		"l1": len(l1s) > 1, "l2lat": len(l2lats) > 1,
		"l2": len(l2sizes) > 1, "memlat": len(memlats) > 1,
		"backend": len(backends) > 1, "banks": len(banks) > 1,
		"rowhit": len(rowhits) > 1, "rowmiss": len(rowmisses) > 1,
		"fencecost": len(fencecosts) > 1,
	}

	var out []Candidate
	seen := map[string]bool{}
	for di, depth := range depths {
		for wi, width := range widths {
			for oi, org := range orgs {
				for ni, nb := range numbufs {
					for si, sb := range secbits {
						if org != "ftl" && (ni > 0 || si > 0) {
							continue // numbuffers/sectorbits parameterise only ftl
						}
						for ri, retire := range retires {
							for ai, aging := range agings {
								for hi, hazard := range hazards {
									for _, wcache := range wcaches {
										if wcache > 0 && (di > 0 || wi > 0 || oi > 0 || ni > 0 || si > 0 || ri > 0 || ai > 0 || hi > 0) {
											continue // wcache ignores these axes; pin them
										}
										if retire > depth && wcache == 0 {
											continue
										}
										for _, l1 := range l1s {
											for _, l2lat := range l2lats {
												for _, l2size := range l2sizes {
													for mi, memlat := range memlats {
														if l2size == 0 && mi > 0 {
															continue // memlat unreachable behind a perfect L2
														}
														for _, be := range backends {
															for bki, nbanks := range banks {
																for rhi, rowhit := range rowhits {
																	for rmi, rowmiss := range rowmisses {
																		if be != "banked" && (bki > 0 || rhi > 0 || rmi > 0) {
																			continue // banks/rowhit/rowmiss parameterise only banked
																		}
																		for _, fencecost := range fencecosts {
																			cfg := base.
																				WithDepth(depth).
																				WithL1Size(l1).
																				WithL2Latency(l2lat)
																			cfg.WB.WordsPerEntry = width
																			switch org {
																			case "fifo":
																				cfg = cfg.WithOrg(nil)
																			case "ftl":
																				cfg = cfg.WithOrg(core.FTLOrg{NumBuffers: nb, SectorBits: sb})
																			case "base":
																				// keep base.Org
																			default:
																				return nil, fmt.Errorf("explore: unknown buffer organization %q in orgs axis", org)
																			}
																			if wcache > 0 {
																				// Pin the policy axes so equal machines
																				// hash equal regardless of axis order.
																				cfg = cfg.WithWriteCache(wcache).
																					WithRetire(core.Eager{}).
																					WithHazard(core.FlushFull).
																					WithOrg(nil)
																			} else {
																				cfg.WriteCacheDepth = 0
																				cfg = cfg.WithRetire(core.RetireAt{N: retire, Timeout: aging}).
																					WithHazard(hazard)
																			}
																			if l2size > 0 {
																				cfg = cfg.WithL2(l2size)
																			} else {
																				cfg.L2 = nil
																				memlat = base.MemLat
																			}
																			cfg = cfg.WithMemLat(memlat)
																			// The backend is deliberately NOT pinned under
																			// a write cache: it times victim-slot drains.
																			switch be {
																			case "flat":
																				cfg = cfg.WithBackend(nil)
																			case "banked":
																				cfg = cfg.WithBackend(backendpkg.BankedSpec{
																					Banks: nbanks, RowHit: rowhit, RowMiss: rowmiss})
																			case "basebe":
																				// keep base.Backend (including any fenced wrap)
																			default:
																				return nil, fmt.Errorf("explore: unknown memory backend %q in backends axis", be)
																			}
																			if fencecost > 0 && be != "basebe" {
																				cfg = cfg.WithBackend(backendpkg.FencedSpec{
																					Inner: cfg.Backend, FullCost: fencecost})
																			}
																			if s.MaxCost > 0 && CostProxy(cfg) > s.MaxCost {
																				continue
																			}
																			if s.Filter != nil && !s.Filter(cfg) {
																				continue
																			}
																			if cfg.Validate() != nil {
																				continue
																			}
																			hash, err := machconf.Hash(cfg)
																			if err != nil {
																				return nil, fmt.Errorf("explore: %w", err)
																			}
																			if seen[hash] {
																				continue
																			}
																			seen[hash] = true
																			out = append(out, Candidate{
																				Label: label(vary, depth, width, org, nb, sb, retire, aging, hazard, wcache, l1, l2lat, l2size, memlat, be, nbanks, rowhit, rowmiss, fencecost),
																				Hash:  hash,
																				Cfg:   cfg,
																			})
																		}
																	}
																}
															}
														}
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("explore: space contains no legal configuration")
	}
	return out, nil
}

// label renders a candidate as the compact spec string of its varying
// axes (machconf.ParseSpec syntax), so a reported configuration can be fed
// straight back to wbsim/wbcompare.
func label(vary map[string]bool, depth, width int, org string, nb, sb, retire int, aging uint64, hazard core.HazardPolicy, wcache, l1 int, l2lat uint64, l2size int, memlat uint64, be string, nbanks int, rowhit, rowmiss, fencecost uint64) string {
	var parts []string
	add := func(key, val string) {
		if vary[key] {
			parts = append(parts, key+"="+val)
		}
	}
	if wcache > 0 {
		add("wcache", fmt.Sprint(wcache))
	} else {
		add("depth", fmt.Sprint(depth))
		add("org", org)
		if org == "ftl" {
			add("numbuffers", fmt.Sprint(nb))
			add("sectorbits", fmt.Sprint(sb))
		}
		add("retire", fmt.Sprint(retire))
		add("aging", fmt.Sprint(aging))
		add("hazard", hazard.String())
		if vary["wcache"] {
			parts = append(parts, "wcache=0")
		}
	}
	add("width", fmt.Sprint(width))
	add("l1", fmt.Sprint(l1))
	add("l2lat", fmt.Sprint(l2lat))
	add("l2", fmt.Sprint(l2size))
	add("memlat", fmt.Sprint(memlat))
	// The backend keys compose (banks= without backend=banked would imply
	// it, fencecost=0 would parse to a degenerate wrap), so unlike the
	// independent axes above the whole backend description is emitted
	// whenever any backend axis varies — otherwise a label whose fixed
	// parameters differ from the parser's defaults would round-trip to a
	// different machine.
	if (vary["backend"] || vary["banks"] || vary["rowhit"] || vary["rowmiss"] ||
		vary["fencecost"]) && be != "basebe" {
		parts = append(parts, "backend="+be)
		if be == "banked" {
			parts = append(parts, "banks="+fmt.Sprint(nbanks))
			if rowhit > 0 {
				parts = append(parts, "rowhit="+fmt.Sprint(rowhit))
			}
			if rowmiss > 0 {
				parts = append(parts, "rowmiss="+fmt.Sprint(rowmiss))
			}
		}
		if fencecost > 0 {
			parts = append(parts, "fencecost="+fmt.Sprint(fencecost))
		}
	}
	if len(parts) == 0 {
		return "base"
	}
	return strings.Join(parts, ",")
}
