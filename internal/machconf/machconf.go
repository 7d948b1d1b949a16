// Package machconf is the single canonical description of a simulated
// machine: one versioned JSON schema for sim.Config, one validation entry
// point, and one SHA-256 content hash.
//
// Historically the machine configuration was described by four
// independently hand-maintained encodings (the dispatch wire format, the
// wbserve request shape, and the wbexp/wbsim flag sets), so adding a
// Config field meant touching all four or letting distributed runs drift
// silently from local ones.  Every layer now delegates here:
//
//   - internal/dispatch ships jobs as bench + label + n + a machconf blob,
//     and keys the result store on the canonical hash;
//   - cmd/wbserve accepts the canonical form directly in POST /run and
//     keys its result cache on the canonical hash;
//   - cmd/wbsim and cmd/wbexp read and write the canonical form through
//     their -config / -dump-config flags, making sweeps reproducible
//     artifacts;
//   - internal/experiment exposes it per ConfigSpec for labels and hashes.
//
// The schema is open where the machine is open.  Retirement and hazard
// policies are not enumerated in the wire type; they travel as a
// registered kind string plus that kind's parameter payload (see
// RegisterRetirement and RegisterHazard in registry.go).  A custom policy
// that registers a codec — examples/custompolicy does — becomes
// wire-encodable everywhere at once: the result store, remote workers,
// the wbserve cache.
//
// Canonical form: Encode marshals the Wire struct, whose field order is
// fixed by its declaration, with zero-valued optional fields omitted, so
// equal configurations produce byte-identical encodings and Hash is a
// stable content address.  Decode is strict (unknown fields and unknown
// schema versions are errors) and purely structural; whole-machine
// invariants stay in Validate, which is the one validation entry point.
package machconf

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Version is the schema version stamped into every encoding.  Bump it when
// a change would make old blobs decode to a different machine; Decode
// rejects versions it does not understand rather than guessing.
const Version = 1

// BufferVersion is the nested buffer block's own schema version.  The
// block is young and expected to evolve (new organization families, shared
// knobs); versioning it separately lets it move without invalidating every
// hash in the result store the way a top-level Version bump would.
const BufferVersion = 1

// BackendVersion is the nested drain-side backend block's own schema
// version, versioned separately for the same reason as BufferVersion.
const BackendVersion = 1

// Wire is the canonical JSON shape of a sim.Config.  Field order is the
// canonical encoding order; do not reorder.  Every sim.Config field has
// exactly one counterpart here — the exhaustiveness test in
// exhaustive_test.go fails when the two drift apart.
type Wire struct {
	// V is the schema version (always Version on encode).
	V int `json:"v"`
	// L1 is the data cache; L2, when present, the finite second level.
	L1 WireCache  `json:"l1"`
	L2 *WireCache `json:"l2,omitempty"`
	// L2ReadLat/L2WriteLat/MemLat are the hierarchy latencies in cycles.
	L2ReadLat  uint64 `json:"l2_read_lat"`
	L2WriteLat uint64 `json:"l2_write_lat"`
	MemLat     uint64 `json:"mem_lat"`
	// WBDepth/WBWords/LineBytes/WordBytes flatten core.Config and its
	// mem.Geometry.
	WBDepth   int `json:"wb_depth"`
	WBWords   int `json:"wb_words"`
	LineBytes int `json:"line_bytes"`
	WordBytes int `json:"word_bytes"`
	// Buffer, when present, selects a non-default write-buffer
	// organization over that geometry.  It is omitted — never encoded as
	// an empty block — for the implicit FIFO, so every pre-existing
	// configuration keeps its content hash.
	Buffer *WireBuffer `json:"buffer,omitempty"`
	// Backend, when present, selects a non-default drain-side backend
	// (banked DRAM timing, fenced barrier costs).  Like Buffer it is
	// omitted for the implicit flat backend, so every pre-existing
	// configuration keeps its content hash.
	Backend *WireBackend `json:"backend,omitempty"`
	// Retire and Hazard travel by registered kind, not by enumeration.
	Retire Policy `json:"retire"`
	Hazard string `json:"hazard"`
	// The remaining fields mirror sim.Config's extensions one-to-one.
	WriteThreshold       int     `json:"write_threshold,omitempty"`
	IssueWidth           int     `json:"issue_width,omitempty"`
	WriteTransferCycles  uint64  `json:"write_transfer_cycles,omitempty"`
	WriteCacheDepth      int     `json:"write_cache_depth,omitempty"`
	ChargeWriteMissFetch bool    `json:"charge_write_miss_fetch,omitempty"`
	IMissRate            float64 `json:"i_miss_rate,omitempty"`
	ISeed                uint64  `json:"i_seed,omitempty"`
}

// WireCache is the canonical form of a cache.Config.
type WireCache struct {
	SizeBytes int `json:"size_bytes"`
	LineBytes int `json:"line_bytes"`
	Assoc     int `json:"assoc"`
}

// WireBuffer is the versioned write-buffer block.  Like Retire and Hazard,
// the organization travels as a registered kind plus that kind's parameter
// payload (see RegisterOrg), so custom organizations become wire-encodable
// — remote workers, result-store keys — without schema edits.
type WireBuffer struct {
	V   int    `json:"v"`
	Org Policy `json:"org"`
}

// WireBackend is the versioned drain-side backend block.  The backend
// travels as a registered kind plus that kind's parameter payload (see
// RegisterBackend), so custom backends become wire-encodable without
// schema edits.  The fenced kind nests its inner backend as another
// Policy inside its params.
type WireBackend struct {
	V     int    `json:"v"`
	Drain Policy `json:"drain"`
}

// ToWire renders a configuration as its canonical wire structure.  It
// fails only when the retirement policy has no registered codec.
func ToWire(cfg sim.Config) (Wire, error) {
	retire, err := EncodeRetirement(cfg.Retire)
	if err != nil {
		return Wire{}, err
	}
	w := Wire{
		V:                    Version,
		L1:                   WireCache{SizeBytes: cfg.L1.SizeBytes, LineBytes: cfg.L1.LineBytes, Assoc: cfg.L1.Assoc},
		L2ReadLat:            cfg.L2ReadLat,
		L2WriteLat:           cfg.L2WriteLat,
		MemLat:               cfg.MemLat,
		WBDepth:              cfg.WB.Depth,
		WBWords:              cfg.WB.WordsPerEntry,
		LineBytes:            cfg.WB.Geometry.LineBytes(),
		WordBytes:            cfg.WB.Geometry.WordBytes(),
		Retire:               retire,
		Hazard:               cfg.Hazard.String(),
		WriteThreshold:       cfg.WriteThreshold,
		IssueWidth:           cfg.IssueWidth,
		WriteTransferCycles:  cfg.WriteTransferCycles,
		WriteCacheDepth:      cfg.WriteCacheDepth,
		ChargeWriteMissFetch: cfg.ChargeWriteMissFetch,
		IMissRate:            cfg.IMissRate,
		ISeed:                cfg.ISeed,
	}
	if cfg.L2 != nil {
		w.L2 = &WireCache{SizeBytes: cfg.L2.SizeBytes, LineBytes: cfg.L2.LineBytes, Assoc: cfg.L2.Assoc}
	}
	if cfg.Org != nil {
		org, err := EncodeOrg(cfg.Org)
		if err != nil {
			return Wire{}, err
		}
		w.Buffer = &WireBuffer{V: BufferVersion, Org: org}
	}
	if cfg.Backend != nil {
		drain, err := EncodeBackend(cfg.Backend)
		if err != nil {
			return Wire{}, err
		}
		w.Backend = &WireBackend{V: BackendVersion, Drain: drain}
	}
	return w, nil
}

// FromWire rebuilds a configuration from its wire structure.  The checks
// here are what the rebuild itself needs (schema version, a constructible
// geometry, registered policy kinds); whole-machine invariants are
// Validate's job, so an encodable-but-invalid machine (say, a negative
// depth) still travels and is rejected by the consumer that runs it.
func FromWire(w Wire) (sim.Config, error) {
	if w.V != Version {
		return sim.Config{}, fmt.Errorf("machconf: unsupported schema version %d (want %d)", w.V, Version)
	}
	geom, err := mem.NewGeometry(w.LineBytes, w.WordBytes)
	if err != nil {
		return sim.Config{}, fmt.Errorf("machconf: %w", err)
	}
	retire, err := DecodeRetirement(w.Retire)
	if err != nil {
		return sim.Config{}, err
	}
	hazard, ok := HazardByName(w.Hazard)
	if !ok {
		return sim.Config{}, fmt.Errorf("machconf: unknown hazard policy %q", w.Hazard)
	}
	cfg := sim.Config{
		L1:                   cache.Config{SizeBytes: w.L1.SizeBytes, LineBytes: w.L1.LineBytes, Assoc: w.L1.Assoc},
		L2ReadLat:            w.L2ReadLat,
		L2WriteLat:           w.L2WriteLat,
		MemLat:               w.MemLat,
		WB:                   core.Config{Depth: w.WBDepth, WordsPerEntry: w.WBWords, Geometry: geom},
		Retire:               retire,
		Hazard:               hazard,
		WriteThreshold:       w.WriteThreshold,
		IssueWidth:           w.IssueWidth,
		WriteTransferCycles:  w.WriteTransferCycles,
		WriteCacheDepth:      w.WriteCacheDepth,
		ChargeWriteMissFetch: w.ChargeWriteMissFetch,
		IMissRate:            w.IMissRate,
		ISeed:                w.ISeed,
	}
	if w.L2 != nil {
		l2 := cache.Config{SizeBytes: w.L2.SizeBytes, LineBytes: w.L2.LineBytes, Assoc: w.L2.Assoc}
		cfg.L2 = &l2
	}
	if w.Buffer != nil {
		if w.Buffer.V != BufferVersion {
			return sim.Config{}, fmt.Errorf("machconf: unsupported buffer block version %d (want %d)",
				w.Buffer.V, BufferVersion)
		}
		// The "fifo" kind decodes to a nil spec, so an explicitly-written
		// fifo block converges to the canonical omitted form on re-encode.
		org, err := DecodeOrg(w.Buffer.Org)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Org = org
	}
	if w.Backend != nil {
		if w.Backend.V != BackendVersion {
			return sim.Config{}, fmt.Errorf("machconf: unsupported backend block version %d (want %d)",
				w.Backend.V, BackendVersion)
		}
		// The "flat" kind decodes to a nil spec, so an explicitly-written
		// flat block converges to the canonical omitted form on re-encode.
		be, err := DecodeBackend(w.Backend.Drain)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Backend = be
	}
	return cfg, nil
}

// Encode renders a configuration in canonical JSON: fixed field order,
// zero-valued optional fields omitted.  Equal configurations produce
// byte-identical output.
func Encode(cfg sim.Config) ([]byte, error) {
	w, err := ToWire(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// Decode parses a canonical (or hand-written) JSON configuration.  Unknown
// fields, trailing data, and unsupported schema versions are errors, and
// structural errors name the offending field by its full dotted JSON path
// ("l1.size_bytes", "buffer.org.kind" — see strict.go); arbitrary input
// never panics (the package fuzzer enforces this).
func Decode(data []byte) (sim.Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return sim.Config{}, fmt.Errorf("machconf: %w", err)
	}
	if dec.More() {
		return sim.Config{}, fmt.Errorf("machconf: trailing data after configuration")
	}
	if err := checkValue("", raw, reflect.TypeOf(Wire{})); err != nil {
		return sim.Config{}, fmt.Errorf("machconf: %w", err)
	}
	var w Wire
	if err := json.Unmarshal(raw, &w); err != nil {
		return sim.Config{}, fmt.Errorf("machconf: %w", err)
	}
	return FromWire(w)
}

// Hash returns the configuration's canonical content address: the hex
// SHA-256 of its Encode output.  Everything that needs one identity for
// one machine — the result store, the wbserve result cache, sweep
// labels — uses this.
func Hash(cfg sim.Config) (string, error) {
	b, err := Encode(cfg)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Validate is the one whole-machine validation entry point, shared by
// every consumer of the schema.  It delegates to sim.Config.Validate so
// the invariants live next to the model that defines them.
func Validate(cfg sim.Config) error {
	return cfg.Validate()
}
