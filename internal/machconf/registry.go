package machconf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/backend"
	"repro/internal/core"
)

// Policy is the wire form of a pluggable policy: a registered kind string
// plus that kind's parameter payload.  The payload is produced by the
// kind's codec, so the schema stays open — new policy families add a codec,
// not a wire field.
type Policy struct {
	Kind   string          `json:"kind"`
	Params json.RawMessage `json:"params,omitempty"`
}

// RetirementCodec makes one retirement-policy family wire-encodable.
// Encode claims a policy value (returning its parameter payload and true)
// or declines it; Decode rebuilds the policy from the payload.  Both
// directions must be deterministic and mutually inverse — the canonical
// hash and the result store depend on it.
type RetirementCodec struct {
	// Kind is the family's wire identifier ("retire-at", "fixed-rate", …).
	Kind string
	// Encode returns the parameter payload for a policy of this family,
	// or ok=false when the policy belongs to a different family.  A nil
	// payload encodes a parameterless kind.
	Encode func(p core.RetirementPolicy) (params any, ok bool)
	// Decode rebuilds the policy from its payload; raw is nil when the
	// wire form carried no params.
	Decode func(raw json.RawMessage) (core.RetirementPolicy, error)
}

// OrgCodec makes one write-buffer-organization family wire-encodable, with
// the same contract as RetirementCodec: Encode claims a spec or declines
// it, Decode rebuilds it, and the two must be deterministic and mutually
// inverse.  Decode may return a nil spec — that is how the "fifo" kind
// maps an explicitly-written organization block back to the canonical
// omitted form.
type OrgCodec struct {
	// Kind is the family's wire identifier ("fifo", "ftl", …).
	Kind string
	// Encode returns the parameter payload for a spec of this family, or
	// ok=false when the spec belongs to a different family.
	Encode func(o core.OrgSpec) (params any, ok bool)
	// Decode rebuilds the spec from its payload; raw is nil when the wire
	// form carried no params.
	Decode func(raw json.RawMessage) (core.OrgSpec, error)
}

// BackendCodec makes one drain-side-backend family wire-encodable, with
// the same contract as OrgCodec: Encode claims a spec or declines it,
// Decode rebuilds it, and the two must be deterministic and mutually
// inverse.  Decode may return a nil spec — that is how the "flat" kind
// maps an explicitly-written backend block back to the canonical omitted
// form.  A codec may recurse through EncodeBackend/DecodeBackend for
// nested backends (the fenced family does); the registry lock is released
// before any codec runs, so the recursion is safe.
type BackendCodec struct {
	// Kind is the family's wire identifier ("flat", "banked", "fenced", …).
	Kind string
	// Encode returns the parameter payload for a spec of this family, or
	// ok=false when the spec belongs to a different family.
	Encode func(b backend.Spec) (params any, ok bool)
	// Decode rebuilds the spec from its payload; raw is nil when the wire
	// form carried no params.
	Decode func(raw json.RawMessage) (backend.Spec, error)
}

var (
	regMu         sync.RWMutex
	retireCodecs  []RetirementCodec  // encode tries these in registration order
	retireKinds   = map[string]int{} // kind -> index into retireCodecs
	hazardKinds   = map[string]core.HazardPolicy{}
	orgCodecs     []OrgCodec
	orgKinds      = map[string]int{} // kind -> index into orgCodecs
	backendCodecs []BackendCodec
	backendKinds  = map[string]int{} // kind -> index into backendCodecs
)

// RegisterRetirement adds a retirement-policy family to the wire schema.
// Registration is typically done from an init function (the built-in
// families) or at program start-up (examples/custompolicy); once a kind is
// registered the policy travels through every consumer of this package —
// the result store, remote workers, wbserve — with no further changes.  It
// panics on a duplicate or incomplete codec, since that is a programming
// error, not an input error.
func RegisterRetirement(c RetirementCodec) {
	if c.Kind == "" || c.Encode == nil || c.Decode == nil {
		panic("machconf: RegisterRetirement needs a kind, an Encode, and a Decode")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := retireKinds[c.Kind]; dup {
		panic(fmt.Sprintf("machconf: duplicate retirement kind %q", c.Kind))
	}
	retireKinds[c.Kind] = len(retireCodecs)
	retireCodecs = append(retireCodecs, c)
}

// RegisterHazard adds a named load-hazard policy to the wire schema.  The
// four paper policies are pre-registered under their core names.
func RegisterHazard(name string, p core.HazardPolicy) {
	if name == "" {
		panic("machconf: RegisterHazard needs a name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := hazardKinds[name]; dup {
		panic(fmt.Sprintf("machconf: duplicate hazard policy %q", name))
	}
	hazardKinds[name] = p
}

// HazardByName resolves a registered hazard-policy name.
func HazardByName(name string) (core.HazardPolicy, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := hazardKinds[name]
	return p, ok
}

// RegisterOrg adds a write-buffer-organization family to the wire schema.
// Once registered, the organization travels everywhere a configuration
// does — the result store, remote workers, the wbserve result cache —
// with no further changes.  It panics on a duplicate or incomplete codec.
func RegisterOrg(c OrgCodec) {
	if c.Kind == "" || c.Encode == nil || c.Decode == nil {
		panic("machconf: RegisterOrg needs a kind, an Encode, and a Decode")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := orgKinds[c.Kind]; dup {
		panic(fmt.Sprintf("machconf: duplicate organization kind %q", c.Kind))
	}
	orgKinds[c.Kind] = len(orgCodecs)
	orgCodecs = append(orgCodecs, c)
}

// EncodeOrg renders a buffer-organization spec in its registered wire
// form.  The implicit FIFO is never encoded (a nil spec is the caller's
// signal to omit the buffer block), so a nil spec here is an error.
func EncodeOrg(o core.OrgSpec) (Policy, error) {
	if o == nil {
		return Policy{}, fmt.Errorf("machconf: no buffer organization to encode")
	}
	regMu.RLock()
	codecs := orgCodecs
	regMu.RUnlock()
	for _, c := range codecs {
		params, ok := c.Encode(o)
		if !ok {
			continue
		}
		var raw json.RawMessage
		if params != nil {
			b, err := json.Marshal(params)
			if err != nil {
				return Policy{}, fmt.Errorf("machconf: encoding %q params: %w", c.Kind, err)
			}
			raw = b
		}
		return Policy{Kind: c.Kind, Params: raw}, nil
	}
	return Policy{}, fmt.Errorf("machconf: buffer organization %q has no registered codec; "+
		"call machconf.RegisterOrg to make it wire-encodable", o.OrgName())
}

// DecodeOrg rebuilds a buffer-organization spec from its wire form.  A
// nil result is valid: it means the block named the implicit FIFO.
func DecodeOrg(w Policy) (core.OrgSpec, error) {
	regMu.RLock()
	idx, ok := orgKinds[w.Kind]
	var c OrgCodec
	if ok {
		c = orgCodecs[idx]
	}
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("machconf: unknown buffer organization kind %q", w.Kind)
	}
	o, err := c.Decode(w.Params)
	if err != nil {
		return nil, fmt.Errorf("machconf: decoding %q params: %w", w.Kind, err)
	}
	return o, nil
}

// RegisterBackend adds a drain-side-backend family to the wire schema.
// Once registered, the backend travels everywhere a configuration does —
// the result store, remote workers, the wbserve result cache — with no
// further changes.  It panics on a duplicate or incomplete codec.
func RegisterBackend(c BackendCodec) {
	if c.Kind == "" || c.Encode == nil || c.Decode == nil {
		panic("machconf: RegisterBackend needs a kind, an Encode, and a Decode")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := backendKinds[c.Kind]; dup {
		panic(fmt.Sprintf("machconf: duplicate backend kind %q", c.Kind))
	}
	backendKinds[c.Kind] = len(backendCodecs)
	backendCodecs = append(backendCodecs, c)
}

// EncodeBackend renders a drain-side backend spec in its registered wire
// form.  The implicit flat backend is never encoded (a nil spec is the
// caller's signal to omit the backend block), so a nil spec here is an
// error.
func EncodeBackend(b backend.Spec) (Policy, error) {
	if b == nil {
		return Policy{}, fmt.Errorf("machconf: no backend to encode")
	}
	regMu.RLock()
	codecs := backendCodecs
	regMu.RUnlock()
	for _, c := range codecs {
		params, ok := c.Encode(b)
		if !ok {
			continue
		}
		var raw json.RawMessage
		if params != nil {
			p, err := json.Marshal(params)
			if err != nil {
				return Policy{}, fmt.Errorf("machconf: encoding %q params: %w", c.Kind, err)
			}
			raw = p
		}
		return Policy{Kind: c.Kind, Params: raw}, nil
	}
	return Policy{}, fmt.Errorf("machconf: backend %q has no registered codec; "+
		"call machconf.RegisterBackend to make it wire-encodable", b.BackendName())
}

// DecodeBackend rebuilds a drain-side backend spec from its wire form.  A
// nil result is valid: it means the block named the implicit flat backend.
func DecodeBackend(w Policy) (backend.Spec, error) {
	regMu.RLock()
	idx, ok := backendKinds[w.Kind]
	var c BackendCodec
	if ok {
		c = backendCodecs[idx]
	}
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("machconf: unknown backend kind %q", w.Kind)
	}
	b, err := c.Decode(w.Params)
	if err != nil {
		return nil, fmt.Errorf("machconf: decoding %q params: %w", w.Kind, err)
	}
	return b, nil
}

// EncodeRetirement renders a retirement policy in its registered wire
// form.  A policy no registered codec claims cannot travel; the error says
// how to fix that.
func EncodeRetirement(p core.RetirementPolicy) (Policy, error) {
	if p == nil {
		return Policy{}, fmt.Errorf("machconf: no retirement policy to encode")
	}
	regMu.RLock()
	codecs := retireCodecs
	regMu.RUnlock()
	for _, c := range codecs {
		params, ok := c.Encode(p)
		if !ok {
			continue
		}
		var raw json.RawMessage
		if params != nil {
			b, err := json.Marshal(params)
			if err != nil {
				return Policy{}, fmt.Errorf("machconf: encoding %q params: %w", c.Kind, err)
			}
			raw = b
		}
		return Policy{Kind: c.Kind, Params: raw}, nil
	}
	return Policy{}, fmt.Errorf("machconf: retirement policy %q has no registered codec; "+
		"call machconf.RegisterRetirement to make it wire-encodable", p.Name())
}

// DecodeRetirement rebuilds a retirement policy from its wire form.
func DecodeRetirement(w Policy) (core.RetirementPolicy, error) {
	regMu.RLock()
	idx, ok := retireKinds[w.Kind]
	var c RetirementCodec
	if ok {
		c = retireCodecs[idx]
	}
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("machconf: unknown retirement policy kind %q", w.Kind)
	}
	p, err := c.Decode(w.Params)
	if err != nil {
		return nil, fmt.Errorf("machconf: decoding %q params: %w", w.Kind, err)
	}
	return p, nil
}

// decodeParams strictly unmarshals a params payload into dst; a nil or
// empty payload leaves dst at its zero value.
func decodeParams(raw json.RawMessage, dst any) error {
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// ─── built-in policy families ────────────────────────────────────────────

type retireAtParams struct {
	N       int    `json:"n,omitempty"`
	Timeout uint64 `json:"timeout,omitempty"`
}

type fixedRateParams struct {
	Interval uint64 `json:"interval,omitempty"`
}

func init() {
	RegisterRetirement(RetirementCodec{
		Kind: "retire-at",
		Encode: func(p core.RetirementPolicy) (any, bool) {
			r, ok := p.(core.RetireAt)
			if !ok {
				return nil, false
			}
			return retireAtParams{N: r.N, Timeout: r.Timeout}, true
		},
		Decode: func(raw json.RawMessage) (core.RetirementPolicy, error) {
			var p retireAtParams
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return core.RetireAt{N: p.N, Timeout: p.Timeout}, nil
		},
	})
	RegisterRetirement(RetirementCodec{
		Kind: "fixed-rate",
		Encode: func(p core.RetirementPolicy) (any, bool) {
			r, ok := p.(core.FixedRate)
			if !ok {
				return nil, false
			}
			return fixedRateParams{Interval: r.Interval}, true
		},
		Decode: func(raw json.RawMessage) (core.RetirementPolicy, error) {
			var p fixedRateParams
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return core.FixedRate{Interval: p.Interval}, nil
		},
	})
	RegisterRetirement(RetirementCodec{
		Kind: "eager",
		Encode: func(p core.RetirementPolicy) (any, bool) {
			_, ok := p.(core.Eager)
			return nil, ok
		},
		Decode: func(raw json.RawMessage) (core.RetirementPolicy, error) {
			var p struct{}
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return core.Eager{}, nil
		},
	})
	for _, h := range core.HazardPolicies {
		RegisterHazard(h.String(), h)
	}
	// The built-in organization families.  "fifo" is decode-only: the
	// default organization is a nil spec that is never encoded, so an
	// explicitly-written fifo block converges to the omitted form (and the
	// pre-buffer-block hash) on its first round trip.
	RegisterOrg(OrgCodec{
		Kind:   "fifo",
		Encode: func(core.OrgSpec) (any, bool) { return nil, false },
		Decode: func(raw json.RawMessage) (core.OrgSpec, error) {
			var p struct{}
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return nil, nil
		},
	})
	RegisterOrg(OrgCodec{
		Kind: "ftl",
		Encode: func(o core.OrgSpec) (any, bool) {
			f, ok := o.(core.FTLOrg)
			if !ok {
				return nil, false
			}
			return ftlOrgParams{NumBuffers: f.NumBuffers, SectorBits: f.SectorBits}, true
		},
		Decode: func(raw json.RawMessage) (core.OrgSpec, error) {
			var p ftlOrgParams
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return core.FTLOrg{NumBuffers: p.NumBuffers, SectorBits: p.SectorBits}, nil
		},
	})
	// The built-in backend families.  "flat" is decode-only for the same
	// reason "fifo" is: the default backend is a nil spec that is never
	// encoded, so an explicitly-written flat block converges to the
	// omitted form (and the pre-backend-block hash) on its first round
	// trip.
	RegisterBackend(BackendCodec{
		Kind:   "flat",
		Encode: func(backend.Spec) (any, bool) { return nil, false },
		Decode: func(raw json.RawMessage) (backend.Spec, error) {
			var p struct{}
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return nil, nil
		},
	})
	RegisterBackend(BackendCodec{
		Kind: "banked",
		Encode: func(b backend.Spec) (any, bool) {
			s, ok := b.(backend.BankedSpec)
			if !ok {
				return nil, false
			}
			return bankedParams{Banks: s.Banks, RowHit: s.RowHit,
				RowMiss: s.RowMiss, RowLines: s.RowLines}, true
		},
		Decode: func(raw json.RawMessage) (backend.Spec, error) {
			var p bankedParams
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			return backend.BankedSpec{Banks: p.Banks, RowHit: p.RowHit,
				RowMiss: p.RowMiss, RowLines: p.RowLines}, nil
		},
	})
	// "fenced" nests its inner backend as another Policy; the recursion
	// through EncodeBackend/DecodeBackend is safe because the registry
	// lock is released before any codec runs.  A nil inner (flat) is
	// omitted from the params.
	RegisterBackend(BackendCodec{
		Kind: "fenced",
		Encode: func(b backend.Spec) (any, bool) {
			s, ok := b.(backend.FencedSpec)
			if !ok {
				return nil, false
			}
			p := fencedParams{ReleaseCost: s.ReleaseCost, FullCost: s.FullCost}
			if s.Inner != nil {
				inner, err := EncodeBackend(s.Inner)
				if err != nil {
					return nil, false
				}
				p.Inner = &inner
			}
			return p, true
		},
		Decode: func(raw json.RawMessage) (backend.Spec, error) {
			var p fencedParams
			if err := decodeParams(raw, &p); err != nil {
				return nil, err
			}
			s := backend.FencedSpec{ReleaseCost: p.ReleaseCost, FullCost: p.FullCost}
			if p.Inner != nil {
				inner, err := DecodeBackend(*p.Inner)
				if err != nil {
					return nil, err
				}
				s.Inner = inner
			}
			return s, nil
		},
	})
}

type ftlOrgParams struct {
	NumBuffers int `json:"numbuffers,omitempty"`
	SectorBits int `json:"sectorbits,omitempty"`
}

type bankedParams struct {
	Banks    int    `json:"banks,omitempty"`
	RowHit   uint64 `json:"rowhit,omitempty"`
	RowMiss  uint64 `json:"rowmiss,omitempty"`
	RowLines int    `json:"rowlines,omitempty"`
}

type fencedParams struct {
	Inner       *Policy `json:"inner,omitempty"`
	ReleaseCost uint64  `json:"releasecost,omitempty"`
	FullCost    uint64  `json:"fullcost,omitempty"`
}
