package dispatch

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/machconf"
)

// The wire format is the JSON job description POST /job accepts and the
// canonical form Job.Key hashes.  The machine itself is not
// described here at all: the config field carries a machconf canonical
// blob, so the schema for the machine lives in exactly one place
// (internal/machconf) and this file never changes when sim.Config grows a
// field.  Any policy registered with the machconf registry — including
// custom ones (examples/custompolicy) — travels to remote workers and into
// the result store with no dispatch-side changes.

// wireJob is the JSON encoding of a Job: the benchmark coordinates plus
// the machine's canonical form.
type wireJob struct {
	Bench  string          `json:"bench"`
	Label  string          `json:"label,omitempty"`
	N      uint64          `json:"n"`
	Config json.RawMessage `json:"config"`
}

// encodeJob renders a job in the wire format, or reports why it cannot
// travel (a retirement policy with no registered machconf codec).
func encodeJob(job Job) (wireJob, error) {
	blob, err := machconf.Encode(job.Cfg)
	if err != nil {
		return wireJob{}, err
	}
	return wireJob{Bench: job.Bench, Label: job.Label, N: job.N, Config: blob}, nil
}

// decodeJob rebuilds a Job from the wire format.  Decoding is structural
// (schema version, geometry, registered policy kinds); full machine
// validation happens in Execute via sim.New.
func decodeJob(w wireJob) (Job, error) {
	cfg, err := machconf.Decode(w.Config)
	if err != nil {
		return Job{}, err
	}
	return Job{Bench: w.Bench, Label: w.Label, Cfg: cfg, N: w.N}, nil
}

// Key returns the job's canonical identity: the hex SHA-256 of its wire
// encoding with the display label stripped, so a rerun that labels its
// columns differently keys its jobs the same.  Remote's verify sampling
// and faultline's fault targeting hash it.  The embedded
// config blob is machconf's canonical form, so equal machines always key
// equal.  Jobs whose configuration has no wire encoding have no key.
func (j Job) Key() (string, error) {
	w, err := encodeJob(j)
	if err != nil {
		return "", err
	}
	w.Label = ""
	b, err := json.Marshal(w) // fixed field order: canonical by construction
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
