package dispatch

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/machconf"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ConfigSpec pairs a machine configuration with its display label: one
// machine of a group.  experiment.ConfigSpec aliases it.
type ConfigSpec struct {
	Label string
	Cfg   sim.Config
}

// Canonical renders the spec's machine in machconf's canonical form — the
// same bytes the wire format ships and wbsim -dump-config prints.
func (s ConfigSpec) Canonical() ([]byte, error) {
	return machconf.Encode(s.Cfg)
}

// Hash returns the machine's canonical machconf content address, the
// identity the result store and the wbserve result cache key on.
func (s ConfigSpec) Hash() (string, error) {
	return machconf.Hash(s.Cfg)
}

// batchRefs is the lockstep granularity: references per Fill call, every
// one of them stepped by every machine of the group before the next Fill.
// 4096 × 16-byte refs is 64 KiB — large enough to amortise the generator
// and step dispatch to nothing, small enough to stay cache-resident.
const batchRefs = 4096

// ExecuteGroup runs benchmark b for n dynamic instructions on every
// machine in specs at once: one generator fills each reference batch and
// every machine steps that same batch before the next Fill, so the
// benchmark's stream is generated once for the group instead of once per
// machine.  Each machine's Measurement is bit-identical to its solo
// ExecuteBench: the machines share nothing but the batch they step.  When
// reg is non-nil every finished machine's counters are folded into it.
//
// The second result is the wall time each machine consumed: its own
// sim.New and StepBatch calls, plus an equal share of the group's common
// cost — chiefly reference generation.  The shares add up to the group's
// wall time.
//
// ctx is checked once per batch; a cancelled group returns ctx's error
// and no measurements.  A spec the simulator rejects fails the group with
// an error naming that spec's label.
func ExecuteGroup(ctx context.Context, b workload.Benchmark, specs []ConfigSpec, n uint64, reg *metrics.Registry) ([]Measurement, []time.Duration, error) {
	if len(specs) == 0 {
		return nil, nil, nil
	}
	start := time.Now()
	ms := make([]*sim.Machine, len(specs))
	own := make([]time.Duration, len(specs))
	for i, s := range specs {
		t := time.Now()
		m, err := sim.New(s.Cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s.Label, err)
		}
		ms[i] = m
		own[i] = time.Since(t)
	}
	l := newLockstep(trace.GeneratorOf(b.Stream(n)), ms, n)
	if err := l.run(ctx); err != nil {
		return nil, nil, err
	}
	out := make([]Measurement, len(specs))
	for i, m := range ms {
		out[i] = measure(b.Name, specs[i], m, reg)
		own[i] += l.own[i]
	}
	shared := time.Since(start)
	for _, d := range own {
		shared -= d
	}
	for i := range own {
		own[i] += shared / time.Duration(len(own))
	}
	return out, own, nil
}

// measure reads a finished machine's Measurement.
func measure(bench string, s ConfigSpec, m *sim.Machine, reg *metrics.Registry) Measurement {
	c := m.Counters()
	l2 := 1.0
	if s.Cfg.L2 != nil {
		l2 = m.L2Stats().ReadHitRate()
	}
	if reg != nil {
		m.PublishMetrics(reg)
	}
	return Measurement{
		Bench: bench,
		Label: s.Label,
		C:     c,
		WBHit: m.WBStoreHitRate(),
		L1Hit: c.L1LoadHitRate(),
		L2Hit: l2,
	}
}

// WarmRun runs machines ms in lockstep over stream s with the standard
// warm-up split: the first n/4 dynamic instructions execute unmeasured,
// then statistics reset and the remainder is measured.  Experiments that
// read more of a machine than a Measurement holds build the machines
// themselves and call it; ExecuteGroup is the same loop.
func WarmRun(s trace.Stream, n uint64, ms ...*sim.Machine) {
	// run fails only on a cancelled context, and this one never is.
	_ = newLockstep(trace.GeneratorOf(s), ms, n).run(context.TODO())
}

// lockstep drives a group of machines over one generator's batches.  It
// owns the repository's warm-up split (experiment.Run documents why the
// first quarter is excluded): every machine steps the batch prefix inside
// the warm-up budget, resets its statistics, then steps the suffix.
type lockstep struct {
	g    trace.Generator
	ms   []*sim.Machine
	buf  []trace.Ref
	warm uint64          // warm-up instructions left; 0 once statistics reset
	own  []time.Duration // per-machine StepBatch time, accumulated
}

func newLockstep(g trace.Generator, ms []*sim.Machine, n uint64) *lockstep {
	return &lockstep{
		g:    g,
		ms:   ms,
		buf:  make([]trace.Ref, batchRefs),
		warm: n / 4,
		own:  make([]time.Duration, len(ms)),
	}
}

// run consumes the generator to exhaustion, checking ctx before every
// batch.  A cancelled run closes a generator that is an io.Closer, so a
// kernel benchmark's producer goroutine does not outlive the abandoned
// stream.
func (l *lockstep) run(ctx context.Context) error {
	if l.warm == 0 {
		l.endWarmup()
	}
	for {
		if err := ctx.Err(); err != nil {
			if c, ok := l.g.(io.Closer); ok {
				c.Close()
			}
			return err
		}
		if !l.batch() {
			break
		}
	}
	if l.warm > 0 { // the stream ended inside the warm-up
		l.endWarmup()
	}
	return nil
}

// batch fills one batch and steps every machine over it, ending the
// warm-up where its budget runs out.  It reports false once the generator
// is exhausted.
func (l *lockstep) batch() bool {
	got := l.g.Fill(l.buf)
	if got == 0 {
		return false
	}
	refs := l.buf[:got]
	if l.warm > 0 {
		refs = l.warmup(refs)
	}
	l.step(refs)
	return true
}

// warmup ends the warm-up if its budget runs out inside refs: every
// machine steps the prefix inside the budget and resets its statistics.
// It returns the refs still to step.  A run-length-encoded Exec ref that straddles the boundary is cut
// in place into its warm-up and measured parts, so every machine sees the
// same decoded sequence as a per-reference warm-up.
func (l *lockstep) warmup(refs []trace.Ref) []trace.Ref {
	var c uint64
	for i, r := range refs {
		k := r.InstrCount()
		if c+k < l.warm {
			c += k
			continue
		}
		cut := l.warm - c // 1..k instructions of refs[i] are warm-up
		if cut < k {
			refs[i] = trace.ExecRun(cut)
		}
		l.step(refs[:i+1])
		l.endWarmup()
		if cut < k {
			refs[i] = trace.ExecRun(k - cut)
			return refs[i:]
		}
		return refs[i+1:]
	}
	l.warm -= c
	return refs
}

func (l *lockstep) endWarmup() {
	for _, m := range l.ms {
		m.ResetStats()
	}
	l.warm = 0
}

// step runs every machine over refs, charging each its own time.
func (l *lockstep) step(refs []trace.Ref) {
	t := time.Now()
	for i, m := range l.ms {
		m.StepBatch(refs)
		now := time.Now()
		l.own[i] += now.Sub(t)
		t = now
	}
}
