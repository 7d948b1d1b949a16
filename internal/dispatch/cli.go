package dispatch

import (
	"strings"

	"repro/internal/metrics"
	"repro/internal/resultstore"
)

// BuildOptions describes the execution stack the standard CLI flags
// select; BuildBackendOpts assembles it.
type BuildOptions struct {
	// Workers is the comma-separated worker URL list (the -workers flag).
	// Empty means in-process execution.
	Workers string
	// Store is the shared content-addressed result-store directory (the
	// -store flag); a comma-separated list opens a replicated store
	// mirroring across the listed directories.  Empty disables the store
	// tier.  When set, the store wraps the whole stack: a sweep whose
	// results any process already paid for — wbserve, wbexp, wbopt, any
	// tenant — dispatches zero simulations.  Every finished job is put
	// before it is returned, so rerunning a killed sweep with the same
	// Store simulates only the jobs it had not finished.
	Store string
	// VerifyFraction, in (0, 1], re-executes that fraction of remote jobs
	// locally and aborts on divergence (the -verify flag).
	VerifyFraction float64
	// Metrics, when non-nil, receives the dispatch and store series.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives operational events: store corruption
	// reports, pool downgrades, verification divergences.
	Logf func(format string, args ...any)
}

// BuildBackendOpts assembles the execution stack the standard CLI flags
// describe, shared by cmd/wbexp and cmd/wbopt: remote workers when
// opts.Workers is non-empty (in-process execution otherwise), behind the
// shared content-addressed result store when opts.Store is set —
// Cached(Remote) or Cached(Local).  With neither, the backend is nil and
// the experiment harness runs its default in-process lockstep groups.
//
// Unlike the bare Remote library type, the CLI stack turns the resilience
// defenses on: hedged requests against the pool's p95 latency, graceful
// degradation to local execution when every worker is gone, and (when
// opts.VerifyFraction is set) seeded local re-verification of remote
// results.  The store makes a repeated sweep dispatch zero simulations
// regardless of which process ran it first, and makes a killed sweep
// resumable.  The returned cleanup closes whatever was built and is safe
// to call exactly once.
func BuildBackendOpts(opts BuildOptions) (Backend, func(), error) {
	cleanup := func() {}
	var backend Backend
	if opts.Workers != "" {
		rem, err := NewRemote(strings.Split(opts.Workers, ","), RemoteOptions{
			Metrics:         opts.Metrics,
			Logf:            opts.Logf,
			HedgePercentile: 0.95,
			FallbackLocal:   true,
			VerifyFraction:  opts.VerifyFraction,
		})
		if err != nil {
			return nil, cleanup, err
		}
		backend = rem
		cleanup = rem.Close
	}
	if opts.Store != "" {
		store, err := resultstore.OpenSpec(opts.Store, resultstore.Options{
			Metrics: opts.Metrics,
			Logf:    opts.Logf,
		})
		if err != nil {
			cleanup()
			return nil, func() {}, err
		}
		inner := backend
		if inner == nil {
			inner = &Local{Metrics: opts.Metrics}
		}
		innerCleanup := cleanup
		cleanup = func() {
			store.Close()
			innerCleanup()
		}
		backend = NewCached(inner, store, opts.Metrics)
	}
	return backend, cleanup, nil
}
