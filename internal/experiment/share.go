package experiment

// Workload sharing inside the worker pool.  A job's reference streams
// depend only on its workload identity — (benchmark, scale, seed, cores) —
// and the paper's figure matrix runs every benchmark 32 times (4 sizes ×
// baseline + 7 techniques), so all but one of those jobs would regenerate
// streams another job already produced.  The pool instead captures each
// identity that two or more queued jobs share into an in-memory trace, once,
// and every job of that identity replays it through trace.File.Generator,
// whose entries equal live generation's.  Results, digests and cache keys
// are unchanged; only the generation work goes.
//
// The table is refcounted from the queue: an identity enters it only when
// at least two jobs that will actually run (after Reuse) carry it, and
// leaves it — dropping its trace — when its last job finishes or is skipped
// by a failure or a cancel.  Live memory is therefore one compact trace per
// identity that still has jobs outstanding, and a fully warm sweep captures
// nothing.  Capture happens lazily, in the first job of the identity to
// run, inside that job's guarded boundary: a panic there is that job's
// JobPanicError and an error goes through its retry classification.  A
// failed capture leaves the identity uncaptured, so the next job of it
// tries again and fails (or succeeds) on its own account.

import (
	"bytes"
	"sync"

	"cmpleak/internal/config"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// workloadID is everything a job's reference streams depend on.
type workloadID struct {
	benchmark string
	scale     float64
	seed      uint64
	cores     int
}

// idOf returns the workload identity of a job configuration.
func idOf(cfg config.System) workloadID {
	return workloadID{cfg.Benchmark, cfg.WorkloadScale, cfg.Seed, cfg.Cores}
}

// shares is one pool's table of shared workloads.
type shares struct {
	mu sync.Mutex
	m  map[workloadID]*share
}

// share is one workload identity's capture.
type share struct {
	refs int        // queued jobs not yet finished or skipped; guarded by shares.mu
	mu   sync.Mutex // serialises the capture
	gen  workload.Generator
	live bool // captured nothing: every job of the identity generates live
}

// newShares builds the table for the configurations of the jobs about to be
// queued.  Only identities carried by two or more jobs enter it; explicit
// synthetic configurations (whose streams depend on more than the
// identity) are never shared.
func newShares(cfgs []config.System) *shares {
	refs := make(map[workloadID]int)
	for _, cfg := range cfgs {
		if cfg.Synthetic == nil {
			refs[idOf(cfg)]++
		}
	}
	t := &shares{m: make(map[workloadID]*share)}
	for id, n := range refs {
		if n >= 2 {
			t.m[id] = &share{refs: n}
		}
	}
	return t
}

// generator returns the generator cfg's job should simulate: the shared
// capture of its identity, captured now if this is the identity's first
// job to get here, or nil to generate live.
func (t *shares) generator(cfg config.System) (workload.Generator, error) {
	t.mu.Lock()
	s := t.m[idOf(cfg)]
	t.mu.Unlock()
	if s == nil {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock() // deferred: a panicking capture must not wedge the identity
	if s.gen == nil && !s.live {
		gen, err := capture(cfg)
		if err != nil {
			return nil, err
		}
		s.gen, s.live = gen, gen == nil
	}
	return s.gen, nil
}

// release drops one job's reference to cfg's identity; the last reference
// drops the capture.
func (t *shares) release(cfg config.System) {
	id := idOf(cfg)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.m[id]
	if s == nil {
		return
	}
	if s.refs--; s.refs == 0 {
		delete(t.m, id)
	}
}

// capture records cfg's workload into an in-memory trace and returns a
// generator replaying it.  The configuration is validated first, so an
// invalid job fails with the same error live generation would report.  It
// returns nil, and no error, when the workload should stay live: a
// seed-invariant generator (a recorded trace, which trace.OpenShared
// already holds once per process) or streams the trace format cannot hold
// (entries a custom scheme may produce but the encoder rejects).
func capture(cfg config.System) (workload.Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := cfg.Workload()
	if err != nil {
		return nil, err
	}
	if workload.IsSeedInvariant(gen) {
		return nil, nil
	}
	f, err := record(gen, cfg)
	if err != nil {
		// The trace format cannot hold these streams (entries a custom
		// scheme may produce but the encoder rejects): run live.
		return nil, nil
	}
	return f.Generator(), nil
}

// record captures gen's streams for cfg into a verified in-memory trace.
func record(gen workload.Generator, cfg config.System) (*trace.File, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{
		Cores:     cfg.Cores,
		LineBytes: cfg.L2.LineBytes,
		Seed:      cfg.Seed,
		Scale:     cfg.WorkloadScale,
		Benchmark: gen.Name(),
	}, trace.WriterOptions{})
	if err != nil {
		return nil, err
	}
	if _, err := trace.Capture(gen, cfg.Cores, cfg.Seed, w, trace.CaptureOptions{}); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	f, err := trace.New(buf.Bytes())
	if err != nil {
		return nil, err
	}
	return f, f.Verify()
}
