package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cmpleak/internal/workload"
)

// The harness reaches the simulator's input layer only through benchmark
// names, so it plugs its own generators in with workload.RegisterScheme:
//
//	perfbench:<id>  a generator the harness registered (an opened trace)
//	timed:<name>    the named live generator, with every NextBatch timed
//
// Both behave exactly like the generator they stand for; only the name
// recorded in a result's Label and Benchmark differs.
func init() {
	workload.RegisterScheme("perfbench", func(id string, _ float64) (workload.Generator, error) {
		if g, ok := registered.Load(id); ok {
			return g.(workload.Generator), nil
		}
		return nil, fmt.Errorf("perfbench: no generator registered as %q", id)
	})
	workload.RegisterScheme("timed", func(name string, scale float64) (workload.Generator, error) {
		g, err := workload.ByName(name, scale)
		if err != nil {
			return nil, err
		}
		return &timedGen{inner: g, sink: &liveSink}, nil
	})
}

var (
	registered sync.Map // id -> workload.Generator
	nextID     atomic.Int64
	// liveSink collects the stream sets of every timed live generator.
	liveSink sink
)

// register makes g resolvable as the returned benchmark name; the caller
// drops it with the returned release function.
func register(g workload.Generator) (name string, release func()) {
	id := strconv.FormatInt(nextID.Add(1), 10)
	registered.Store(id, g)
	return "perfbench:" + id, func() { registered.Delete(id) }
}

// sink gathers stream sets as generators hand them out.
type sink struct {
	mu   sync.Mutex
	sets []*streamSet
}

// take returns and forgets the collected sets.
func (s *sink) take() []*streamSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.sets
	s.sets = nil
	return out
}

// streamSet times the streams of one Streams call — one simulation.
// The streams run on the simulation's goroutine; the fields are atomic so
// the harness may read them from another.
type streamSet struct {
	bench   string
	busy    atomic.Int64 // ns spent inside NextBatch
	entries atomic.Int64
}

// timedGen wraps a generator so every stream refill is timed.
type timedGen struct {
	inner workload.Generator
	sink  *sink
}

func (g *timedGen) Name() string { return g.inner.Name() }

func (g *timedGen) CheckCores(cores int) error { return workload.CheckCores(g.inner, cores) }

func (g *timedGen) SeedInvariant() bool { return workload.IsSeedInvariant(g.inner) }

func (g *timedGen) Streams(cores int, seed uint64) []workload.Stream {
	set := &streamSet{bench: g.inner.Name()}
	inner := g.inner.Streams(cores, seed)
	out := make([]workload.Stream, len(inner))
	for i, s := range inner {
		out[i] = &timedStream{inner: workload.AsBatchStream(s), set: set}
	}
	g.sink.mu.Lock()
	g.sink.sets = append(g.sink.sets, set)
	g.sink.mu.Unlock()
	return out
}

type timedStream struct {
	inner workload.BatchStream
	set   *streamSet
}

func (s *timedStream) NextBatch(buf []workload.Entry) int {
	start := time.Now()
	n := s.inner.NextBatch(buf)
	s.set.busy.Add(int64(time.Since(start)))
	s.set.entries.Add(int64(n))
	return n
}

func (s *timedStream) Next() (workload.Entry, bool) {
	var one [1]workload.Entry
	if s.NextBatch(one[:]) == 0 {
		return workload.Entry{}, false
	}
	return one[0], true
}
