package experiment

// Workload-sharing tests.  Equivalence: a sweep whose jobs replay shared
// captures must produce, job for job, exactly what live generation does, at
// any worker count.  Accounting: a counting scheme proves each identity
// with two or more queued jobs generates its streams once, that single-job
// identities, recorded traces and fully reused sweeps capture nothing, and
// that the share table empties however the pool ends — success, failure,
// cancel or a panicking generator.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// Test schemes, each wrapping the named built-in benchmark:
//
//	count:<name>      counts Streams calls per (name, seed)
//	panicstreams:<n>  Streams panics
//	panicbatch:<n>    the first NextBatch of every stream panics
//	negcompute:<n>    every stream starts with an entry of negative compute,
//	                  which live simulation accepts and the trace encoder
//	                  rejects
func init() {
	wrap := func(scheme string, mk func(inner workload.Generator, name string) workload.Generator) {
		workload.RegisterScheme(scheme, func(rest string, scale float64) (workload.Generator, error) {
			inner, err := workload.ByName(rest, scale)
			if err != nil {
				return nil, err
			}
			return mk(inner, scheme+":"+rest), nil
		})
	}
	wrap("count", func(inner workload.Generator, name string) workload.Generator {
		return &testGen{Generator: inner, streams: func(cores int, seed uint64) []workload.Stream {
			streamCalls.add(name, seed)
			return inner.Streams(cores, seed)
		}}
	})
	wrap("panicstreams", func(inner workload.Generator, _ string) workload.Generator {
		return &testGen{Generator: inner, streams: func(int, uint64) []workload.Stream {
			panic("generator exploded")
		}}
	})
	wrap("panicbatch", func(inner workload.Generator, _ string) workload.Generator {
		return &testGen{Generator: inner, streams: func(cores int, seed uint64) []workload.Stream {
			out := make([]workload.Stream, cores)
			for i := range out {
				out[i] = panicStream{}
			}
			return out
		}}
	})
	wrap("negcompute", func(inner workload.Generator, _ string) workload.Generator {
		return &testGen{Generator: inner, streams: func(cores int, seed uint64) []workload.Stream {
			out := inner.Streams(cores, seed)
			for i, s := range out {
				head := workload.Drain(s)
				head = append([]workload.Entry{{ComputeInstrs: -7}}, head...)
				out[i] = &entryStream{entries: head}
			}
			return out
		}}
	})
}

// entryStream replays a fixed slice of entries.
type entryStream struct{ entries []workload.Entry }

func (s *entryStream) Next() (workload.Entry, bool) {
	if len(s.entries) == 0 {
		return workload.Entry{}, false
	}
	e := s.entries[0]
	s.entries = s.entries[1:]
	return e, true
}

// testGen overrides Streams of a wrapped generator.
type testGen struct {
	workload.Generator
	streams func(cores int, seed uint64) []workload.Stream
}

func (g *testGen) Streams(cores int, seed uint64) []workload.Stream { return g.streams(cores, seed) }

// panicStream panics on first use.
type panicStream struct{}

func (panicStream) Next() (workload.Entry, bool) { panic("stream exploded") }

// streamCalls counts Streams calls of the count: scheme.
var streamCalls = callCounter{m: map[string]int{}}

type callCounter struct {
	mu sync.Mutex
	m  map[string]int
}

func (c *callCounter) add(name string, seed uint64) {
	c.mu.Lock()
	c.m[fmt.Sprintf("%s/%d", name, seed)]++
	c.mu.Unlock()
}

// take returns and resets the counts.
func (c *callCounter) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.m
	c.m = map[string]int{}
	return out
}

// shareOptions is a small sweep with two sizes and two techniques per
// benchmark, so every benchmark is one identity carried by six jobs.
func shareOptions(benchmarks ...string) Options {
	opts := DefaultOptions(0.005)
	opts.Benchmarks = benchmarks
	opts.CacheSizesMB = []int{1, 2}
	opts.Techniques = []decay.Spec{
		{Kind: decay.KindDecay, DecayCycles: 8 * 1024},
		{Kind: decay.KindProtocol},
	}
	opts.Seed = 11
	return opts
}

// jobConfig is the configuration the pool builds for one job.
func jobConfig(opts Options, j job) config.System {
	cfg := opts.Base.WithBenchmark(j.key.Benchmark).WithTotalL2MB(j.key.SizeMB).WithTechnique(j.spec)
	cfg.WorkloadScale = opts.Scale
	cfg.Seed = opts.Seed
	return cfg
}

// recordGenerators wraps runJob to note, per job, whether it was handed a
// shared capture; restore runJob with the returned function.
func recordGenerators() (shared func() map[Key]bool, restore func()) {
	orig := runJob
	var mu sync.Mutex
	got := map[Key]bool{}
	runJob = func(cfg config.System, gen workload.Generator) (core.Result, error) {
		mu.Lock()
		got[Key{cfg.Benchmark, int(cfg.TotalL2Bytes() >> 20), cfg.Technique.Name()}] = gen != nil
		mu.Unlock()
		return orig(cfg, gen)
	}
	return func() map[Key]bool {
		mu.Lock()
		defer mu.Unlock()
		out := got
		got = map[Key]bool{}
		return out
	}, func() { runJob = orig }
}

// runSweep runs one sweep through the pool and fails the test when the pool
// returned with a shared workload still held.
func runSweep(ctx context.Context, t *testing.T, opts Options, p Parallelism) (*Sweep, error) {
	t.Helper()
	sweeps, sh, err := runPool(ctx, []NamedOptions{{Options: opts}}, p)
	if sh != nil && len(sh.m) != 0 {
		t.Fatalf("workers=%d: %d shared workloads still held after the pool returned", p.Workers, len(sh.m))
	}
	if err != nil {
		return nil, err
	}
	return sweeps[0], nil
}

// TestShareReplayMatchesLive pins the tentpole's promise: a sweep mixing a
// paper benchmark, a mix: spec and a stat: spec yields, for every job, the
// result core.Run computes on live generation, field for field, and the
// same digest and report bytes at every worker count.
func TestShareReplayMatchesLive(t *testing.T) {
	opts := shareOptions("WATER-NS", "mix:duo=FMM|mpeg2enc", "stat:refs=20K,states=3")
	live := map[Key]core.Result{}
	for _, j := range opts.jobs() {
		res, err := core.Run(jobConfig(opts, j))
		if err != nil {
			t.Fatal(err)
		}
		live[j.key] = res
	}
	shared, restore := recordGenerators()
	defer restore()
	var wantDigest string
	var wantReport []byte
	for _, workers := range []int{1, 2, 4, 7} {
		sweep, err := runSweep(context.Background(), t, opts, Parallelism{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for key, used := range shared() {
			if !used {
				t.Errorf("workers=%d: %s generated live, want a shared capture", workers, key)
			}
		}
		for _, key := range opts.Jobs() {
			got, _ := sweep.Result(key.Benchmark, key.SizeMB, key.Technique)
			if !reflect.DeepEqual(got, live[key]) {
				t.Errorf("workers=%d: %s differs from live generation:\n got  %+v\n want %+v",
					workers, key, got, live[key])
			}
		}
		var report bytes.Buffer
		if err := WriteReport(&report, sweep, "", false); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			wantDigest, wantReport = sweep.Digest(), report.Bytes()
			continue
		}
		if got := sweep.Digest(); got != wantDigest {
			t.Errorf("workers=%d: digest %s, want %s", workers, got, wantDigest)
		}
		if !bytes.Equal(report.Bytes(), wantReport) {
			t.Errorf("workers=%d: report bytes differ from the 1-worker run", workers)
		}
	}
}

// TestShareCapturesOncePerIdentity counts Streams calls: an identity with
// several queued jobs generates once, one with a single queued job (the
// others reused) generates live, once.
func TestShareCapturesOncePerIdentity(t *testing.T) {
	opts := shareOptions("count:WATER-NS", "count:mpeg2dec", "count:FMM")
	lone := Key{"count:FMM", 2, baselineName}
	reuse := func(_ string, key Key) (core.Result, bool) {
		return core.Result{}, key.Benchmark == "count:FMM" && key != lone
	}
	shared, restore := recordGenerators()
	defer restore()
	streamCalls.take()
	for _, workers := range []int{1, 2, 4, 7} {
		if _, err := runSweep(context.Background(), t, opts, Parallelism{Workers: workers, Reuse: reuse}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		calls := streamCalls.take()
		want := map[string]int{"count:WATER-NS/11": 1, "count:mpeg2dec/11": 1, "count:FMM/11": 1}
		if !reflect.DeepEqual(calls, want) {
			t.Errorf("workers=%d: Streams calls %v, want %v", workers, calls, want)
		}
		for key, used := range shared() {
			if want := key != lone; used != want {
				t.Errorf("workers=%d: %s shared=%v, want %v", workers, key, used, want)
			}
		}
	}
}

// TestShareSkipsTraceBenchmark: a trace: benchmark is already held once per
// process by trace.OpenShared, so its jobs replay it directly.
func TestShareSkipsTraceBenchmark(t *testing.T) {
	gen, err := workload.ByName("WATER-NS", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	cores := config.Default().Cores
	path := filepath.Join(t.TempDir(), "water.trc")
	w, closeTrace, err := trace.Create(path, trace.Header{Cores: cores, LineBytes: 64, Benchmark: "WATER-NS"}, trace.WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Capture(gen, cores, 3, w, trace.CaptureOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := closeTrace(); err != nil {
		t.Fatal(err)
	}
	shared, restore := recordGenerators()
	defer restore()
	if _, err := runSweep(context.Background(), t, shareOptions("trace:"+path), Parallelism{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	got := shared()
	if len(got) == 0 {
		t.Fatal("no job ran")
	}
	for key, used := range got {
		if used {
			t.Errorf("%s replayed a capture of a recorded trace", key)
		}
	}
}

// TestShareNothingWhenFullyReused: a sweep the cache fully satisfies runs
// no job and generates nothing.
func TestShareNothingWhenFullyReused(t *testing.T) {
	shared, restore := recordGenerators()
	defer restore()
	streamCalls.take()
	_, err := runSweep(context.Background(), t, shareOptions("count:WATER-NS"), Parallelism{
		Workers: 2,
		Reuse:   func(string, Key) (core.Result, bool) { return core.Result{}, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls := streamCalls.take(); len(calls) != 0 {
		t.Errorf("warm sweep generated streams: %v", calls)
	}
	if got := shared(); len(got) != 0 {
		t.Errorf("warm sweep ran jobs: %v", got)
	}
}

// TestShareTableEmptyAfterFailure: a failing job skips the rest of the
// queue, and every skipped or unfed job still drops its reference.
func TestShareTableEmptyAfterFailure(t *testing.T) {
	defer func(old func(config.System, workload.Generator) (core.Result, error)) { runJob = old }(runJob)
	opts := shareOptions("WATER-NS", "mpeg2dec")
	failKey := opts.Jobs()[1]
	runJob = func(cfg config.System, gen workload.Generator) (core.Result, error) {
		if cfg.Benchmark == failKey.Benchmark && cfg.Technique.Name() == failKey.Technique {
			return core.Result{}, errors.New("injected failure")
		}
		return core.Result{Label: cfg.Label()}, nil
	}
	for _, workers := range []int{1, 2, 4, 7} {
		if _, err := runSweep(context.Background(), t, opts, Parallelism{Workers: workers}); err == nil {
			t.Fatalf("workers=%d: failing job did not fail the sweep", workers)
		}
	}
}

// TestShareContextCancelEmptiesTable: a cancel mid-sweep skips queued jobs
// and leaves no shared workload behind.
func TestShareContextCancelEmptiesTable(t *testing.T) {
	defer func(old func(config.System, workload.Generator) (core.Result, error)) { runJob = old }(runJob)
	opts := shareOptions("WATER-NS", "mpeg2dec")
	for _, workers := range []int{1, 2, 4, 7} {
		ctx, cancel := context.WithCancel(context.Background())
		runJob = func(cfg config.System, gen workload.Generator) (core.Result, error) {
			cancel()
			return core.Result{Label: cfg.Label()}, nil
		}
		_, err := runSweep(ctx, t, opts, Parallelism{Workers: workers})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want a cancellation", workers, err)
		}
	}
}

// TestShareCapturePanicDeterministic: a generator that panics during the
// capture fails the sweep with the feed-order-first job's JobPanicError at
// every worker count, and the pool drains.
func TestShareCapturePanicDeterministic(t *testing.T) {
	for _, bench := range []string{"panicstreams:WATER-NS", "panicbatch:WATER-NS"} {
		opts := shareOptions(bench, "mpeg2dec")
		first := opts.Jobs()[0]
		for _, workers := range []int{1, 2, 4, 7} {
			_, err := runSweep(context.Background(), t, opts, Parallelism{Workers: workers})
			var pe *JobPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s workers=%d: got %v, want a JobPanicError", bench, workers, err)
			}
			if pe.Key != first || !strings.Contains(fmt.Sprint(pe.Value), "exploded") {
				t.Fatalf("%s workers=%d: panic of %s (%v), want %s", bench, workers, pe.Key, pe.Value, first)
			}
		}
	}
}

// TestShareResolveErrorDeterministic: a benchmark that cannot be resolved
// fails in the capturing job with live generation's error, identically at
// every worker count.
func TestShareResolveErrorDeterministic(t *testing.T) {
	opts := shareOptions("count:no-such-benchmark", "mpeg2dec")
	var want string
	for _, workers := range []int{1, 2, 4, 7} {
		_, err := runSweep(context.Background(), t, opts, Parallelism{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: unknown benchmark did not fail the sweep", workers)
		}
		if workers == 1 {
			want = err.Error()
			_, liveErr := core.Run(jobConfig(opts, opts.jobs()[0]))
			if !strings.Contains(want, liveErr.Error()) {
				t.Fatalf("error %q does not carry live generation's %q", want, liveErr)
			}
			continue
		}
		if err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, err, want)
		}
	}
}

// TestShareUnrepresentableRunsLive: streams the trace encoder rejects are
// not captured; their jobs generate live and match core.Run exactly.
func TestShareUnrepresentableRunsLive(t *testing.T) {
	opts := shareOptions("negcompute:WATER-NS")
	shared, restore := recordGenerators()
	defer restore()
	for _, workers := range []int{1, 3} {
		sweep, err := runSweep(context.Background(), t, opts, Parallelism{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for key, used := range shared() {
			if used {
				t.Errorf("workers=%d: %s replayed a capture of unencodable streams", workers, key)
			}
		}
		for _, j := range opts.jobs() {
			want, err := core.Run(jobConfig(opts, j))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := sweep.Result(j.key.Benchmark, j.key.SizeMB, j.key.Technique)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: %s differs from live generation", workers, j.key)
			}
		}
	}
}
