// Command leaksweep runs the paper's full evaluation sweep (benchmarks ×
// total cache sizes × leakage techniques, each against its always-on
// baseline) and prints the regenerated figures as markdown tables, in the
// same rows and series as the paper.
//
// Examples:
//
//	leaksweep                      # full sweep, one worker per CPU
//	leaksweep -scale 0.25 -fig 5a  # quarter-length workloads, Figure 5a only
//	leaksweep -benchmarks WATER-NS,FMM -sizes 2,4 -csv
//	leaksweep -jobs 8              # exactly 8 concurrent simulation workers
//	leaksweep -scenario scenarios/paper.json        # declarative matrix
//	leaksweep -shard 0/4 -cache shard-0   # shard 0 of 4, into its own store
//	leaksweep -merge 'shard-*'            # the same sweep, served from the shard stores
//
// Every invocation runs its jobs through an in-process worker pool (one
// simulation engine per worker): -jobs N sets the worker count, defaulting
// to the number of CPUs, and a live progress line on stderr tracks
// completed jobs, rate and ETA.  Results are byte-identical at any -jobs
// value — the pool collects into deterministic feed order — so figures,
// cached results and merges never depend on the worker count.
//
// -scenario runs a declarative experiment matrix instead of the flag-driven
// sweep: the JSON file names the benchmark, size, technique, core-count and
// seed axes (plus per-axis overrides) and expands deterministically into one
// or more sweeps ("cells").  scenarios/paper.json is the paper's own figure
// matrix.  A multi-cell scenario fans every cell's jobs through the one
// shared pool — the workers never idle between cells — and the per-cell
// reports print in cell order afterwards.  -shard and -merge compose with
// it: each cell is sharded identically, and one -merge joins every cell.
//
// -shard i/n deterministically partitions the sweep's (benchmark, size)
// groups by index — each group's baseline and technique runs stay together
// — so n invocations that differ only in i (across processes or machines)
// together run exactly the full matrix, each job exactly once.  Give each
// its own -cache directory: a shard slice records under the full sweep's
// options digest, so the stores together hold the whole sweep.  -merge GLOB,
// with the same sweep flags or -scenario (and no -shard), opens every store
// the glob matches, checks that they hold every job exactly once (a missing
// or doubly held job is an error naming it), and prints the combined report
// from the stores without simulating anything.
//
// Benchmarks may be recorded traces: -benchmarks trace:fmm.trc sweeps a
// tracegen file through every size and technique like a synthetic name.
//
// -cache DIR reuses results across runs: completed jobs are written to a
// persistent content-addressed store (keyed on the sweep's options digest
// and the job key, stamped with the golden behaviour anchor), and any job
// already in the store is served from it without simulating — the printed
// report stays byte-identical either way.  The same directory backs the
// leakserved service, so CLI runs and service runs share one cache.  A
// directory is used by one process at a time: concurrent -shard processes
// each take their own.
//
// -cache is also how long runs survive interruption.  Each record is one
// CRC-framed write (torn tails self-heal on open), so even a SIGKILL loses
// at most the job in flight.  SIGINT/SIGTERM cancel gracefully: in-flight
// jobs finish and land in the cache, and the command to rerun is printed.
// Rerunning the same command reuses every completed job and simulates only
// the rest, producing output byte-identical to an uninterrupted run.
// -retries N replays jobs that fail transiently (host I/O) with
// deterministic backoff.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cmpleak"
)

func main() {
	var (
		scale      = flag.Float64("scale", 1.0, "workload scale factor (1.0 = full synthetic workloads)")
		seed       = flag.Uint64("seed", 1, "workload seed")
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all six)")
		sizes      = flag.String("sizes", "", "comma-separated total L2 sizes in MB (default: 1,2,4,8)")
		scenario   = flag.String("scenario", "", "run the declarative scenario file instead of the flag-driven sweep")
		fig        = flag.String("fig", "", "print only one figure: 3a, 3b, 4a, 4b, 5a, 5b, 6a, 6b")
		csv        = flag.Bool("csv", false, "emit CSV instead of markdown")
		jobs       = flag.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation workers (one engine each)")
		quiet      = flag.Bool("quiet", false, "suppress the live progress line")
		shard      = flag.String("shard", "", "run shard i of n sweep jobs, as \"i/n\" (default: all jobs)")
		merge      = flag.String("merge", "", "serve the sweep from the shard -cache directories matching this glob instead of running")
		cache      = flag.String("cache", "", "reuse and record job results in this persistent content-addressed cache directory")
		retries    = flag.Int("retries", 0, "extra attempts per job for transient failures (0 = fail on first error)")
	)
	flag.Parse()

	if *retries < 0 {
		fatalf("-retries must be >= 0")
	}

	if *merge != "" {
		if *shard != "" {
			fatalf("-merge joins completed shards; it cannot be combined with -shard")
		}
		if *cache != "" {
			fatalf("-merge runs nothing; it cannot be combined with -cache")
		}
	}

	// SIGINT/SIGTERM cancel the pool: in-flight jobs finish, the cache is
	// flushed, and the command to rerun prints.  A second signal kills the
	// process the usual way (stop() restores default handling after the
	// first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	shardIndex, shardCount := 0, 0
	if *shard != "" {
		i, n, err := parseShard(*shard)
		if err != nil {
			fatalf("invalid -shard: %v", err)
		}
		shardIndex, shardCount = i, n
	}

	rc := runConfig{workers: *jobs, quiet: *quiet, retries: *retries}
	if *cache != "" {
		store, err := cmpleak.OpenResultCache(*cache, cmpleak.ResultCacheOptions{})
		if err != nil {
			fatalf("opening cache: %v", err)
		}
		rc.store = store
	}
	if *merge != "" {
		stores, err := cmpleak.OpenResultCacheGlob(*merge, cmpleak.ResultCacheOptions{})
		if err != nil {
			fatalf("%v", err)
		}
		rc.merged = stores
	}

	if *scenario != "" {
		for _, name := range []string{"benchmarks", "sizes", "scale", "seed"} {
			if flagWasSet(name) {
				fatalf("-scenario files declare the %s axis; drop -%s", name, name)
			}
		}
		runScenario(ctx, *scenario, shardIndex, shardCount, rc, *fig, *csv)
		return
	}

	opts := cmpleak.DefaultSweepOptions(*scale)
	opts.Seed = *seed
	opts.ShardIndex, opts.ShardCount = shardIndex, shardCount
	if *benchmarks != "" {
		opts.Benchmarks = splitList(*benchmarks)
	}
	if *sizes != "" {
		var mbs []int
		for _, s := range splitList(*sizes) {
			mb, err := strconv.Atoi(s)
			if err != nil {
				fatalf("invalid -sizes entry %q", s)
			}
			mbs = append(mbs, mb)
		}
		opts.CacheSizesMB = mbs
	}

	emitReport(runSweep(ctx, opts, "", rc), *fig, *csv)
}

// runConfig bundles the execution settings shared by the flag-driven and
// scenario paths.
type runConfig struct {
	workers int
	quiet   bool
	retries int
	// store, when non-nil, is the persistent content-addressed result cache
	// (-cache): jobs it holds are served without simulating, and every
	// completed job is written through to it.
	store *cmpleak.ResultCache
	// merged are the shard stores of -merge: together they must hold every
	// job exactly once, and they serve the whole sweep.
	merged []*cmpleak.ResultCache
}

// parallelism builds the pool configuration: workers, live progress, the
// retry policy (seeded so backoff schedules are reproducible), and with
// -cache the persistent store wired in — store hits skip simulation, and
// every simulated job is written through.
func (rc runConfig) parallelism(prefix string, named []cmpleak.NamedSweepOptions, seed uint64) cmpleak.SweepParallelism {
	p := cmpleak.SweepParallelism{
		Workers:  rc.workers,
		Progress: progressLine(prefix, rc.quiet),
	}
	if rc.retries > 0 {
		p.Retry = cmpleak.SweepRetryPolicy{MaxAttempts: rc.retries + 1, Seed: seed}
	}
	if rc.store != nil {
		p = rc.store.Wire(p, named, func(err error) {
			fmt.Fprintf(os.Stderr, "%s: cache write: %v\n", prefix, err)
		})
	}
	if rc.merged != nil {
		reuse, err := cmpleak.MergeResultCaches(rc.merged, named)
		if err != nil {
			fatalf("%v", err)
		}
		p.Reuse = reuse
	}
	return p
}

// finishRun closes the cache store (printing its hit/write summary) and
// translates a pool error into an exit: cancellation prints the command to
// rerun (exit 130, the SIGINT convention), anything else is fatal.
func finishRun(prefix string, err error, rc runConfig) {
	if rc.store != nil {
		st := rc.store.Stats()
		fmt.Fprintf(os.Stderr, "%s: cache: %d job(s) reused, %d result(s) recorded\n",
			prefix, st.Hits, st.Puts)
		if cerr := rc.store.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "%s: closing cache: %v\n", prefix, cerr)
		}
	}
	for _, s := range rc.merged {
		s.Close()
	}
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prefix, err)
		if rc.store != nil {
			fmt.Fprintf(os.Stderr, "%s: completed jobs are cached; rerun the same command to resume:\n  %s\n",
				prefix, strings.Join(os.Args, " "))
		}
		os.Exit(130)
	}
	fatalf("sweep failed: %v", err)
}

// runScenario expands the scenario file and fans every cell out through one
// shared worker pool, then reports the cells in order.
func runScenario(ctx context.Context, path string, shardIndex, shardCount int, rc runConfig, fig string, csv bool) {
	sc, err := cmpleak.LoadScenario(path)
	if err != nil {
		fatalf("%v", err)
	}
	cells, err := sc.Expand(cmpleak.DefaultConfig())
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	totalJobs := 0
	for i := range cells {
		cells[i].Options.ShardIndex, cells[i].Options.ShardCount = shardIndex, shardCount
		totalJobs += len(cells[i].Options.Jobs())
	}
	switch {
	case rc.merged != nil:
		fmt.Fprintf(os.Stderr, "leaksweep: scenario %s: %d cell(s), %d jobs merged from %d store(s)\n",
			path, len(cells), totalJobs, len(rc.merged))
	case shardCount > 1:
		fmt.Fprintf(os.Stderr, "leaksweep: scenario %s: %d cell(s), %d jobs (shard %d/%d), %d worker(s)\n",
			path, len(cells), totalJobs, shardIndex, shardCount, effectiveWorkers(rc.workers, totalJobs))
	default:
		fmt.Fprintf(os.Stderr, "leaksweep: scenario %s: %d cell(s), %d jobs, %d worker(s)\n",
			path, len(cells), totalJobs, effectiveWorkers(rc.workers, totalJobs))
	}

	p := rc.parallelism("leaksweep", cmpleak.ScenarioNamedOptions(cells), 0)
	start := time.Now()
	sweeps, err := cmpleak.RunScenarioCellsContext(ctx, cells, p)
	finishRun("leaksweep", err, rc)
	fmt.Fprintf(os.Stderr, "leaksweep: done in %s\n", time.Since(start).Round(time.Second))

	for i, cell := range cells {
		if len(cells) > 1 {
			// Cell banners separate the per-cell reports for humans; under
			// -csv they go to stderr so stdout stays machine-parseable.
			if csv {
				fmt.Fprintf(os.Stderr, "== %s ==\n", cell.Name)
			} else {
				fmt.Printf("== %s ==\n\n", cell.Name)
			}
		}
		emitReport(sweeps[i], fig, csv)
	}
}

// effectiveWorkers mirrors the pool's clamping for the banner.
func effectiveWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	return workers
}

// progressLine returns a Progress callback that keeps one live status line
// on stderr: completed/total jobs, rate and ETA.  When stderr is not a
// terminal (CI logs) it prints at most ~10 plain lines instead of
// carriage-return spam; quiet suppresses it entirely.
func progressLine(prefix string, quiet bool) func(cmpleak.SweepJobEvent) {
	if quiet {
		return nil
	}
	tty := false
	if fi, err := os.Stderr.Stat(); err == nil {
		tty = fi.Mode()&os.ModeCharDevice != 0
	}
	start := time.Now()
	return func(ev cmpleak.SweepJobEvent) {
		elapsed := time.Since(start)
		rate := float64(ev.Done) / elapsed.Seconds()
		eta := time.Duration(0)
		if rate > 0 {
			eta = time.Duration(float64(ev.Total-ev.Done)/rate) * time.Second
		}
		label := ev.Key.String()
		if ev.Cell != "" {
			label = ev.Cell + " " + label
		}
		if tty {
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d jobs (%d%%) %.2f jobs/sec eta %s  [%s]\033[K",
				prefix, ev.Done, ev.Total, 100*ev.Done/ev.Total, rate, eta.Round(time.Second), label)
			if ev.Done == ev.Total {
				fmt.Fprintln(os.Stderr)
			}
			return
		}
		// Non-terminal: a line every ~10% and the final one.
		step := ev.Total / 10
		if step == 0 {
			step = 1
		}
		if ev.Done%step == 0 || ev.Done == ev.Total {
			fmt.Fprintf(os.Stderr, "%s: %d/%d jobs (%d%%) %.2f jobs/sec eta %s\n",
				prefix, ev.Done, ev.Total, 100*ev.Done/ev.Total, rate, eta.Round(time.Second))
		}
	}
}

// runSweep executes one sweep through the worker pool with live progress.
func runSweep(ctx context.Context, opts cmpleak.SweepOptions, label string, rc runConfig) *cmpleak.Sweep {
	runs := len(opts.Jobs())
	prefix := "leaksweep"
	if label != "" {
		prefix = "leaksweep[" + label + "]"
	}
	switch {
	case rc.merged != nil:
		fmt.Fprintf(os.Stderr, "%s: merging %d jobs from %d store(s) (scale=%.3g)...\n",
			prefix, runs, len(rc.merged), opts.Scale)
	case opts.ShardCount > 1:
		fmt.Fprintf(os.Stderr, "%s: running %d simulations (shard %d/%d, scale=%.3g, %d worker(s))...\n",
			prefix, runs, opts.ShardIndex, opts.ShardCount, opts.Scale, effectiveWorkers(rc.workers, runs))
	default:
		fmt.Fprintf(os.Stderr, "%s: running %d simulations (scale=%.3g, %d worker(s))...\n",
			prefix, runs, opts.Scale, effectiveWorkers(rc.workers, runs))
	}
	named := []cmpleak.NamedSweepOptions{{Options: opts}}
	p := rc.parallelism(prefix, named, opts.Seed)
	start := time.Now()
	sweep, err := cmpleak.RunSweepParallelContext(ctx, opts, p)
	finishRun(prefix, err, rc)
	fmt.Fprintf(os.Stderr, "%s: done in %s\n", prefix, time.Since(start).Round(time.Second))
	return sweep
}

// flagWasSet reports whether the named flag was given explicitly.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// emitReport prints one figure or the full report through the shared
// renderer (the leakserved service serves the same bytes).
func emitReport(sweep *cmpleak.Sweep, fig string, csv bool) {
	if err := cmpleak.WriteSweepReport(os.Stdout, sweep, fig, csv); err != nil {
		fatalf("%v", err)
	}
}

// parseShard parses "i/n" with 0 <= i < n.
func parseShard(s string) (i, n int, err error) {
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("want \"i/n\", got %q", s)
	}
	if i, err = strconv.Atoi(strings.TrimSpace(is)); err != nil {
		return 0, 0, fmt.Errorf("shard index %q is not an integer", is)
	}
	if n, err = strconv.Atoi(strings.TrimSpace(ns)); err != nil {
		return 0, 0, fmt.Errorf("shard count %q is not an integer", ns)
	}
	if n <= 0 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("shard %d/%d out of range (want 0 <= i < n)", i, n)
	}
	return i, n, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "leaksweep: "+format+"\n", args...)
	os.Exit(1)
}
