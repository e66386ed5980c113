package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/experiment"
	"cmpleak/internal/resultcache"
	"cmpleak/internal/scenario"
	"cmpleak/internal/workload"
)

// paperScenario reads scenarios/paper.json and re-targets it at the given
// workload scale and seed, returning the scenario body a user would submit.
func paperScenario(root string, scale float64, seed uint64) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(root, "scenarios", "paper.json"))
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	sc.Scale = scale
	sc.Seeds = []uint64{seed}
	return json.Marshal(sc)
}

// expand parses and expands a scenario body the way leaksweep and
// leakserved do.
func expand(body []byte) ([]experiment.NamedOptions, error) {
	sc, err := scenario.Parse(body)
	if err != nil {
		return nil, err
	}
	cells, err := sc.Expand(config.Default())
	if err != nil {
		return nil, err
	}
	return scenario.NamedOptions(cells), nil
}

// timedNames routes every benchmark of the cells through the timed:
// generator wrapper.
func timedNames(cells []experiment.NamedOptions) {
	for i := range cells {
		bs := make([]string, len(cells[i].Options.Benchmarks))
		for j, b := range cells[i].Options.Benchmarks {
			bs[j] = "timed:" + b
		}
		cells[i].Options.Benchmarks = bs
	}
}

// runMatrix is paper-matrix: scenarios/paper.json (192 jobs) at a reduced
// scale through the experiment pool, every completed job written into a
// fresh result store as `leaksweep -cache` does, repeated until the window
// closes.  Set-up is scenario parse/expand plus the store open.
func runMatrix(e *env) error {
	body, err := paperScenario(e.opts.root, e.opts.sizes.matrixScale, e.opts.seed)
	if err != nil {
		return err
	}
	var stepNs float64
	if e.tr != nil {
		stepNs = thermalStepNs(config.Default())
	}
	setup, err := matrixSetup(e, body)
	if err != nil {
		return err
	}

	type rep struct {
		expand, open, pool, cpu, op time.Duration
		jobs                        []time.Duration
		cycles                      uint64
		puts, gets                  time.Duration
		nputs, ngets                int
		gen                         time.Duration
		entries                     int64
	}
	var plain, traced []rep
	var ref *experiment.Sweep // the first untraced sweep
	var refCells []experiment.NamedOptions

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(e.opts.window)
	for r := 0; r < 2 || time.Now().Before(deadline); r++ {
		tracedOp := e.tr != nil && r%2 == 1
		op := len(traced) + 1
		var rp rep
		t0 := time.Now()
		cells, err := expand(body)
		if err != nil {
			return err
		}
		if tracedOp {
			timedNames(cells)
		}
		t1 := time.Now()
		store, err := resultcache.Open(filepath.Join(e.work, fmt.Sprintf("matrix-%d", r)), resultcache.Options{})
		if err != nil {
			return err
		}
		t2 := time.Now()

		var tr *tracer // records only this run's spans
		if tracedOp {
			tr = e.tr
		}
		var (
			mu         sync.Mutex // guards the hook state below
			putErr     error
			jobSpanFor = map[experiment.Key]int{}
		)
		poolSpan := tr.add(op, 0, "experiment", "experiment.pool", t2, t2) // end set below
		digests := map[string]string{}
		for _, c := range cells {
			digests[c.Name] = c.Options.Digest()
		}
		reuse := store.ReuseFor(cells)
		p := experiment.Parallelism{
			Workers: e.workers,
			Reuse: func(cell string, key experiment.Key) (core.Result, bool) {
				s := time.Now()
				res, ok := reuse(cell, key)
				end := time.Now()
				mu.Lock()
				rp.gets += end.Sub(s)
				rp.ngets++
				mu.Unlock()
				tr.add(op, poolSpan, "resultcache", "resultcache.get", s, end)
				return res, ok
			},
			Progress: func(ev experiment.JobEvent) {
				end := time.Now()
				mu.Lock()
				defer mu.Unlock()
				rp.jobs = append(rp.jobs, ev.Elapsed)
				if ev.Err != nil {
					return
				}
				jobSpanFor[ev.Key] = tr.add(op, poolSpan, "core", "core.job", end.Add(-ev.Elapsed), end)
				s := time.Now()
				err := store.Put(resultcache.Record{Cell: ev.Cell, OptionsDigest: digests[ev.Cell], Key: ev.Key, Result: ev.Result})
				pe := time.Now()
				if err != nil && putErr == nil {
					putErr = err
				}
				rp.puts += pe.Sub(s)
				rp.nputs++
				tr.add(op, poolSpan, "resultcache", "resultcache.put", s, pe)
			},
		}
		c0 := cpuTime()
		sweeps, err := experiment.RunParallelAll(cells, p)
		rp.cpu = cpuTime() - c0
		t3 := time.Now()
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		t4 := time.Now()
		if err == nil {
			err = putErr
		}
		e.attempted += len(cells[0].Options.Jobs())
		if err != nil {
			e.fail(fmt.Sprintf("matrix run %d: %v", r, err))
			continue
		}
		rp.expand, rp.open, rp.pool, rp.op = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t0)
		for _, k := range sweeps[0].Keys() {
			res, _ := sweeps[0].Result(k.Benchmark, k.SizeMB, k.Technique)
			rp.cycles += uint64(res.Cycles)
		}
		if !tracedOp {
			if ref == nil {
				ref, refCells = sweeps[0], cells
			} else if sweeps[0].Digest() != ref.Digest() {
				e.fail(fmt.Sprintf("matrix run %d: sweep digest differs from the first run's", r))
			}
			plain = append(plain, rp)
			continue
		}
		// A traced run must reproduce the untraced results exactly; its
		// benchmark names carry the timed: prefix.
		e.failIfDiffer(fmt.Sprintf("traced matrix run %d", r), sweeps[0], func(k experiment.Key) (core.Result, bool) {
			if ref == nil {
				return core.Result{}, false
			}
			return ref.Result(strings.TrimPrefix(k.Benchmark, "timed:"), k.SizeMB, k.Technique)
		})
		tr.setEnd(poolSpan, t3)
		sets := liveSink.take()
		for _, set := range sets {
			rp.gen += time.Duration(set.busy.Load())
			rp.entries += set.entries.Load()
		}
		attributeGen(tr, op, sweeps[0], jobSpanFor, sets, stepNs)
		tr.add(op, 0, "scenario", "scenario.expand", t0, t1)
		tr.add(op, 0, "resultcache", "resultcache.open", t1, t2)
		tr.add(op, 0, "resultcache", "resultcache.close", t3, t4)
		traced = append(traced, rp)
	}
	runtime.ReadMemStats(&ms1)
	if ref == nil {
		return fmt.Errorf("no untraced matrix run completed")
	}

	// CPU costs are totals over the untraced matrix runs: with a handful
	// of runs per window, the ratio of sums is steadier than a median.
	var jobMs, jps []float64
	var cycles uint64
	var cpu time.Duration
	plainJobs := 0
	for _, rp := range plain {
		for _, j := range rp.jobs {
			jobMs = append(jobMs, float64(j)/1e6)
		}
		plainJobs += len(rp.jobs)
		jps = append(jps, float64(len(rp.jobs))/rp.pool.Seconds())
		cycles += rp.cycles
		cpu += rp.cpu
	}
	allJobs := plainJobs
	for _, rp := range traced {
		allJobs += len(rp.jobs)
	}
	e.set("setup_s", setup.Seconds())
	e.set("sim_cycles_per_cpu_s", float64(cycles)/cpu.Seconds())
	e.set("cpu_ms_per_op", float64(cpu)/1e6/float64(plainJobs))
	e.set("alloc_mb_per_op", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(allJobs))/(1<<20))
	e.set("wall.latency_p50_ms", median(jobMs))
	e.set("wall.latency_p99_ms", percentile(jobMs, 99))
	e.set("wall.jobs_per_s", median(jps))

	// Output check, outside the timed part: re-simulate a seeded sample of
	// jobs serially and require field-for-field equality.
	check, err := e.resimulate(ref, refCells[0].Options, e.opts.sizes.checkJobs, stepNs)
	if err != nil {
		return err
	}
	if e.tr == nil {
		return nil
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced matrix run completed")
	}
	e.tracedOps = len(traced)
	med := func(f func(rep) time.Duration) float64 { return durMedian(durs(traced, f)).Seconds() }
	var jobP50, jobMax []float64
	for _, rp := range traced {
		s := make([]float64, len(rp.jobs))
		for i, j := range rp.jobs {
			s[i] = j.Seconds()
		}
		jobP50 = append(jobP50, median(s))
		jobMax = append(jobMax, percentile(s, 100))
	}
	last := traced[len(traced)-1]
	e.set("experiment.pool_wall_s", med(func(rp rep) time.Duration { return rp.pool }))
	e.set("experiment.job_s_p50", median(jobP50))
	e.set("experiment.job_s_max", median(jobMax))
	e.set("experiment.render_s", renderSeconds(ref))
	e.set("scenario.expand_s", med(func(rp rep) time.Duration { return rp.expand }))
	e.set("resultcache.open_s", med(func(rp rep) time.Duration { return rp.open }))
	e.set("resultcache.put_s", ratio(last.puts.Seconds(), float64(last.nputs)))
	e.set("resultcache.puts", float64(last.nputs))
	e.set("resultcache.get_s", ratio(last.gets.Seconds(), float64(last.ngets)))
	e.set("resultcache.gets", float64(last.ngets))
	e.set("workload.gen_s", med(func(rp rep) time.Duration { return rp.gen }))
	e.set("workload.entries", float64(last.entries))
	e.setCheck(check, stepNs)
	op := func(rp rep) time.Duration { return rp.op }
	e.set("tracing.overhead_ratio", overhead(durs(traced, op), durs(plain, op)))
	return nil
}

// matrixSetup measures the paper-matrix set-up — scenario parse/expand and
// the open of a fresh result store — several times and returns the median
// CPU time.  Each repetition starts from a collected heap: without that,
// page faults on fresh heap memory made this sub-millisecond figure vary
// threefold from process to process.
func matrixSetup(e *env, body []byte) (time.Duration, error) {
	var ds []time.Duration
	for i := range max(1, e.opts.sizes.setupReps) {
		runtime.GC()
		c0 := cpuTime()
		if _, err := expand(body); err != nil {
			return 0, err
		}
		store, err := resultcache.Open(filepath.Join(e.work, fmt.Sprintf("setup-%d", i)), resultcache.Options{})
		if err != nil {
			return 0, err
		}
		ds = append(ds, cpuTime()-c0)
		if err := store.Close(); err != nil {
			return 0, err
		}
	}
	return durMedian(ds), nil
}

// failIfDiffer counts one failure per job of got whose result differs from
// want's, ignoring names.
func (e *env) failIfDiffer(what string, got *experiment.Sweep, want func(experiment.Key) (core.Result, bool)) {
	for _, k := range got.Keys() {
		g, _ := got.Result(k.Benchmark, k.SizeMB, k.Technique)
		w, ok := want(k)
		if !ok || !sameResult(g, w) {
			e.fail(fmt.Sprintf("%s: %s differs from the untraced result", what, k))
		}
	}
}

// attributeGen hangs each finished simulation's stream time under the job
// span that ran it, with the thermal estimate beside it.  Stream sets are
// matched to jobs by benchmark and completion order; two concurrent jobs of
// one benchmark may swap sets, which leaves every layer total unchanged.
func attributeGen(tr *tracer, op int, sw *experiment.Sweep, jobSpan map[experiment.Key]int, all []*streamSet, stepNs float64) {
	sets := map[string][]*streamSet{}
	for _, set := range all {
		sets[set.bench] = append(sets[set.bench], set)
	}
	period := uint64(config.Default().ThermalSampleCycles)
	for _, k := range sw.Keys() {
		span, ok := jobSpan[k]
		if !ok {
			continue
		}
		bench := strings.TrimPrefix(k.Benchmark, "timed:")
		if q := sets[bench]; len(q) > 0 {
			tr.addAgg(op, span, "workload", "workload.gen", time.Duration(q[0].busy.Load()))
			sets[bench] = q[1:]
		}
		res, _ := sw.Result(k.Benchmark, k.SizeMB, k.Technique)
		samples := (uint64(res.Cycles) + period - 1) / period
		tr.addAgg(op, span, "thermal", "thermal.step", time.Duration(float64(samples)*stepNs))
	}
}

// checked are the serial re-simulations of the output check.
type checked struct {
	counts        counts
	results       []core.Result
	setup, run    []time.Duration
	gen           []time.Duration
	thermalEstSum time.Duration
}

// resimulate re-runs a seeded sample of n of the sweep's jobs serially
// through core.NewSystem and System.Run and counts every result that
// differs from the pool's.  Its counters give the per-layer work counts.
func (e *env) resimulate(sw *experiment.Sweep, opts experiment.Options, n int, stepNs float64) (checked, error) {
	var out checked
	keys := opts.Jobs()
	rng := rand.New(rand.NewPCG(e.opts.seed, 0x5eed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:min(n, len(keys))]
	specs := map[string]decay.Spec{"baseline": config.Baseline()}
	for _, s := range opts.Techniques {
		specs[s.Name()] = s
	}
	for i, k := range keys {
		cfg := opts.Base.WithBenchmark(k.Benchmark).WithTotalL2MB(k.SizeMB).WithTechnique(specs[k.Technique])
		cfg.WorkloadScale = opts.Scale
		cfg.Seed = opts.Seed
		want, _ := sw.Result(k.Benchmark, k.SizeMB, k.Technique)
		if e.opts.inject && i == 0 {
			want.EnergyJ *= 1.5
		}
		// Time the generator too; the name change is the only difference.
		inner, err := workload.ByName(strings.TrimPrefix(cfg.Benchmark, "timed:"), cfg.WorkloadScale)
		if err != nil {
			return out, err
		}
		var streams sink
		name, release := register(&timedGen{inner: inner, sink: &streams})
		tcfg := cfg
		tcfg.Benchmark = name
		t0 := time.Now()
		sys, err := core.NewSystem(tcfg)
		if err != nil {
			release()
			return out, err
		}
		t1 := time.Now()
		res, err := sys.Run()
		t2 := time.Now()
		release()
		if err != nil {
			e.fail(fmt.Sprintf("re-simulating %s: %v", k, err))
			continue
		}
		if !sameResult(res, want) || cfg.Label() != want.Label {
			e.fail(fmt.Sprintf("re-simulated %s differs from the pool's result", k))
		}
		var gen time.Duration
		for _, set := range streams.take() {
			gen += time.Duration(set.busy.Load())
		}
		c := readCounts(sys, cfg)
		out.counts.add(c)
		out.results = append(out.results, res)
		out.setup = append(out.setup, t1.Sub(t0))
		out.run = append(out.run, t2.Sub(t1))
		out.gen = append(out.gen, gen)
		out.thermalEstSum += time.Duration(float64(c.ThermalSamples) * stepNs)
	}
	return out, nil
}

// setCheck reports the per-job layer metrics of the serial re-simulations.
func (e *env) setCheck(c checked, stepNs float64) {
	e.setCounts(c.counts, c.results)
	var run, gen time.Duration
	for i := range c.run {
		run += c.run[i]
		gen += c.gen[i]
	}
	n := float64(len(c.run))
	e.set("sim.ns_per_event", ratio(float64(run), float64(c.counts.Events)))
	e.set("core.setup_s", durMedian(c.setup).Seconds())
	e.set("core.run_s", durMedian(c.run).Seconds())
	e.set("core.residual_s", ratio((run-gen-c.thermalEstSum).Seconds(), n))
	e.set("thermal.step_ns", stepNs)
}

// renderSeconds times experiment.WriteReport of the full report in
// isolation.
func renderSeconds(sw *experiment.Sweep) float64 {
	var buf bytes.Buffer
	return probe(func() error {
		buf.Reset()
		return experiment.WriteReport(&buf, sw, "", false)
	})
}
