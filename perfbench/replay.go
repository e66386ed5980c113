package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"cmpleak/internal/config"
	"cmpleak/internal/core"
	"cmpleak/internal/decay"
	"cmpleak/internal/thermal"
	"cmpleak/internal/trace"
	"cmpleak/internal/workload"
)

// runReplay is replay-decay8m: one WATER-NS simulation on 4 cores with 8 MB
// of total L2 under decay:64K, replayed from a binary trace written at
// set-up, over and over until the window closes.  Each replay opens and
// verifies the trace and builds a fresh System (its set-up), then runs it.
// Every replay must reproduce, field for field and counter for counter, a
// live-generation run of the same configuration made once at set-up.
func runReplay(e *env) error {
	spec, err := decay.ParseSpec("decay:64K")
	if err != nil {
		return err
	}
	cfg := config.Default().WithBenchmark("WATER-NS").WithTotalL2MB(8).WithTechnique(spec)
	cfg.WorkloadScale = e.opts.sizes.replayScale
	cfg.Seed = e.opts.seed

	path := filepath.Join(e.work, "water-ns.trc")
	if err := writeTrace(path, cfg); err != nil {
		return err
	}
	live, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	ref, err := live.Run()
	if err != nil {
		return fmt.Errorf("live reference run: %w", err)
	}
	refCounts := readCounts(live, cfg)
	if e.opts.inject {
		ref.Cycles++
	}
	var stepNs float64
	if e.tr != nil {
		stepNs = thermalStepNs(cfg)
	}

	// Per replay, split by whether it was traced.  setup and cpu are CPU
	// time, the rest wall time.
	type sample struct {
		setup, open, newSys, run, cpu, decode time.Duration
		entries                               int64
	}
	var plain, traced []sample
	var last counts
	var lastRes core.Result

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(e.opts.window)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		tracedOp := e.tr != nil && i%2 == 1
		setup0 := cpuTime()
		t0 := time.Now()
		f, err := trace.Open(path)
		if err == nil {
			err = f.Verify()
		}
		if err != nil {
			return fmt.Errorf("opening the replay trace: %w", err)
		}
		t1 := time.Now()
		var gen workload.Generator = f.Generator()
		var streams sink
		if tracedOp {
			gen = &timedGen{inner: gen, sink: &streams}
		}
		name, release := register(gen)
		rcfg := cfg
		rcfg.Benchmark = name
		sys, err := core.NewSystem(rcfg)
		if err != nil {
			release()
			return err
		}
		t2 := time.Now()
		c0 := cpuTime()
		setupCPU := c0 - setup0
		res, err := sys.Run()
		cpu := cpuTime() - c0
		t3 := time.Now()
		release()

		e.attempted++
		if err != nil {
			e.fail(fmt.Sprintf("replay %d: %v", i, err))
			continue
		}
		c := readCounts(sys, rcfg)
		if !sameResult(res, ref) || c != refCounts {
			e.fail(fmt.Sprintf("replay %d differs from the live-generation run", i))
		}
		s := sample{setup: setupCPU, open: t1.Sub(t0), newSys: t2.Sub(t1), run: t3.Sub(t2), cpu: cpu}
		if !tracedOp {
			plain = append(plain, s)
			continue
		}
		for _, set := range streams.take() {
			s.decode += time.Duration(set.busy.Load())
			s.entries += set.entries.Load()
		}
		traced = append(traced, s)
		last, lastRes = c, res
		op := len(traced)
		root := e.tr.add(op, 0, "harness", "replay", t0, t3)
		e.tr.add(op, root, "trace", "trace.open", t0, t1)
		e.tr.add(op, root, "core", "core.setup", t1, t2)
		runSpan := e.tr.add(op, root, "core", "core.run", t2, t3)
		e.tr.addAgg(op, runSpan, "trace", "trace.decode", s.decode)
		e.tr.addAgg(op, runSpan, "thermal", "thermal.step", time.Duration(float64(c.ThermalSamples)*stepNs))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	ops := len(plain) + len(traced)

	var runMs, cpuMs, cps []float64
	for _, s := range plain {
		runMs = append(runMs, float64(s.run)/1e6)
		cpuMs = append(cpuMs, float64(s.cpu)/1e6)
		cps = append(cps, float64(ref.Cycles)/s.cpu.Seconds())
	}
	e.set("setup_s", durMedian(durs(plain, func(s sample) time.Duration { return s.setup })).Seconds())
	e.set("sim_cycles_per_cpu_s", median(cps))
	e.set("cpu_ms_per_op", median(cpuMs))
	e.set("alloc_mb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(ops)/(1<<20))
	e.set("wall.latency_p50_ms", median(runMs))
	e.set("wall.latency_p99_ms", percentile(runMs, 99))
	e.set("wall.jobs_per_s", float64(ops)/elapsed.Seconds())

	if e.tr == nil {
		return nil
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced replay completed")
	}
	e.tracedOps = len(traced)
	run := durMedian(durs(traced, func(s sample) time.Duration { return s.run }))
	decode := durMedian(durs(traced, func(s sample) time.Duration { return s.decode }))
	thermalEst := time.Duration(float64(last.ThermalSamples) * stepNs)
	e.setCounts(last, []core.Result{lastRes})
	e.set("sim.ns_per_event", ratio(float64(run), float64(last.Events)))
	e.set("trace.open_s", durMedian(durs(traced, func(s sample) time.Duration { return s.open })).Seconds())
	e.set("trace.decode_s", decode.Seconds())
	e.set("trace.entries", float64(traced[0].entries))
	e.set("core.setup_s", durMedian(durs(traced, func(s sample) time.Duration { return s.newSys })).Seconds())
	e.set("core.run_s", run.Seconds())
	e.set("core.residual_s", (run - decode - thermalEst).Seconds())
	e.set("thermal.step_ns", stepNs)
	e.set("tracing.overhead_ratio", overhead(
		durs(traced, func(s sample) time.Duration { return s.open + s.newSys + s.run }),
		durs(plain, func(s sample) time.Duration { return s.open + s.newSys + s.run })))
	return nil
}

// writeTrace records the configuration's live workload into a binary trace.
func writeTrace(path string, cfg config.System) error {
	gen, err := workload.ByName(cfg.Benchmark, cfg.WorkloadScale)
	if err != nil {
		return err
	}
	hdr := trace.Header{
		Cores:     cfg.Cores,
		LineBytes: cfg.L2.LineBytes,
		Seed:      cfg.Seed,
		Scale:     cfg.WorkloadScale,
		Benchmark: gen.Name(),
	}
	tw, closeTrace, err := trace.Create(path, hdr, trace.WriterOptions{})
	if err != nil {
		return err
	}
	_, err = trace.Capture(gen, cfg.Cores, cfg.Seed, tw, trace.CaptureOptions{})
	if cerr := closeTrace(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing the replay trace: %w", err)
	}
	return nil
}

// thermalStepNs times thermal.Model.Step in isolation at the system's block
// count and sampling interval: the per-sample cost core.Run pays.
func thermalStepNs(cfg config.System) float64 {
	m, err := thermal.New(cfg.Thermal, cfg.Cores)
	if err != nil {
		return 0
	}
	power := make([]float64, m.NumBlocks())
	for i := range power {
		power[i] = 1
	}
	dt := cfg.Power.CyclesToSeconds(uint64(cfg.ThermalSampleCycles))
	const steps = 20000
	start := time.Now()
	for range steps {
		m.Step(power, dt)
	}
	return float64(time.Since(start)) / steps
}

// overhead is how much slower the traced operations ran than the untraced
// ones, as a ratio of their medians.
func overhead(traced, plain []time.Duration) float64 {
	p := durMedian(plain)
	if p == 0 {
		return 0
	}
	return float64(durMedian(traced))/float64(p) - 1
}
