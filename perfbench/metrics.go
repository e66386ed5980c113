package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// def names one reported metric.  The tables below are the benchmark's
// contract: BENCHMARK.json lists the same names and units, and the
// self-test holds the two together.
type def struct {
	name, unit, better string
}

// endToEnd are the metrics a user of cmpleak sees, reported untraced on
// every workload (README.md defines each per workload).  Times are host
// CPU time, which the hypervisor's steal and disk waits do not inflate;
// wall-clock latency and throughput are reported by the traced run.
var endToEnd = []def{
	{"setup_s", "s", "lower"},
	{"sim_cycles_per_cpu_s", "cycles/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mb_per_op", "MiB", "lower"},
}

// selfLayers are the layers whose self time a traced run reports.
var selfLayers = []string{"trace", "workload", "core", "thermal", "experiment", "resultcache", "scenario", "service"}

// perLayer are the metrics a traced run reports; a layer a workload does
// not exercise reports 0.
var perLayer = append([]def{
	{"sim.events", "count", "lower"},
	{"sim.far_ratio", "ratio", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"trace.open_s", "s", "lower"},
	{"trace.decode_s", "s", "lower"},
	{"trace.entries", "count", "lower"},
	{"workload.gen_s", "s", "lower"},
	{"workload.entries", "count", "lower"},
	{"core.setup_s", "s", "lower"},
	{"core.run_s", "s", "lower"},
	{"core.residual_s", "s", "lower"},
	{"core.l2_accesses", "count", "lower"},
	{"core.l2_miss_ratio", "ratio", "lower"},
	{"core.l2_retry_events", "count", "lower"},
	{"cpu.instructions", "count", "lower"},
	{"coherence.l1_accesses", "count", "lower"},
	{"coherence.l1_miss_ratio", "ratio", "lower"},
	{"coherence.bus_txns", "count", "lower"},
	{"coherence.bus_utilization", "ratio", "lower"},
	{"coherence.bus_arb_stall_cycles", "cycles", "lower"},
	{"cache.wb_full_stalls", "count", "lower"},
	{"mem.accesses", "count", "lower"},
	{"mem.stall_cycles", "cycles", "lower"},
	{"decay.turnoffs", "count", "higher"},
	{"decay.turnoff_writebacks", "count", "lower"},
	{"decay.induced_misses", "count", "lower"},
	{"decay.protocol_invalidations", "count", "lower"},
	{"thermal.samples", "count", "lower"},
	{"thermal.step_ns", "ns", "lower"},
	{"model.sim_cycles", "cycles", "lower"},
	{"model.ipc", "instr/cycle", "higher"},
	{"model.occupation", "ratio", "lower"},
	{"model.energy_j", "J", "lower"},
	{"experiment.pool_wall_s", "s", "lower"},
	{"experiment.job_s_p50", "s", "lower"},
	{"experiment.job_s_max", "s", "lower"},
	{"experiment.render_s", "s", "lower"},
	{"resultcache.open_s", "s", "lower"},
	{"resultcache.put_s", "s", "lower"},
	{"resultcache.puts", "count", "lower"},
	{"resultcache.get_s", "s", "lower"},
	{"resultcache.gets", "count", "lower"},
	{"resultcache.hit_ratio", "ratio", "higher"},
	{"scenario.expand_s", "s", "lower"},
	{"service.submit_ms_p50", "ms", "lower"},
	{"service.wait_ms_p50", "ms", "lower"},
	{"service.report_ms_p50", "ms", "lower"},
	{"service.refused", "count", "lower"},
	{"tracing.overhead_ratio", "ratio", "lower"},
	{"wall.latency_p50_ms", "ms", "lower"},
	{"wall.latency_p99_ms", "ms", "lower"},
	{"wall.jobs_per_s", "jobs/s", "higher"},
	{"host.peak_rss_mb", "MiB", "lower"},
	{"host.steal_ratio", "ratio", "lower"},
}, selfDefs()...)

func selfDefs() []def {
	out := make([]def, len(selfLayers))
	for i, l := range selfLayers {
		out[i] = def{"self." + l + "_s", "s", "lower"}
	}
	return out
}

// zeroLayers sets every per-layer metric the workload has not set to 0:
// the layers it does not exercise.
func (e *env) zeroLayers() {
	for _, d := range perLayer {
		if _, ok := e.metrics[d.name]; !ok {
			e.metrics[d.name] = 0
		}
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// probe times f in isolation: the median of 9 calls in seconds, 0 if a
// call fails.
func probe(f func() error) float64 {
	ds := make([]time.Duration, 9)
	for i := range ds {
		s := time.Now()
		if f() != nil {
			return 0
		}
		ds[i] = time.Since(s)
	}
	return durMedian(ds).Seconds()
}

// durs maps xs to durations.
func durs[T any](xs []T, f func(T) time.Duration) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func durMedian(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the user plus system CPU time of every thread of the process
// so far.  Unlike wall time it does not advance while the hypervisor runs
// someone else on the vCPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks returns the machine's stolen and total CPU ticks from
// /proc/stat (zeros where it is unavailable).
func hostTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
