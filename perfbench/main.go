// Command perfbench is cmpleak's end-to-end benchmark.  It runs one
// workload for a fixed wall-clock window, checks every output the run
// produced against an independent reference, and prints one JSON result
// line: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//
//	bash perfbench/run.sh --workload replay-decay8m --seed 1 --seconds 15 --trace 0
//
// The workloads, their metrics and the layer-to-end-to-end map are
// described in README.md.  Inputs are generated from --seed at set-up;
// nothing is read from outside the checkout except the Go toolchain.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	// root is the checkout root (the working directory when run from
	// run.sh); scenarios/paper.json is read from it.
	root string
	// out is the build directory: fixtures go in a per-run subdirectory
	// that is removed on exit, and a traced run leaves its spans here.
	out   string
	sizes sizes
	// inject corrupts one reference output so the self-test can prove the
	// output checks fire.
	inject bool
}

// sizes are the workload dimensions; the self-test shrinks them.
type sizes struct {
	// replayScale is the WATER-NS workload scale recorded into the trace.
	replayScale float64
	// matrixScale is the paper-matrix workload scale.
	matrixScale float64
	// warmScale and coldScale are the service's cached and fresh-seed
	// scenario scales.
	warmScale float64
	coldScale float64
	// checkJobs is how many paper-matrix jobs are re-simulated serially.
	checkJobs int
	// setupReps is how often set-up is repeated to report its median.
	setupReps int
}

func defaultSizes() sizes {
	return sizes{
		replayScale: 1.0,
		matrixScale: 0.02,
		warmScale:   0.005,
		coldScale:   0.005,
		checkJobs:   8,
		setupReps:   51,
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"replay-decay8m": runReplay,
	"paper-matrix":   runMatrix,
	"service-mixed":  runService,
}

func main() {
	opts := options{root: ".", sizes: defaultSizes()}
	var seconds, trace int
	flag.StringVar(&opts.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&opts.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&opts.out, "out", ".bench_build", "build directory for fixtures and span files")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	opts.window = time.Duration(seconds) * time.Second
	opts.traced = trace == 1

	res, err := run(opts)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and assembles its result.  It prints the host
// record first, so every result set carries the machine it came from.
func run(opts options) (result, error) {
	runner, ok := workloads[opts.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, strings.Join(workloadNames(), ", "))
	}
	h := hostInfo()
	hostLine, err := json.Marshal(map[string]any{"host": h, "workload": opts.workload, "seed": opts.seed})
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(hostLine))

	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(opts.out, "work-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)

	e := &env{
		opts:    opts,
		work:    work,
		workers: min(2, h.NumCPU),
		metrics: map[string]float64{},
	}
	if opts.traced {
		e.tr = newTracer()
	}
	liveSink.take() // drop streams an earlier run in this process left behind
	steal0, total0 := hostTicks()
	if err := runner(e); err != nil {
		return result{}, err
	}
	steal1, total1 := hostTicks()
	e.set("host.steal_ratio", ratio(float64(steal1-steal0), float64(total1-total0)))
	e.set("host.peak_rss_mb", peakRSSMiB())
	if e.workers > h.NumCPU || e.clients > h.NumCPU {
		e.fail(fmt.Sprintf("concurrency %d workers / %d connections exceeds nproc %d", e.workers, e.clients, h.NumCPU))
	}

	defs := endToEnd
	if opts.traced {
		defs = perLayer
		for layer, s := range e.tr.selfTimes(e.tracedOps) {
			e.set("self."+layer+"_s", s)
		}
		e.zeroLayers()
		if err := e.tr.write(filepath.Join(opts.out, "spans"), opts.workload, opts.seed, h); err != nil {
			return result{}, err
		}
	}
	res := result{
		Correct:   e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   map[string]metric{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := e.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return result{}, fmt.Errorf("%s emitted no value for %s", opts.workload, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return result{}, errors.New("no operation completed inside the window")
	}
	return res, nil
}

// env is the state one workload run shares with the harness.
type env struct {
	opts options
	work string
	tr   *tracer // nil when untraced
	// workers is the simulation pool size and clients the number of
	// concurrent HTTP connections; neither may exceed nproc.
	workers, clients int

	attempted, failed int
	// tracedOps counts the operations the self times are averaged over.
	tracedOps int
	metrics   map[string]float64
}

// set records one metric value.
func (e *env) set(name string, v float64) { e.metrics[name] = v }

// fail counts one failed or mismatched operation and says why on stderr.
func (e *env) fail(why string) {
	e.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s\n", e.opts.workload, why)
}

// host describes the machine a result set was measured on.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func hostInfo() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
