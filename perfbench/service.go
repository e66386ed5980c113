package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cmpleak/internal/config"
	"cmpleak/internal/experiment"
	"cmpleak/internal/resultcache"
	"cmpleak/internal/scenario"
	"cmpleak/internal/service"
)

// derive maps the workload seed to the seed of the i-th generated input
// (splitmix64), so the warm scenario and every fresh-seed submission follow
// from --seed alone.
func derive(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// coldEvery is the submission cycle of a client: one fresh-seed submission
// in every coldEvery, the rest resubmit the cached scenario.
const coldEvery = 10

// thinkTime is how long a client waits after a report before it submits
// again.  leakserved keeps every run it has served in memory, so the
// submission rate sets the process's memory; this keeps a 15 s window
// near 1000 submissions.
const thinkTime = 20 * time.Millisecond

// runService is service-mixed: an in-process leakserved over a store
// pre-warmed with a small-scale paper scenario, driven by closed-loop
// clients that each send their next submission a think time after the
// previous report has arrived.  Nine in ten submissions resubmit the cached scenario (192
// hits, nothing simulated, full report rendered); the tenth submits a small
// scenario under a fresh seed, so all its jobs simulate and are written
// through.  Set-up is the store open over the warm segments plus the
// server start.
func runService(e *env) error {
	o := e.opts
	warmBody, err := paperScenario(o.root, o.sizes.warmScale, derive(o.seed, 0))
	if err != nil {
		return err
	}
	paper, err := scenario.Parse(warmBody)
	if err != nil {
		return err
	}
	storeDir := filepath.Join(e.work, "store")
	warmSweep, err := warmStore(storeDir, warmBody, e.workers)
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if err := experiment.WriteReport(&want, warmSweep, "", false); err != nil {
		return err
	}
	wantWarm := want.Bytes()
	if o.inject {
		wantWarm = append(bytes.Clone(wantWarm), '\n')
	}

	var setups, opens []time.Duration
	var d *daemon
	for range max(1, o.sizes.setupReps) {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		runtime.GC() // as in matrixSetup
		c0 := cpuTime()
		t0 := time.Now()
		store, err := resultcache.Open(storeDir, resultcache.Options{})
		if err != nil {
			return err
		}
		t1 := time.Now()
		d, err = startDaemon(store, e.workers)
		if err != nil {
			return err
		}
		setups = append(setups, cpuTime()-c0)
		opens = append(opens, t1.Sub(t0))
	}
	st0 := d.store.Stats()

	e.clients = e.workers
	conns := &connCounter{}
	client := &http.Client{Transport: &http.Transport{
		DialContext:         conns.dial,
		MaxConnsPerHost:     e.clients,
		MaxIdleConnsPerHost: e.clients,
	}}
	defer client.CloseIdleConnections()

	// Fresh-seed scenarios rotate over the paper's benchmarks at its
	// smallest L2 size; one size keeps their mix, and so the CPU per
	// submission, the same from run to run.
	var coldN atomic.Int64
	coldBody := func(traced bool) (int, []byte, error) {
		j := int(coldN.Add(1) - 1)
		sc := paper
		b := paper.Benchmarks[j%len(paper.Benchmarks)]
		if traced {
			b = "timed:" + b
		}
		sc.Name = "fresh"
		sc.Benchmarks = []string{b}
		sc.L2SizesMB = paper.L2SizesMB[:1]
		sc.Seeds = []uint64{derive(o.seed, 1+j)}
		sc.Scale = o.sizes.coldScale
		body, err := json.Marshal(sc)
		return j, body, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(o.window)
	var (
		mu   sync.Mutex
		recs []submission
		errs []error
		wg   sync.WaitGroup
	)
	for c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Clients take their fresh-seed turn at different points of
			// the cycle.
			coldSlot := (coldEvery - 1 + c*coldEvery/2) % coldEvery
			for k := 0; k < coldEvery || time.Now().Before(deadline); k++ {
				s := submission{client: c, traced: e.tr != nil && k%2 == 1, cold: k%coldEvery == coldSlot}
				s.body = warmBody
				if s.cold {
					var err error
					if s.coldIdx, s.body, err = coldBody(s.traced); err != nil {
						mu.Lock()
						errs = append(errs, err)
						mu.Unlock()
						return
					}
				}
				d.do(client, &s)
				if !s.cold {
					s.match = s.err == nil && bytes.Equal(s.report, wantWarm)
					s.report = nil
				}
				mu.Lock()
				recs = append(recs, s)
				mu.Unlock()
				time.Sleep(thinkTime)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	genSets := liveSink.take() // the traced fresh-seed runs' streams
	hitRatio, err := d.metric(client, "leakserved_cache_hit_ratio")
	st1 := d.store.Stats()
	if err := errors.Join(append(errs, err, d.stop())...); err != nil {
		return err
	}
	if conns.peak.Load() > int64(e.clients) {
		e.fail(fmt.Sprintf("%d concurrent connections, more than the %d clients", conns.peak.Load(), e.clients))
	}

	// Output check, outside the timed part: every fresh-seed report must
	// equal the report of the same scenario simulated in-process.
	var stepNs float64
	if e.tr != nil {
		stepNs = thermalStepNs(config.Default())
	}
	cold, err := verifyCold(e, recs, stepNs)
	if err != nil {
		return err
	}

	var lat []float64
	var cycles uint64
	jobs, refused := 0, 0
	warmJobs := len(warmSweep.Keys())
	for i, s := range recs {
		e.attempted++
		switch {
		case s.err != nil:
			if errors.Is(s.err, errRefused) {
				refused++
			}
			e.fail(fmt.Sprintf("submission by client %d: %v", s.client, s.err))
			continue
		case !s.match:
			e.fail(fmt.Sprintf("client %d: report differs from the in-process report (cold=%v)", s.client, s.cold))
			continue
		}
		lat = append(lat, float64(s.total())/1e6)
		if s.cold {
			cycles += cold.cycles[i]
			jobs += cold.jobs[i]
		} else {
			jobs += warmJobs
		}
	}
	e.set("setup_s", durMedian(setups).Seconds())
	e.set("sim_cycles_per_cpu_s", float64(cycles)/cpu.Seconds())
	e.set("cpu_ms_per_op", float64(cpu)/1e6/float64(len(recs)))
	e.set("alloc_mb_per_op", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), float64(len(recs)))/(1<<20))
	e.set("wall.latency_p50_ms", median(lat))
	e.set("wall.latency_p99_ms", percentile(lat, 99))
	e.set("wall.jobs_per_s", float64(jobs)/elapsed.Seconds())
	if e.tr == nil {
		return nil
	}

	var submit, wait, report []float64
	var ops, coldOps int
	for _, s := range recs {
		if !s.traced || s.err != nil {
			continue
		}
		ops++
		if s.cold {
			coldOps++
		}
		submit = append(submit, float64(s.t1.Sub(s.t0))/1e6)
		wait = append(wait, float64(s.t2.Sub(s.t1))/1e6)
		report = append(report, float64(s.t3.Sub(s.t2))/1e6)
		root := e.tr.add(ops, 0, "harness", "submission", s.t0, s.t3)
		e.tr.add(ops, root, "service", "service.submit", s.t0, s.t1)
		e.tr.add(ops, root, "service", "service.wait", s.t1, s.t2)
		e.tr.add(ops, root, "service", "service.report", s.t2, s.t3)
	}
	e.tracedOps = ops
	var gen time.Duration
	var entries int64
	for _, set := range genSets {
		gen += time.Duration(set.busy.Load())
		entries += set.entries.Load()
	}
	e.set("service.submit_ms_p50", median(submit))
	e.set("service.wait_ms_p50", median(wait))
	e.set("service.report_ms_p50", median(report))
	e.set("service.refused", float64(refused))
	e.set("workload.gen_s", ratio(gen.Seconds(), float64(coldOps)))
	e.set("workload.entries", ratio(float64(entries), float64(coldOps)))
	e.set("resultcache.open_s", durMedian(opens).Seconds())
	e.set("resultcache.hit_ratio", hitRatio)
	e.set("resultcache.gets", ratio(float64(st1.Hits+st1.Misses-st0.Hits-st0.Misses), float64(len(recs))))
	e.set("resultcache.puts", ratio(float64(st1.Puts-st0.Puts), float64(len(recs))))
	getS, putS, err := storeProbe(filepath.Join(e.work, "probe"), storeDir, warmSweep)
	if err != nil {
		return err
	}
	e.set("resultcache.get_s", getS)
	e.set("resultcache.put_s", putS)
	e.set("scenario.expand_s", expandSeconds(warmBody))
	e.set("experiment.render_s", renderSeconds(warmSweep))
	e.setCheck(cold.check, stepNs)
	e.set("tracing.overhead_ratio", overhead(warmTotals(recs, true), warmTotals(recs, false)))
	return nil
}

// warmStore simulates the scenario in-process into a fresh store at dir,
// as leakserved would on its first submission, and returns the sweep.
func warmStore(dir string, body []byte, workers int) (*experiment.Sweep, error) {
	cells, err := expand(body)
	if err != nil {
		return nil, err
	}
	store, err := resultcache.Open(dir, resultcache.Options{})
	if err != nil {
		return nil, err
	}
	digest := cells[0].Options.Digest()
	var putErr error
	sweeps, err := experiment.RunParallelAll(cells, experiment.Parallelism{
		Workers: workers,
		Progress: func(ev experiment.JobEvent) {
			if ev.Err == nil && putErr == nil {
				putErr = store.Put(resultcache.Record{Cell: ev.Cell, OptionsDigest: digest, Key: ev.Key, Result: ev.Result})
			}
		},
	})
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = putErr
	}
	if err != nil {
		return nil, fmt.Errorf("warming the store: %w", err)
	}
	return sweeps[0], nil
}

// daemon is an in-process leakserved on a loopback listener.
type daemon struct {
	store  *resultcache.Store
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan error
}

func startDaemon(store *resultcache.Store, workers int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	srv := service.New(service.Config{Workers: workers, Store: store})
	d := &daemon{
		store:  store,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server, the service and the store down and waits for
// the serving goroutine to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// errRefused marks a submission the service did not accept.
var errRefused = errors.New("submission refused")

// submission is one closed-loop round trip: submit, wait for the run to
// finish on its event stream, fetch the report.
type submission struct {
	client         int
	cold, traced   bool
	coldIdx        int
	body           []byte
	t0, t1, t2, t3 time.Time // submit, accepted, finished, report received
	report         []byte
	match          bool
	err            error
}

func (s *submission) total() time.Duration { return s.t3.Sub(s.t0) }

// do performs one submission, recording its phase times and report.
func (d *daemon) do(client *http.Client, s *submission) {
	s.t0 = time.Now()
	resp, err := client.Post(d.url+"/v1/runs", "application/json", bytes.NewReader(s.body))
	if err != nil {
		s.err = err
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.err = err
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		s.err = fmt.Errorf("%w: %s: %s", errRefused, resp.Status, bytes.TrimSpace(data))
		return
	}
	var st service.RunStatus
	if err := json.Unmarshal(data, &st); err != nil {
		s.err = err
		return
	}
	s.t1 = time.Now()

	resp, err = client.Get(d.url + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		s.err = err
		return
	}
	var last service.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev service.Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == "state" {
			last = ev
		}
	}
	err = sc.Err()
	resp.Body.Close()
	if err != nil {
		s.err = err
		return
	}
	if last.State != service.StateDone {
		s.err = fmt.Errorf("run %s ended %q: %s", st.ID, last.State, last.Error)
		return
	}
	s.t2 = time.Now()

	resp, err = client.Get(d.url + "/v1/runs/" + st.ID + "/report")
	if err != nil {
		s.err = err
		return
	}
	s.report, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.t3 = time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("report: %s", resp.Status)
	}
	s.err = err
}

// metric reads one gauge from the daemon's /metrics page.
func (d *daemon) metric(client *http.Client, name string) (float64, error) {
	resp, err := client.Get(d.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// connCounter tracks the peak number of open client connections.
type connCounter struct {
	open, peak atomic.Int64
}

func (c *connCounter) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := c.open.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return &countedConn{Conn: conn, c: c}, nil
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(func() { cc.c.open.Add(-1) })
	return cc.Conn.Close()
}

// coldCheck is what the in-process re-simulation of the fresh-seed
// submissions found, indexed like the submission records.
type coldCheck struct {
	cycles map[int]uint64
	jobs   map[int]int
	check  checked
}

// verifyCold simulates every fresh-seed scenario in-process and marks each
// submission whose report differs.  The first scenario (index 0, the same
// for every run of a seed) is also re-run serially for the layer counts.
func verifyCold(e *env, recs []submission, stepNs float64) (coldCheck, error) {
	out := coldCheck{cycles: map[int]uint64{}, jobs: map[int]int{}}
	var cells []experiment.NamedOptions
	var owner []int
	for i, s := range recs {
		if !s.cold || s.err != nil {
			continue
		}
		cs, err := expand(s.body)
		if err != nil {
			return out, err
		}
		cells = append(cells, cs[0])
		owner = append(owner, i)
	}
	if len(cells) == 0 {
		return out, nil
	}
	sweeps, err := experiment.RunParallelAll(cells, experiment.Parallelism{Workers: e.workers})
	if err != nil {
		return out, fmt.Errorf("re-simulating the fresh-seed scenarios: %w", err)
	}
	for n, i := range owner {
		var buf bytes.Buffer
		if err := experiment.WriteReport(&buf, sweeps[n], "", false); err != nil {
			return out, err
		}
		s := &recs[i]
		s.match = bytes.Equal(s.report, buf.Bytes())
		s.report = nil
		for _, k := range sweeps[n].Keys() {
			res, _ := sweeps[n].Result(k.Benchmark, k.SizeMB, k.Technique)
			out.cycles[i] += uint64(res.Cycles)
		}
		out.jobs[i] = len(sweeps[n].Keys())
		if e.tr != nil && s.coldIdx == 0 {
			out.check, err = e.resimulate(sweeps[n], cells[n].Options, out.jobs[i], stepNs)
			if err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// storeProbe times Get over every record of the warm store and Put of the
// same records into a fresh store: seconds per call.
func storeProbe(probeDir, warmDir string, sw *experiment.Sweep) (getS, putS float64, err error) {
	warm, err := resultcache.Open(warmDir, resultcache.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer warm.Close()
	fresh, err := resultcache.Open(probeDir, resultcache.Options{})
	if err != nil {
		return 0, 0, err
	}
	digest := sw.Options.Digest()
	keys := sw.Keys()
	var gets, puts time.Duration
	for _, k := range keys {
		s := time.Now()
		res, ok := warm.Get(digest, k)
		gets += time.Since(s)
		if !ok {
			fresh.Close()
			return 0, 0, fmt.Errorf("warm store misses %s", k)
		}
		s = time.Now()
		err = fresh.Put(resultcache.Record{OptionsDigest: digest, Key: k, Result: res})
		puts += time.Since(s)
		if err != nil {
			fresh.Close()
			return 0, 0, err
		}
	}
	if err := fresh.Close(); err != nil {
		return 0, 0, err
	}
	n := float64(len(keys))
	return gets.Seconds() / n, puts.Seconds() / n, nil
}

// expandSeconds times scenario Parse + Expand of a body in isolation.
func expandSeconds(body []byte) float64 {
	return probe(func() error {
		_, err := expand(body)
		return err
	})
}

// warmTotals returns the round trips of the successful warm submissions
// that were (or were not) traced.
func warmTotals(recs []submission, traced bool) []time.Duration {
	var out []time.Duration
	for _, s := range recs {
		if !s.cold && s.err == nil && s.traced == traced {
			out = append(out, s.total())
		}
	}
	return out
}
