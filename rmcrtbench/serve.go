package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/uintah-repro/rmcrt/internal/cluster"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// The serving stack: two rmcrtd shards of one solve worker each behind
// one router, all at the shipped defaults (cluster.Config zero values:
// 250 ms shard poll, 1 s health probe, 4 jobs in flight per shard; no
// service.Config.Solver override, so the packed-table cache and the
// trace counters are in the path).
const (
	serveShards   = 2
	serveWorkers  = 1
	shardInflight = 4 // the router's default per-shard cap, checked
	clientPoll    = 5 * time.Millisecond
	// lagFrac bounds the generator's p95 lateness as a share of the
	// mean gap between arrivals; beyond it the schedule was not kept.
	lagFrac = 0.25
)

// stack is one running serving plane, in process, over loopback HTTP.
type stack struct {
	managers []*service.Manager
	shardH   []*timedHandler
	cluster  *cluster.Cluster
	routerH  *timedHandler
	servers  []*http.Server
	serveWG  sync.WaitGroup
	base     string // the router's URL
	// shardURLs are the daemons' own URLs, for tests that bypass the
	// router.
	shardURLs []string
	tracing   atomic.Bool
}

func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := service.NewHTTPServer("", h)
	s.servers = append(s.servers, srv)
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// startStack brings up the shards and the router, all listening, and
// returns once the plane answers: each shard's /healthz, then the
// router's, which must count both shards up. The readiness checks use
// a client of their own, so the load client's connection cap holds.
func startStack() (*stack, error) {
	s := &stack{}
	var shards []cluster.ShardConfig
	for i := 0; i < serveShards; i++ {
		m := service.New(service.Config{Workers: serveWorkers})
		s.managers = append(s.managers, m)
		h := &timedHandler{inner: service.NewHandler(m), on: &s.tracing}
		s.shardH = append(s.shardH, h)
		url, err := s.serve(h)
		if err != nil {
			s.close()
			return nil, err
		}
		s.shardURLs = append(s.shardURLs, url)
		shards = append(shards, cluster.ShardConfig{Name: shardName(i), URL: url})
	}
	c, err := cluster.New(cluster.Config{Shards: shards})
	if err != nil {
		s.close()
		return nil, err
	}
	s.cluster = c
	s.routerH = &timedHandler{inner: cluster.NewHandler(c), on: &s.tracing}
	if s.base, err = s.serve(s.routerH); err != nil {
		s.close()
		return nil, err
	}
	if err := s.ready(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// ready checks that every shard and the router answer /healthz and
// that the router counts every shard up.
func (s *stack) ready() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Timeout: 10 * time.Second, Transport: tr}
	get := func(url string, into any) error {
		resp, err := hc.Get(url + "/healthz")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s/healthz: HTTP %d", url, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(into)
	}
	for _, u := range s.shardURLs {
		var h map[string]any
		if err := get(u, &h); err != nil {
			return err
		}
	}
	var h struct {
		ShardsUp int `json:"shards_up"`
	}
	if err := get(s.base, &h); err != nil {
		return err
	}
	if h.ShardsUp != serveShards {
		return fmt.Errorf("router counts %d of %d shards up", h.ShardsUp, serveShards)
	}
	return nil
}

func shardName(i int) string { return fmt.Sprintf("s%d", i) }

// close stops the plane edge first: router listener, router, shard
// listeners, managers.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if len(s.servers) > serveShards {
		_ = s.servers[serveShards].Shutdown(ctx)
	}
	if s.cluster != nil {
		_ = s.cluster.Close(ctx)
	}
	for i, srv := range s.servers {
		if i < serveShards {
			_ = srv.Shutdown(ctx)
		}
	}
	for _, m := range s.managers {
		_ = m.Close(ctx)
	}
	s.serveWG.Wait()
}

// shardValue sums a metric over the shard registries.
func (s *stack) shardValue(name string) float64 {
	t := 0.0
	for _, m := range s.managers {
		v, _ := m.Registry().Value(name)
		t += v
	}
	return t
}

func (s *stack) routerValue(name string) float64 {
	v, _ := s.cluster.Registry().Value(name)
	return v
}

// loadClient is the load generator's HTTP client: one transport capped
// at one connection per CPU, counting the connections it opens.
type loadClient struct {
	hc            *http.Client
	open, maxOpen atomic.Int64
}

func newLoadClient() *loadClient {
	lc := &loadClient{}
	d := &net.Dialer{}
	n := runtime.NumCPU()
	lc.hc = &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			open := lc.open.Add(1)
			for {
				m := lc.maxOpen.Load()
				if open <= m || lc.maxOpen.CompareAndSwap(m, open) {
					break
				}
			}
			return &countedConn{Conn: c, lc: lc}, nil
		},
	}}
	return lc
}

func (lc *loadClient) close() { lc.hc.CloseIdleConnections() }

type countedConn struct {
	net.Conn
	lc   *loadClient
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.lc.open.Add(-1) })
	return c.Conn.Close()
}

func (lc *loadClient) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := lc.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// clientCall is one request the client made, for spans.
type clientCall struct {
	name       string
	start, end time.Time
}

// jobRec is one submitted job as the client saw it.
type jobRec struct {
	spec     service.Spec
	due      time.Time
	lag      float64 // seconds the generator started the job late
	done     time.Time
	ok       bool
	err      error
	polls    int
	status   cluster.JobStatus // the router's last status for the job
	body     []byte            // the result body
	calls    []clientCall
	traced   bool
	shardRun service.JobStatus // the shard Manager's own status
}

// latency runs from when the job was due until its result body was
// read; a failed job has none.
func (j *jobRec) latency() float64 { return j.done.Sub(j.due).Seconds() }

// waitHint is the long-poll hint every status poll carries: the time
// left before the job misses its latency limit. Today's handlers
// ignore the query; a handler that honours it can block instead of
// answering at once, with no change here.
func waitHint(remaining time.Duration) string {
	if remaining < 0 {
		remaining = 0
	}
	return "?wait=" + remaining.Round(time.Millisecond).String()
}

// runJob submits j through the router, polls it every clientPoll until
// it is terminal, and reads its result.
func (lc *loadClient) runJob(base string, j *jobRec, limit float64) {
	record := func(name string, start time.Time) {
		if j.traced {
			j.calls = append(j.calls, clientCall{name: name, start: start, end: time.Now()})
		}
	}
	body, err := json.Marshal(j.spec)
	if err != nil {
		j.err = err
		return
	}
	t := time.Now()
	code, resp, err := lc.do(http.MethodPost, base+"/v1/solve", body)
	record("client.submit", t)
	if err != nil || code != http.StatusAccepted {
		j.err = fmt.Errorf("submit: HTTP %d: %v %s", code, err, bytes.TrimSpace(resp))
		return
	}
	var st cluster.JobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return
	}
	deadline := j.due.Add(time.Duration(limit * float64(time.Second)))
	for !st.State.Terminal() {
		time.Sleep(clientPoll)
		t = time.Now()
		code, resp, err = lc.do(http.MethodGet, base+"/v1/jobs/"+st.ID+waitHint(time.Until(deadline)), nil)
		record("client.poll", t)
		j.polls++
		if err != nil || code != http.StatusOK {
			j.err = fmt.Errorf("poll: HTTP %d: %v", code, err)
			return
		}
		if err := json.Unmarshal(resp, &st); err != nil {
			j.err = fmt.Errorf("poll: %w", err)
			return
		}
	}
	j.status = st
	if st.State != service.StateDone {
		j.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return
	}
	t = time.Now()
	code, resp, err = lc.do(http.MethodGet, base+"/v1/jobs/"+st.ID+"/result", nil)
	record("client.result", t)
	if err != nil || code != http.StatusOK {
		j.err = fmt.Errorf("result: HTTP %d: %v", code, err)
		return
	}
	j.done = time.Now()
	j.body = resp
	j.ok = true
}

// gauges are the router and shard gauges sampled during a step.
type gauges struct {
	depth       []float64 // router dispatch queue depth, in time order
	inflightMax float64   // most jobs one shard held at once
	runningMax  float64   // most solves one shard ran at once
}

// sampleGauges polls the plane every 20 ms until stop is closed.
func (s *stack) sampleGauges(stop <-chan struct{}) *gauges {
	g := &gauges{}
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		g.depth = append(g.depth, s.routerValue("router_queue_depth"))
		for i, m := range s.managers {
			g.inflightMax = max(g.inflightMax, s.routerValue("router_shard_"+shardName(i)+"_inflight"))
			v, _ := m.Registry().Value("rmcrtd_jobs_running")
			g.runningMax = max(g.runningMax, v)
		}
		select {
		case <-stop:
			return g
		case <-t.C:
		}
	}
}

// stepResult is one executed step.
type stepResult struct {
	step    *step
	jobs    []*jobRec
	gauges  *gauges
	backlog string // why its backlog grew; empty when it did not
	miss    string // which limit it missed; empty when it met them all
}

func (r *stepResult) passed() bool { return r.backlog == "" && r.miss == "" }

// runStep issues the step's jobs at their due times (open loop: a job
// is sent when due, whatever the others are doing), waits for all of
// them, and judges the step against the latency limits.
func runStep(s *stack, lc *loadClient, st *step, limits map[string]float64) *stepResult {
	res := &stepResult{step: st}
	stop := make(chan struct{})
	gch := make(chan *gauges, 1)
	go func() { gch <- s.sampleGauges(stop) }()
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range st.due {
		j := &jobRec{spec: st.specs[i], due: start.Add(time.Duration(off * float64(time.Second))), traced: st.traced}
		res.jobs = append(res.jobs, j)
		sleepUntil(j.due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.lag = time.Since(j.due).Seconds()
			lc.runJob(s.base, j, limits[classOf(j.spec)])
		}()
	}
	wg.Wait()
	close(stop)
	res.gauges = <-gch

	var lat []float64
	for _, j := range res.jobs {
		lat = append(lat, latencyOrInf(j))
	}
	res.backlog = backlogGrows(lat, res.gauges.depth)
	for class, limit := range limits {
		if p := quantile(classLatencies(res.jobs, class), 0.95); p > limit {
			res.miss = fmt.Sprintf("%s p95 %.3fs > limit %.3gs", class, p, limit)
		}
	}
	return res
}

// sleepUntil wakes at t: the timer covers all but the last
// millisecond, which it spins off, because a timer alone can wake a
// millisecond late and that would read as generator lag.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func classOf(s service.Spec) string { return s.Normalized().Class }

// latencyOrInf counts a failed job as missing every limit.
func latencyOrInf(j *jobRec) float64 {
	if !j.ok {
		return math.Inf(1)
	}
	return j.latency()
}

func classLatencies(jobs []*jobRec, class string) []float64 {
	var out []float64
	for _, j := range jobs {
		if class == "" || classOf(j.spec) == class {
			out = append(out, latencyOrInf(j))
		}
	}
	return out
}

// warmUp runs the plan's warm-up specs at once and waits for them.
func warmUp(s *stack, lc *loadClient, specs []service.Spec) error {
	var wg sync.WaitGroup
	jobs := make([]*jobRec, len(specs))
	for i, sp := range specs {
		jobs[i] = &jobRec{spec: sp, due: time.Now()}
		wg.Add(1)
		go func(j *jobRec) {
			defer wg.Done()
			lc.runJob(s.base, j, 60)
		}(jobs[i])
	}
	wg.Wait()
	for _, j := range jobs {
		if !j.ok {
			return fmt.Errorf("warm-up: %w", j.err)
		}
	}
	return nil
}

func runServeSmall(cfg config) (*outcome, error) {
	return runServe(cfg, "serve-small", smallPlan(cfg.seed, cfg.seconds*(1-setupShare), cfg.trace))
}

func runServeMixed(cfg config) (*outcome, error) {
	return runServe(cfg, "serve-mixed", mixedPlan(cfg.seed, cfg.seconds*(1-setupShare), cfg.trace))
}

// layerSnapshot holds the cumulative program counters the per-layer
// ratios are differenced from.
type layerSnapshot struct {
	alloc                                  uint64
	cacheHits, cacheMisses, coalesced      float64
	packedHits, packedBuilds               float64
	rays, steps, tileSeconds, packedBytes  float64
	affinityHits, affinitySpills, rerouted float64
}

func (s *stack) snapshot() layerSnapshot {
	ls := layerSnapshot{
		alloc:          totalAlloc(),
		cacheHits:      s.shardValue("rmcrtd_cache_hits_total"),
		cacheMisses:    s.shardValue("rmcrtd_cache_misses_total"),
		coalesced:      s.shardValue("rmcrtd_jobs_coalesced_total"),
		rays:           s.shardValue("rmcrt_trace_rays_total"),
		steps:          s.shardValue("rmcrt_trace_steps_total"),
		packedBytes:    s.shardValue("rmcrt_packed_bytes"),
		affinityHits:   s.routerValue("router_affinity_hits_total"),
		affinitySpills: s.routerValue("router_affinity_spills_total"),
		rerouted:       s.routerValue("router_jobs_rerouted_total"),
	}
	for _, m := range s.managers {
		ls.packedHits += float64(m.Packed().Hits())
		ls.packedBuilds += float64(m.Packed().Builds())
		ls.tileSeconds += m.Registry().Histogram("rmcrt_trace_tile_seconds", "", nil).Sum()
	}
	return ls
}

func runServe(cfg config, name string, p plan) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	lc := newLoadClient()
	defer lc.close()

	// Set-up: complete bring-ups until the plane answers, repeated
	// here, where the last one serves the run, and again on spare
	// planes after the window (see setupShare).
	setupHalf := cfg.seconds * setupShare / 2
	var setups []float64
	var s *stack
	if err := repeatSetup(setupHalf, &setups, func() (err error) {
		s, err = startStack()
		return err
	}, func() { s.close() }); err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			s.close()
		}
	}()
	if err := warmUp(s, lc, p.warmup); err != nil {
		return nil, err
	}

	t0 := time.Now()
	spans := newSpanLog(t0)
	heap := startHeapSampler()
	var steps []*stepResult
	var before layerSnapshot
	for i := range p.steps {
		st := &p.steps[i]
		if st.traced && !s.tracing.Load() {
			before = s.snapshot()
			s.tracing.Store(true)
		}
		r := runStep(s, lc, st, p.limits)
		steps = append(steps, r)
		if p.ladder && !r.passed() {
			break
		}
	}
	after := s.snapshot()
	o.metrics["peak_heap_mb"] = heap.peakMedianMB(secondWindows(t0, time.Now()))
	routerCalls, shardCalls := s.routerH.take(), [][]call{}
	for _, h := range s.shardH {
		shardCalls = append(shardCalls, h.take())
	}

	// Per-job shard view, from the Managers themselves.
	var all []*jobRec
	for _, r := range steps {
		all = append(all, r.jobs...)
	}
	for _, j := range all {
		o.attempted++
		if !j.ok {
			o.failed++
			continue
		}
		if m := s.managerFor(j.status.Shard); m != nil {
			if st, err := m.Status(j.status.ShardJobID); err == nil {
				j.shardRun = st
			}
		}
	}
	validateServe(o, steps, lc)
	closed = true
	s.close()
	var spare *stack
	err := repeatSetup(setupHalf, &setups, func() (err error) {
		spare, err = startStack()
		return err
	}, func() { spare.close() })
	if spare != nil {
		spare.close()
	}
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupMedian(cfg.log, setups)

	e2eServe(cfg, o, p, steps)
	// Correctness gate, outside all timings.
	raw, norm, rmse, err := checkServed(all)
	if err != nil {
		o.gate = err
	}
	// The problems differ in size, so the mean over all of them is the
	// steady figure: the solve time of the workload's mix per problem.
	o.metrics["timestep_s"] = mean(norm)
	o.metrics["divq_rmse"] = mean(rmse)
	fmt.Fprintf(cfg.log, "%s: checked %d distinct served results bit for bit against in-process Spec.Solve; mean solve %.3g s wall, %.3g s normalised\n",
		name, len(raw), mean(raw), mean(norm))
	if !cfg.trace {
		return o, nil
	}
	layersServe(cfg, o, steps, routerCalls, shardCalls, before, after, spans)
	if err := probeHost(cfg, o); err != nil {
		return nil, err
	}
	if err := spans.write(cfg.spans); err != nil {
		return nil, err
	}
	return o, nil
}

func (s *stack) managerFor(shard string) *service.Manager {
	for i, m := range s.managers {
		if shardName(i) == shard {
			return m
		}
	}
	return nil
}

// validateServe applies the run-validity rules.
func validateServe(o *outcome, steps []*stepResult, lc *loadClient) {
	for _, r := range steps {
		// Lag is judged on the steps whose numbers count: the ones that
		// passed (a failed step already ended the ladder) and are long
		// enough to judge, as for the backlog rule.
		judge := r.passed() && len(r.jobs) >= 4*backlogMinPerQuarter
		if l := quantile(lags(r.jobs), 0.95); judge && l > lagFrac/r.step.rate {
			o.invalidf("step at %g jobs/s: generator p95 lag %.4fs > %.2f x mean gap %.4fs", r.step.rate, l, lagFrac, 1/r.step.rate)
		}
		if r.step.base && r.backlog != "" {
			o.invalidf("step at %g jobs/s: backlog grows: %s", r.step.rate, r.backlog)
		}
		// The plane must not drop a job at a rate it is meant to carry:
		// one failed or refused base-rate job makes the run invalid. On
		// a higher ladder step a failure only misses the limit and ends
		// the ladder.
		if failed, first := failures(r.jobs); r.step.base && failed > 0 {
			o.invalidf("step at %g jobs/s: %d of %d jobs failed, first: %v", r.step.rate, failed, len(r.jobs), first)
		}
		if r.gauges.inflightMax > shardInflight {
			o.invalidf("a shard held %g jobs at once, cap %d", r.gauges.inflightMax, shardInflight)
		}
		if r.gauges.runningMax > serveWorkers {
			o.invalidf("a shard ran %g solves at once, cap %d", r.gauges.runningMax, serveWorkers)
		}
	}
	if n := lc.maxOpen.Load(); n > int64(runtime.NumCPU()) {
		o.invalidf("client opened %d connections, cap %d", n, runtime.NumCPU())
	}
}

// e2eServe fills the end-to-end metrics from the base-rate steps that
// ran untraced.
func e2eServe(cfg config, o *outcome, p plan, steps []*stepResult) {
	var base []*jobRec
	var baseDur, maxRate float64
	for _, r := range steps {
		if r.step.base && !r.step.traced {
			base = append(base, r.jobs...)
			baseDur += r.step.dur
		}
		if r.passed() {
			maxRate = max(maxRate, r.step.rate)
		}
		fmt.Fprintf(cfg.log, "  step %5g jobs/s for %5.2fs: %4d jobs, p50 %.3fs p95 %.3fs, lag p95 %.4fs, queue max %g %s %s\n",
			r.step.rate, r.step.dur, len(r.jobs), quantile(classLatencies(r.jobs, ""), 0.5),
			quantile(classLatencies(r.jobs, ""), 0.95), quantile(lags(r.jobs), 0.95), maxOf(r.gauges.depth), r.miss, r.backlog)
	}
	good := 0
	for _, j := range base {
		if j.ok && j.latency() <= p.limits[classOf(j.spec)] {
			good++
		}
	}
	o.metrics["latency_p50_s"] = quantile(classLatencies(base, ""), 0.5)
	o.metrics["latency_p95_s"] = quantile(classLatencies(base, ""), 0.95)
	o.metrics["interactive_p95_s"] = quantile(classLatencies(base, service.ClassInteractive), 0.95)
	o.metrics["goodput_hz"] = float64(good) / baseDur
	o.metrics["max_rate_hz"] = maxRate
	fmt.Fprintf(cfg.log, "  latency from %d base-rate jobs; p95 has %d samples beyond it\n", len(base), len(base)/20)
}

// failures counts the jobs that did not finish and returns the first
// one's error.
func failures(jobs []*jobRec) (n int, first error) {
	for _, j := range jobs {
		if !j.ok {
			if n == 0 {
				first = j.err
			}
			n++
		}
	}
	return n, first
}

func lags(jobs []*jobRec) []float64 {
	var out []float64
	for _, j := range jobs {
		out = append(out, j.lag)
	}
	return out
}

// checkServed decodes each distinct finished spec's result once and
// requires it to equal an in-process Spec.Solve of the same spec bit
// for bit. It returns the in-process solve times, as wall and as
// host-normalised times, and, for plain gray single-level specs, the
// mid-plane RMS relative error against the reference.
func checkServed(jobs []*jobRec) (raw, norm, rmse []float64, err error) {
	// Solve times are host-normalised in groups of at least a tenth of
	// a second of solving between probes (see hostclock.go); groupOf
	// holds each solve's group.
	clock := newHostClock(solveThreads(jobs))
	var groupOf []int
	group := 0.0
	seen := map[string]bool{}
	for _, j := range jobs {
		spec := j.spec.Normalized()
		key := spec.Key()
		if !j.ok || seen[key] {
			continue
		}
		seen[key] = true
		runtime.GC() // every solve starts from a collected heap
		t := time.Now()
		want, _, _, serr := spec.Solve(context.Background())
		raw = append(raw, time.Since(t).Seconds())
		groupOf = append(groupOf, len(clock.scales))
		if serr != nil {
			return nil, nil, nil, fmt.Errorf("in-process solve of %s: %w", key, serr)
		}
		got, derr := decodeResult(j.body)
		if derr == nil {
			derr = sameResult(want, got)
		}
		if derr != nil {
			return nil, nil, nil, fmt.Errorf("served result of %s (router job %s): %w", key, j.status.ID, derr)
		}
		if plainGray(spec) {
			ref, err := loadReference(spec.N)
			if err != nil {
				return nil, nil, nil, err
			}
			rmse = append(rmse, rmsRel(midPlane(spec.N, got.At), ref))
		}
		if group += raw[len(raw)-1]; group >= 0.1 {
			clock.mark()
			group = 0
		}
	}
	if group > 0 {
		clock.mark()
	}
	for i, d := range raw {
		norm = append(norm, d*clock.scale(groupOf[i]))
	}
	return raw, norm, rmse, nil
}

// solveThreads is how many threads an in-process solve of the largest
// of these specs keeps busy: one per 8³ work tile (the engine's default
// tile), at most one per CPU. A serve-small problem is a single tile.
func solveThreads(jobs []*jobRec) int {
	tiles := 1
	for _, j := range jobs {
		per := (j.spec.N + 7) / 8
		tiles = max(tiles, per*per*per)
	}
	return min(tiles, runtime.GOMAXPROCS(0))
}

// plainGray reports a single-level, fixed-ray, gray, non-scattering
// Burns & Christon solve: the problem the reference is for.
func plainGray(s service.Spec) bool {
	return s.Kind == service.KindBenchmark && s.Levels == 1 && s.ScatterCoeff == 0 &&
		s.SpectralBands == 0 && s.AdaptiveRelTol == 0 && s.WallEmissivity == 1 && s.WallSigmaT4 == 0
}

func decodeResult(body []byte) (*field.CC[float64], error) {
	var p service.ResultPayload
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	box := grid.NewBox(grid.IntVector{X: p.Lo[0], Y: p.Lo[1], Z: p.Lo[2]}, grid.IntVector{X: p.Hi[0], Y: p.Hi[1], Z: p.Hi[2]})
	if box.Volume() != len(p.DivQ) || box.Empty() {
		return nil, fmt.Errorf("result box %v holds %d cells, payload has %d", box, box.Volume(), len(p.DivQ))
	}
	return field.NewCCFrom(box, p.DivQ), nil
}

func sameResult(want, got *field.CC[float64]) error {
	if want.Box() != got.Box() {
		return fmt.Errorf("box %v, want %v", got.Box(), want.Box())
	}
	return sameBits(want.Data(), got.Data())
}

// layersServe fills the per-layer metrics from the traced steps.
func layersServe(cfg config, o *outcome, steps []*stepResult, routerCalls []call, shardCalls [][]call, before, after layerSnapshot, spans *spanLog) {
	var traced, tracedBase, plainBase []*jobRec
	var depthMax, inflightMax float64
	for _, r := range steps {
		if !r.step.traced {
			if r.step.base {
				plainBase = append(plainBase, r.jobs...)
			}
			continue
		}
		traced = append(traced, r.jobs...)
		if r.step.base {
			tracedBase = append(tracedBase, r.jobs...)
		}
		depthMax = max(depthMax, maxOf(r.gauges.depth))
		inflightMax = max(inflightMax, r.gauges.inflightMax)
	}
	n := float64(len(traced))
	var allShard []call
	for _, cs := range shardCalls {
		allShard = append(allShard, cs...)
	}
	var requests, statusCalls, terminal, resultBytes, results float64
	for _, c := range allShard {
		if c.route != "other" { // health probes are per shard, not per job
			requests++
		}
		switch c.route {
		case "status":
			statusCalls++
			if c.terminal {
				terminal++
			}
		case "result":
			results++
			resultBytes += float64(c.bytes)
		}
	}
	var queue, run, overhead, polls []float64
	var solved, solvedRun float64
	for _, j := range traced {
		polls = append(polls, float64(j.polls))
		if !j.ok {
			continue
		}
		sh := j.shardRun.QueueSeconds + j.shardRun.RunSeconds
		queue = append(queue, j.shardRun.QueueSeconds)
		run = append(run, j.shardRun.RunSeconds)
		router := j.status.QueueSeconds + j.status.RunSeconds
		overhead = append(overhead, router-sh)
		if !j.shardRun.FromCache && !j.shardRun.Coalesced {
			solved++
			solvedRun += j.shardRun.RunSeconds
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := o.metrics
	m["service.http_submit_s"] = median(routeSeconds(allShard, "submit"))
	m["service.http_status_s"] = median(routeSeconds(allShard, "status"))
	m["service.http_result_s"] = median(routeSeconds(allShard, "result"))
	m["service.requests_per_job"] = ratio(requests, n)
	m["service.result_bytes_per_job"] = ratio(resultBytes, results)
	m["service.queue_p50_s"] = quantile(queue, 0.5)
	m["service.queue_p95_s"] = quantile(queue, 0.95)
	m["service.run_p50_s"] = quantile(run, 0.5)
	m["service.run_p95_s"] = quantile(run, 0.95)
	m["service.cache_hit_ratio"] = ratio(after.cacheHits-before.cacheHits, after.cacheHits-before.cacheHits+after.cacheMisses-before.cacheMisses)
	m["service.coalesced"] = after.coalesced - before.coalesced
	m["service.packed_hit_ratio"] = ratio(after.packedHits-before.packedHits, after.packedHits-before.packedHits+after.packedBuilds-before.packedBuilds)
	m["service.alloc_bytes_per_job"] = ratio(float64(after.alloc-before.alloc), n)
	m["cluster.overhead_p50_s"] = quantile(overhead, 0.5)
	m["cluster.overhead_p95_s"] = quantile(overhead, 0.95)
	m["cluster.http_submit_s"] = median(routeSeconds(routerCalls, "submit"))
	m["cluster.http_status_s"] = median(routeSeconds(routerCalls, "status"))
	m["cluster.http_result_s"] = median(routeSeconds(routerCalls, "result"))
	m["cluster.shard_polls_per_job"] = ratio(statusCalls, n)
	m["cluster.poll_useful_ratio"] = ratio(terminal, statusCalls)
	m["cluster.queue_depth_max"] = depthMax
	m["cluster.inflight_max"] = inflightMax
	m["cluster.affinity_hit_ratio"] = ratio(after.affinityHits-before.affinityHits, after.affinityHits-before.affinityHits+after.affinitySpills-before.affinitySpills)
	m["cluster.rerouted"] = after.rerouted - before.rerouted
	m["client.polls_per_job"] = mean(polls)
	m["gen.lag_p95_s"] = quantile(lags(traced), 0.95)
	steps64 := after.steps - before.steps
	rays := after.rays - before.rays
	m["rmcrt.rays"] = rays
	m["rmcrt.steps"] = steps64
	m["rmcrt.steps_per_ray"] = ratio(steps64, rays)
	m["rmcrt.ns_per_step"] = ratio((after.tileSeconds-before.tileSeconds)*1e9, steps64)
	m["rmcrt.solve_region_s"] = ratio(solvedRun, solved)
	m["rmcrt.table_gbps_computed"] = ratio(tableGBps(steps64, 1), solvedRun)
	m["rmcrt.table_bytes"] = after.packedBytes
	p50 := quantile(classLatencies(tracedBase, ""), 0.5)
	m["trace.overhead_s"] = p50 - quantile(classLatencies(plainBase, ""), 0.5)
	accountServe(cfg, o, tracedBase, callsByJob(routerCalls), p50)
	serveSpans(spans, traced, routerCalls, shardCalls)
}

// pathParts splits one job's latency by the layer that measured each
// part. Each part is timed on its own clock readings, so their sum
// misses whatever no layer covers: it is a check, not an identity.
type pathParts struct {
	lag float64 // from due until the submit was sent (generator)
	// clientHTTP is the time of the client calls the job waited on
	// (submit, the poll that saw it terminal, result) less the router
	// handler time inside them: transport, encoding and decoding.
	clientHTTP float64
	routerHTTP float64 // the router handler time inside those calls
	// pollWait runs from when the router finished the job until the
	// client sent the poll that saw it (0 when the submit reply did).
	pollWait float64
	// overhead, queue and run split the router's own job time, from
	// submitted to finished: router minus shard, then the shard
	// Manager's queue and run times.
	overhead, queue, run float64
}

// criticalPath splits a finished traced job's latency; ok is false when
// one of the client calls it waited on holds no router handler call.
func criticalPath(j *jobRec, routerCalls []call) (p pathParts, ok bool) {
	var submit, poll, result *clientCall
	for i := range j.calls {
		switch c := &j.calls[i]; c.name {
		case "client.submit":
			submit = c
		case "client.poll":
			poll = c // the last poll is the one that saw the job terminal
		case "client.result":
			result = c
		}
	}
	if submit == nil || result == nil {
		return p, false
	}
	for _, c := range []*clientCall{submit, poll, result} {
		if c == nil {
			continue
		}
		h, found := handlerWithin(routerCalls, c)
		if !found {
			return p, false
		}
		d := h.end.Sub(h.start).Seconds()
		p.routerHTTP += d
		p.clientHTTP += c.end.Sub(c.start).Seconds() - d
	}
	router := j.status.QueueSeconds + j.status.RunSeconds
	if poll != nil {
		finished := j.status.Submitted.Add(time.Duration(router * float64(time.Second)))
		p.pollWait = poll.start.Sub(finished).Seconds()
	}
	p.lag = j.lag
	p.queue, p.run = j.shardRun.QueueSeconds, j.shardRun.RunSeconds
	p.overhead = router - p.queue - p.run
	return p, true
}

// handlerWithin finds the router handler call that ran inside client
// call c.
func handlerWithin(calls []call, c *clientCall) (call, bool) {
	for _, h := range calls {
		if !h.start.Before(c.start) && !h.end.After(c.end) {
			return h, true
		}
	}
	return call{}, false
}

func callsByJob(calls []call) map[string][]call {
	out := map[string][]call{}
	for _, c := range calls {
		out[c.job] = append(out[c.job], c)
	}
	return out
}

// accountServe checks the per-layer parts against the end-to-end
// median: trace.accounted_frac is the sum of the parts' medians over
// the traced base-rate jobs' median latency p50. A layer left out of
// the parts, or time no layer covers, pulls it below 1.
func accountServe(cfg config, o *outcome, jobs []*jobRec, byRouter map[string][]call, p50 float64) {
	parts := map[string][]float64{}
	names := []string{"gen lag", "client HTTP", "router HTTP", "poll wait", "router overhead", "shard queue", "shard run"}
	missing := 0
	for _, j := range jobs {
		if !j.ok {
			continue
		}
		p, ok := criticalPath(j, byRouter[j.status.ID])
		if !ok {
			missing++
			continue
		}
		for i, v := range []float64{p.lag, p.clientHTTP, p.routerHTTP, p.pollWait, p.overhead, p.queue, p.run} {
			parts[names[i]] = append(parts[names[i]], v)
		}
	}
	o.metrics["client.http_p50_s"] = median(parts["client HTTP"])
	o.metrics["client.poll_wait_p50_s"] = median(parts["poll wait"])
	total := 0.0
	fmt.Fprintf(cfg.log, "  latency p50 %.4fs of traced base-rate jobs (%d; %d without a matching router call) vs part medians:", p50, len(jobs), missing)
	for _, n := range names {
		v := median(parts[n])
		total += v
		fmt.Fprintf(cfg.log, " %s %.4fs;", n, v)
	}
	fmt.Fprintf(cfg.log, " sum %.4fs\n", total)
	if p50 > 0 {
		o.metrics["trace.accounted_frac"] = total / p50
	}
}

// serveSpans links every traced job's spans: job -> client calls ->
// router handler calls (by time containment, same router job) ->
// shard handler calls (joined by the router's shard_job_id), plus the
// Manager's own queue and run intervals, labelled as program-reported.
func serveSpans(l *spanLog, jobs []*jobRec, routerCalls []call, shardCalls [][]call) {
	type shardKey struct{ shard, id string }
	byRouter := callsByJob(routerCalls)
	byShard := map[shardKey][]call{}
	for i, cs := range shardCalls {
		for _, c := range cs {
			byShard[shardKey{shardName(i), c.job}] = append(byShard[shardKey{shardName(i), c.job}], c)
		}
	}
	for _, j := range jobs {
		id := j.status.ID
		if id == "" {
			continue
		}
		end := j.done
		if end.IsZero() && len(j.calls) > 0 {
			end = j.calls[len(j.calls)-1].end
		}
		root := l.add("job", id, 0, j.due, end, "")
		type parent struct {
			id         int
			start, end time.Time
		}
		var clientSpans []parent
		for _, c := range j.calls {
			clientSpans = append(clientSpans, parent{l.add(c.name, id, root, c.start, c.end, ""), c.start, c.end})
		}
		for _, rc := range byRouter[id] {
			p := root
			for _, cs := range clientSpans {
				if !rc.start.Before(cs.start) && !rc.end.After(cs.end) {
					p = cs.id
					break
				}
			}
			l.add("router."+rc.route, id, p, rc.start, rc.end, "")
		}
		for _, sc := range byShard[shardKey{j.status.Shard, j.status.ShardJobID}] {
			l.add("shard."+sc.route, id, root, sc.start, sc.end, "")
		}
		if st := j.shardRun; !st.Submitted.IsZero() {
			q := st.Submitted.Add(time.Duration(st.QueueSeconds * float64(time.Second)))
			l.add("manager.queue", id, root, st.Submitted, q, "program")
			l.add("manager.run", id, root, q, q.Add(time.Duration(st.RunSeconds*float64(time.Second))), "program")
		}
	}
}
