// Command rmcrtbench is the repository benchmark. It drives the RMCRT
// engine, its task runtime, the solve daemon and the sharded router
// through their public Go and HTTP entry points, prints every metric by
// name with its unit, and fails on a wrong answer.
//
//	bash rmcrtbench/run.sh --workload amr-timestep --seed 1 --seconds 60 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics, and the spans go to .bench_build/spans/. README.md records
// why each workload and metric is there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd metrics are printed by every workload with --trace 0;
// README.md says what each one means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"timestep_s", "s"},
	{"divq_rmse", "relative"},
	{"latency_p50_s", "s"},
	{"latency_p95_s", "s"},
	{"interactive_p95_s", "s"},
	{"goodput_hz", "jobs/s"},
	{"max_rate_hz", "jobs/s"},
	{"peak_heap_mb", "MB"},
}

// perLayer metrics are printed by every workload with --trace 1; a
// layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"rmcrt.solve_region_s", "s"},
	{"rmcrt.pack_s", "s"},
	{"rmcrt.rays", "count"},
	{"rmcrt.steps", "count"},
	{"rmcrt.ns_per_step", "ns"},
	{"rmcrt.steps_per_ray", "count"},
	{"rmcrt.table_bytes", "B"},
	{"rmcrt.table_gbps_computed", "GB/s"},
	{"rmcrt.roofline_frac", "ratio"},
	{"sched.trace_task_s", "s"},
	{"sched.props_task_s", "s"},
	{"sched.coarsen_task_s", "s"},
	{"sched.exchange_task_s", "s"},
	{"sched.tasks_run", "count"},
	{"simmpi.messages", "count"},
	{"simmpi.bytes_computed", "B"},
	{"commpool.local_comm_s", "s"},
	{"service.http_submit_s", "s"},
	{"service.http_status_s", "s"},
	{"service.http_result_s", "s"},
	{"service.requests_per_job", "count"},
	{"service.result_bytes_per_job", "B"},
	{"service.queue_p50_s", "s"},
	{"service.queue_p95_s", "s"},
	{"service.run_p50_s", "s"},
	{"service.run_p95_s", "s"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.coalesced", "count"},
	{"service.packed_hit_ratio", "ratio"},
	{"service.alloc_bytes_per_job", "B"},
	{"cluster.overhead_p50_s", "s"},
	{"cluster.overhead_p95_s", "s"},
	{"cluster.http_submit_s", "s"},
	{"cluster.http_status_s", "s"},
	{"cluster.http_result_s", "s"},
	{"cluster.shard_polls_per_job", "count"},
	{"cluster.poll_useful_ratio", "ratio"},
	{"cluster.queue_depth_max", "count"},
	{"cluster.inflight_max", "count"},
	{"cluster.affinity_hit_ratio", "ratio"},
	{"cluster.rerouted", "count"},
	{"client.http_p50_s", "s"},
	{"client.poll_wait_p50_s", "s"},
	{"client.polls_per_job", "count"},
	{"gen.lag_p95_s", "s"},
	{"host.stream_gbps", "GB/s"},
	{"host.load_latency_ns", "ns"},
	{"trace.overhead_s", "s"},
	{"trace.accounted_frac", "ratio"},
}

// config is what one run is asked to do.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	spans   string
	log     io.Writer // human-readable report lines
}

// outcome is what one run measured and checked.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// gate is a wrong answer: the run fails and its numbers mean nothing.
	gate error
	// invalid lists broken measurement conditions: the answer may be
	// right, but the numbers do not measure what they claim to.
	invalid []string
}

func (o *outcome) invalidf(format string, args ...any) {
	o.invalid = append(o.invalid, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"amr-timestep": runAMR,
	"serve-small":  runServeSmall,
	"serve-mixed":  runServeMixed,
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricReport `json:"metrics"`
}

type metricReport struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's testable body; it returns the exit code: 0 for a valid
// run with correct answers, 1 for a wrong answer or a failed run, 2 for
// a run whose measurement conditions were broken.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rmcrtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: amr-timestep, serve-small or serve-mixed")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := fs.Float64("seconds", 24, "measured window, seconds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, host probes and a span file")
	genRef := fs.String("gen-reference", "", "compute the high-ray mid-plane reference into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *genRef != "" {
		if err := writeReference(*genRef); err != nil {
			fmt.Fprintln(stderr, "rmcrtbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "rmcrtbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1,
		spans: spanFile(*name, *seed), log: stdout}
	o, err := w(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "rmcrtbench:", err)
		return 1
	}
	if runtime.GOMAXPROCS(0) != runtime.NumCPU() {
		o.invalidf("GOMAXPROCS %d != %d CPUs", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: o.gate == nil, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricReport{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !cfg.trace {
			o.invalidf("end-to-end metric %s was not measured", d.name)
		}
		// JSON has no infinity: a latency quantile that reaches a failed
		// job is infinite, and such a run measured nothing.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.invalidf("metric %s is %v", d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricReport{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "rmcrtbench:", err)
		return 1
	}
	if o.gate != nil {
		fmt.Fprintln(stderr, "rmcrtbench: correctness gate failed:", o.gate)
		fmt.Fprintln(stdout, string(line))
		return 1
	}
	if len(o.invalid) > 0 {
		for _, why := range o.invalid {
			fmt.Fprintln(stderr, "rmcrtbench: invalid run:", why)
		}
		fmt.Fprintln(stdout, string(line))
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// heapSampler polls the process's in-use heap (the runtime's HeapInuse:
// heap object bytes plus the unused tail of in-use spans) every 10 ms
// until stopped.
type heapSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	at      []time.Time
	inuse   []float64 // MB (10^6 bytes)
	stopped bool
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(samples)
			h.at = append(h.at, time.Now())
			h.inuse = append(h.inuse, float64(samples[0].Value.Uint64()+samples[1].Value.Uint64())/1e6)
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMedianMB stops the sampler and returns the median, over the
// given intervals, of the peak in-use heap within each. A single peak
// over the run rides on where the collector happened to trigger; the
// median per-interval peak is the footprint the work holds again and
// again.
func (h *heapSampler) peakMedianMB(from, to []time.Time) float64 {
	if !h.stopped {
		close(h.stop)
		h.wg.Wait()
		h.stopped = true
	}
	var peaks []float64
	for k := range from {
		p := 0.0
		for i, t := range h.at {
			if !t.Before(from[k]) && !t.After(to[k]) {
				p = max(p, h.inuse[i])
			}
		}
		peaks = append(peaks, p)
	}
	return median(peaks)
}

// secondWindows cuts [from, to) into one-second intervals, the last
// one possibly shorter.
func secondWindows(from, to time.Time) (starts, ends []time.Time) {
	for t := from; t.Before(to); t = t.Add(time.Second) {
		end := t.Add(time.Second)
		if end.After(to) {
			end = to
		}
		starts, ends = append(starts, t), append(ends, end)
	}
	return starts, ends
}

// setupShare is the share of the window a run spends setting up again
// and again: half at its start, the rest spread over the run, so
// setup_s samples the host's state at more than one moment. setup_s
// is the median of all of them.
const setupShare = 1.0 / 40

// repeatSetup times setup over and over for budget seconds, at least
// five times, appending each time to times. Each set-up starts from a
// collected heap, as a process's first one does, so none pays for
// another's garbage; teardown, when given, undoes the previous set-up
// untimed before the next one. A sub-millisecond set-up timed once is
// mostly the host's noise; the median of hundreds is its cost.
func repeatSetup(budget float64, times *[]float64, setup func() error, teardown func()) error {
	start := time.Now()
	for n := 0; n < 5 || time.Since(start).Seconds() < budget; n++ {
		if teardown != nil && n > 0 {
			teardown()
		}
		runtime.GC()
		t := time.Now()
		if err := setup(); err != nil {
			return err
		}
		*times = append(*times, time.Since(t).Seconds())
	}
	return nil
}

// setupMedian reports the set-up times and returns their median.
func setupMedian(log io.Writer, times []float64) float64 {
	fmt.Fprintf(log, "set-up: %d repetitions, median %.1f us (p10 %.1f, p90 %.1f)\n", len(times),
		median(times)*1e6, quantile(times, 0.1)*1e6, quantile(times, 0.9)*1e6)
	return median(times)
}

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
