package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/uintah-repro/rmcrt/internal/cluster"
	"github.com/uintah-repro/rmcrt/internal/service"
)

// The same seed must give byte-identical arrival schedules and spec
// lists; another seed must not.
func TestSameSeedSameInputs(t *testing.T) {
	for _, mk := range []func(uint64, float64, bool) plan{smallPlan, mixedPlan} {
		enc := func(seed uint64) []byte {
			p := mk(seed, 6, false)
			var b bytes.Buffer
			for _, st := range p.steps {
				data, err := json.Marshal(struct {
					Due   []float64
					Specs []service.Spec
				}{st.due, st.specs})
				if err != nil {
					t.Fatal(err)
				}
				b.Write(data)
			}
			return b.Bytes()
		}
		a, b, c := enc(7), enc(7), enc(8)
		if !bytes.Equal(a, b) {
			t.Fatal("same seed gave different schedules")
		}
		if bytes.Equal(a, c) {
			t.Fatal("different seeds gave the same schedule")
		}
	}
}

// Measured jobs must never share a seed with each other (serve-small
// has no cache hits) or with warm-up jobs.
func TestSeedsDisjoint(t *testing.T) {
	p := smallPlan(3, 30, false)
	seen := map[uint64]bool{}
	for _, s := range p.warmup {
		seen[s.Seed] = true
	}
	for _, st := range p.steps {
		for _, s := range st.specs {
			if seen[s.Seed] {
				t.Fatalf("seed %d used twice", s.Seed)
			}
			seen[s.Seed] = true
		}
	}
}

// Every serve-mixed spec must be one the daemon accepts.
func TestMixedSpecsValid(t *testing.T) {
	for _, st := range mixedPlan(5, 60, false).steps {
		for _, s := range st.specs {
			if err := s.Normalized().Validate(); err != nil {
				t.Fatalf("%+v: %v", s, err)
			}
		}
	}
}

// The metric tables must match BENCHMARK.json name for name and unit
// for unit.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workload {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

// runJSON runs the command and decodes its last output line.
func runJSON(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v (stderr %s)", lines[len(lines)-1], err, errb.String())
	}
	return code, r, errb.String()
}

// Every metric prints by name with its unit, for every workload, in
// both modes. amr-timestep solves the full paper problem, so it runs
// only without -short.
func TestEveryMetricPrints(t *testing.T) {
	// Spans land under the working directory: use the test's own.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	// Shrink the STREAM arrays: a pretend 2 MiB last-level cache.
	defer func(f func() (int64, error)) { hostLLC = f }(hostLLC)
	hostLLC = func() (int64, error) { return 2 << 20, nil }
	for _, w := range workloadNames() {
		if w == "amr-timestep" && testing.Short() {
			continue
		}
		for _, tr := range []string{"0", "1"} {
			code, r, stderr := runJSON(t, "--workload", w, "--seed", "4", "--seconds", "3", "--trace", tr)
			if code != 0 || !r.Correct || r.Attempted < 1 {
				t.Fatalf("%s trace %s: exit %d, %+v, stderr %s", w, tr, code, r, stderr)
			}
			defs := endToEnd
			if tr == "1" {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, tr, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, tr, d.name, m, d.unit)
				}
				// Three seconds of serve-mixed may miss its limits, which
				// reads as max_rate_hz = 0.
				if tr == "0" && !(m.Value > 0) && w != "serve-mixed" {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{{"--workload", "nope"}, {"--workload", "serve-small", "--trace", "2"}} {
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}

// The correctness gate must trip on a served result with one bit
// flipped, and pass the unmodified one.
func TestGateTripsOnFlippedBit(t *testing.T) {
	spec := service.Spec{N: 6, Rays: 4, Seed: 9}.Normalized()
	divQ, _, _, err := spec.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b := divQ.Box()
	payload := service.ResultPayload{ID: "r-000001", Key: spec.Key(),
		Lo: [3]int{b.Lo.X, b.Lo.Y, b.Lo.Z}, Hi: [3]int{b.Hi.X, b.Hi.Y, b.Hi.Z},
		DivQ: append([]float64(nil), divQ.Data()...), Cells: len(divQ.Data())}
	body := func() []byte {
		data, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	job := func(body []byte) []*jobRec { return []*jobRec{{spec: spec, ok: true, body: body}} }
	if _, _, _, err := checkServed(job(body())); err != nil {
		t.Fatalf("unmodified result rejected: %v", err)
	}
	payload.DivQ[len(payload.DivQ)/2] = math.Float64frombits(math.Float64bits(payload.DivQ[len(payload.DivQ)/2]) ^ 1)
	if _, _, _, err := checkServed(job(body())); err == nil {
		t.Fatal("gate passed a result with one flipped bit")
	}
	if err := sameBits([]float64{1, 2}, []float64{1, math.Float64frombits(math.Float64bits(2) ^ 1)}); err == nil {
		t.Fatal("sameBits passed a flipped bit")
	}
}

func TestBacklogRule(t *testing.T) {
	flat := make([]float64, 40)
	growing := make([]float64, 40)
	for i := range flat {
		flat[i] = 0.26 + 0.01*float64(i%3)
		growing[i] = 0.25 + 0.05*float64(i)
	}
	if why := backlogGrows(growing, nil); why == "" {
		t.Error("growing latency series not flagged")
	}
	if why := backlogGrows(flat, nil); why != "" {
		t.Errorf("flat latency series flagged: %s", why)
	}
	climbing := make([]float64, 40)
	stray := make([]float64, 40)
	for i := range climbing {
		climbing[i] = float64(i / 8)
		if i%7 == 6 {
			stray[i] = 1
		}
	}
	if why := backlogGrows(flat, climbing); why == "" {
		t.Error("climbing queue depth not flagged")
	}
	if why := backlogGrows(flat, stray); why != "" {
		t.Errorf("near-empty queue flagged: %s", why)
	}
	if why := backlogGrows(growing[:8], nil); why != "" {
		t.Errorf("a step too short to judge was flagged: %s", why)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile([]float64{1, math.Inf(1)}, 0); got != 1 {
		t.Errorf("q0 with an infinite sample = %v, want 1", got)
	}
}

// The client's wait hint must not change what either plane answers:
// status and result bodies are identical with and without it.
func TestWaitHintLeavesResponsesUnchanged(t *testing.T) {
	lc := newLoadClient()
	defer lc.close()
	s, err := startStack()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	j := &jobRec{spec: service.Spec{N: 6, Rays: 4, Seed: 11}, due: time.Now()}
	lc.runJob(s.base, j, 5)
	if !j.ok {
		t.Fatal(j.err)
	}
	get := func(url string) []byte {
		code, body, err := lc.do(http.MethodGet, url, nil)
		if err != nil || code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d: %v", url, code, err)
		}
		return body
	}
	var st cluster.JobStatus
	if err := json.Unmarshal(get(s.base+"/v1/jobs/"+j.status.ID), &st); err != nil {
		t.Fatal(err)
	}
	shard := s.shardURLs[0]
	if st.Shard == shardName(1) {
		shard = s.shardURLs[1]
	}
	for _, url := range []string{
		s.base + "/v1/jobs/" + st.ID, s.base + "/v1/jobs/" + st.ID + "/result",
		shard + "/v1/jobs/" + st.ShardJobID, shard + "/v1/jobs/" + st.ShardJobID + "/result",
	} {
		plain := get(url)
		for _, hint := range []time.Duration{0, 250 * time.Millisecond} {
			if hinted := get(url + waitHint(hint)); !bytes.Equal(plain, hinted) {
				t.Errorf("%s%s answered differently:\n%s\n%s", url, waitHint(hint), plain, hinted)
			}
		}
	}
}

// One failed job in a base-rate step makes the run invalid, however
// little it moves the latency quantiles.
func TestFailedBaseJobInvalidates(t *testing.T) {
	lc := newLoadClient()
	defer lc.close()
	mk := func(base bool, fail int) []*stepResult {
		r := &stepResult{step: &step{rate: 10, base: base}, gauges: &gauges{}}
		for i := 0; i < 400; i++ {
			j := &jobRec{ok: true, due: time.Unix(0, 0), done: time.Unix(0, 250e6)}
			if i == fail {
				j.ok, j.err = false, errors.New("refused")
			}
			r.jobs = append(r.jobs, j)
		}
		return []*stepResult{r}
	}
	o := &outcome{}
	validateServe(o, mk(true, -1), lc)
	if len(o.invalid) != 0 {
		t.Fatalf("healthy step flagged: %v", o.invalid)
	}
	validateServe(o, mk(true, 7), lc)
	if len(o.invalid) != 1 || !strings.Contains(o.invalid[0], "1 of 400 jobs failed") {
		t.Fatalf("one failed base-rate job: invalid = %v", o.invalid)
	}
	o = &outcome{}
	validateServe(o, mk(false, 7), lc)
	if len(o.invalid) != 0 {
		t.Fatalf("a failure above the base rate should only end the ladder: %v", o.invalid)
	}
}

// The latency parts are timed separately, so time no layer covers
// shows as a shortfall: here the client idles 50 ms between the poll
// that saw the job done and the result request.
func TestAccountingMissesUncoveredTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	j := &jobRec{ok: true, due: at(0), done: at(310),
		status:   cluster.JobStatus{ID: "c-1", Submitted: at(1.2), QueueSeconds: 0.001, RunSeconds: 0.25},
		shardRun: service.JobStatus{QueueSeconds: 0.0005, RunSeconds: 0.002},
		calls: []clientCall{
			{name: "client.submit", start: at(0), end: at(2)},
			{name: "client.poll", start: at(100), end: at(101)},
			{name: "client.poll", start: at(255), end: at(256)},
			{name: "client.result", start: at(306), end: at(310)},
		}}
	router := []call{
		{route: "submit", job: "c-1", start: at(0.5), end: at(1.5)},
		{route: "status", job: "c-1", start: at(100.2), end: at(100.4)},
		{route: "status", job: "c-1", start: at(255.2), end: at(255.4)},
		{route: "result", job: "c-1", start: at(306.5), end: at(309)},
	}
	p, ok := criticalPath(j, router)
	if !ok {
		t.Fatal("no critical path")
	}
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("router HTTP", p.routerHTTP, 0.0037)
	near("client HTTP", p.clientHTTP, 0.007-0.0037)
	near("poll wait", p.pollWait, 0.255-0.2522)
	near("router overhead", p.overhead, 0.251-0.0025)
	sum := p.lag + p.clientHTTP + p.routerHTTP + p.pollWait + p.overhead + p.queue + p.run
	if short := j.latency() - sum; short < 0.049 || short > 0.052 {
		t.Errorf("parts sum to %.4fs of %.4fs: the 50 ms idle gap should be missing", sum, j.latency())
	}
	if _, ok := criticalPath(j, router[:3]); ok {
		t.Error("a result call with no router handler call inside it was accounted")
	}
}

func TestLastLevelCache(t *testing.T) {
	for in, want := range map[string]int64{"48K": 48 << 10, "300M": 300 << 20, "1G": 1 << 30, "512": 512} {
		if got, err := parseCacheSize(in); err != nil || got != want {
			t.Errorf("parseCacheSize(%q) = %d, %v, want %d", in, got, err, want)
		}
	}
	if _, err := parseCacheSize("-1K"); err == nil {
		t.Error("negative cache size accepted")
	}
	if _, err := os.Stat("/sys/devices/system/cpu/cpu0/cache"); err != nil {
		t.Skip("no CPU cache description on this host")
	}
	llc, err := lastLevelCache()
	if err != nil || llc <= 0 {
		t.Fatalf("lastLevelCache() = %d, %v", llc, err)
	}
	t.Logf("last-level caches: %d MiB in all", llc>>20)
}
