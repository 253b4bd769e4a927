package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are seconds
// from the start of the run; Parent is another span's ID (0 = root);
// Job ties together the spans of one request or timestep.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    string  `json:"job"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Source is "program" for spans rebuilt from timestamps the program
	// reports about itself, and empty for spans the benchmark timed.
	Source string `json:"source,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(t0 time.Time) *spanLog { return &spanLog{t0: t0} }

func (l *spanLog) sec(t time.Time) float64 { return t.Sub(l.t0).Seconds() }

// add records a span and returns its ID.
func (l *spanLog) add(name, job string, parent int, start, end time.Time, source string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Job: job,
		Start: l.sec(start), End: l.sec(end), Source: source})
	return id
}

// setEnd closes span id at t.
func (l *spanLog) setEnd(id int, t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = l.sec(t)
}

// write stores the spans as one JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// call is one HTTP request a server handled, seen from the handler.
type call struct {
	route      string // submit, status, result or other
	job        string // the job ID the request names or created
	start, end time.Time
	bytes      int
	terminal   bool // a status response reporting a terminal state
}

// timedHandler wraps a daemon or router handler and records every
// request while on is set. It sits outside the program, so what it
// times is the whole handler: routing, admission, encoding.
type timedHandler struct {
	inner http.Handler
	on    *atomic.Bool
	mu    sync.Mutex
	calls []call
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	route, job := classify(r)
	rec := &recorder{ResponseWriter: w, keep: route == "submit" || route == "status"}
	start := time.Now()
	h.inner.ServeHTTP(rec, r)
	c := call{route: route, job: job, start: start, end: time.Now(), bytes: rec.n}
	if rec.keep {
		var st struct {
			ID    string `json:"id"`
			State string `json:"state"`
		}
		if json.Unmarshal(rec.body.Bytes(), &st) == nil {
			if route == "submit" {
				c.job = st.ID
			}
			c.terminal = st.State == "done" || st.State == "failed" || st.State == "cancelled"
		}
	}
	h.mu.Lock()
	h.calls = append(h.calls, c)
	h.mu.Unlock()
}

// take returns and clears the recorded calls.
func (h *timedHandler) take() []call {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.calls
	h.calls = nil
	return out
}

// classify names the job API route of r and the job ID in its path.
func classify(r *http.Request) (route, job string) {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/solve":
		return "submit", ""
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		rest := strings.TrimPrefix(p, "/v1/jobs/")
		if id, ok := strings.CutSuffix(rest, "/result"); ok {
			return "result", id
		}
		return "status", rest
	}
	return "other", ""
}

// recorder counts the bytes a handler writes and keeps small bodies.
type recorder struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
	n    int
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.keep {
		r.body.Write(b)
	}
	n, err := r.ResponseWriter.Write(b)
	r.n += n
	return n, err
}

// routeSeconds returns the handler durations of one route.
func routeSeconds(calls []call, route string) []float64 {
	var out []float64
	for _, c := range calls {
		if c.route == route {
			out = append(out, c.end.Sub(c.start).Seconds())
		}
	}
	return out
}

func spanFile(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", workload, seed))
}
