package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// Host-speed normalisation of the serving workloads' in-process solve
// times (timestep_s there). On a shared host the same kernel work takes
// anywhere from 1x to 2x as long from one second to the next (other
// tenants contend for the cores and the last-level cache), and a whole
// run can be ~15% faster or slower than the next. A fixed probe of the
// benchmark's own, run between groups of solves, slows the same way at
// the same moments; dividing by it cancels most of the host's state
// (README.md, "Timing on a shared host").
//
// The probe imitates the march: dependent-free random loads from a
// table of 24-byte records, an exp and a multiply-add per load, on as
// many threads as the work. It is this benchmark's code, so no change
// to the program can change it. Normalised times are reported in
// reference seconds: the wall time the work would take on a host where
// the probe takes probeNominal.
const (
	probeNominal = 0.13 // seconds, the probe's time on the quiet reference host
	probeLoads   = 1 << 22
	probeRecords = 1 << 18
)

var probeTable = sync.OnceValue(func() [][3]float64 {
	t := make([][3]float64, probeRecords)
	for i := range t {
		t[i] = [3]float64{float64(i%97) * 0.01, float64(i%13) * 0.1, 1}
	}
	return t
})

var probeSink float64

// hostProbe runs the probe on as many threads as the measured work
// uses and returns its wall time. It first finishes a collection, so
// garbage the measured work left behind is not collected on the
// probe's time.
func hostProbe(workers int) float64 {
	tab := probeTable()
	runtime.GC()
	sums := make([]float64, workers)
	var wg sync.WaitGroup
	t := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint64(88172645463325252) + uint64(w)
			acc, tr := 0.0, 1.0
			for i := 0; i < probeLoads; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				r := &tab[x&(probeRecords-1)]
				e := math.Exp(-r[0] * 0.05)
				acc += r[1] * tr * (1 - e)
				tr *= e
				if tr < 1e-4 {
					tr = 1
				}
			}
			sums[w] = acc
		}(w)
	}
	wg.Wait()
	d := time.Since(t).Seconds()
	for _, s := range sums {
		probeSink += s
	}
	return d
}

// hostClock scales wall times measured between probes to reference
// seconds. One probe is noisy next to the host's drift, which holds for
// seconds at a time, so each unit of work is scaled by the median of
// the probe-derived scales of the units around it (smoothWidth of them).
type hostClock struct {
	workers int // threads the probe runs on, as many as the work uses
	last    float64
	scales  []float64
}

const smoothWidth = 5

func newHostClock(workers int) *hostClock {
	return &hostClock{workers: workers, last: hostProbe(workers)}
}

// mark closes a unit of work: it probes the host again and records the
// unit's raw scale, probeNominal over the mean of the probes on either
// side of it.
func (h *hostClock) mark() {
	p := hostProbe(h.workers)
	h.scales = append(h.scales, probeNominal/((h.last+p)/2))
	h.last = p
}

// scale returns the smoothed scale of unit i.
func (h *hostClock) scale(i int) float64 {
	lo := max(0, i-smoothWidth/2)
	hi := min(len(h.scales), lo+smoothWidth)
	lo = max(0, hi-smoothWidth)
	return median(h.scales[lo:hi])
}
