package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the R-7 / numpy default). xs is not modified; an
// empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// Backlog rule. A rate step's backlog grows when either
//   - the mean latency of its last quarter of jobs (in due order) is
//     more than backlogLatencyRatio times that of its first quarter, or
//   - the router queue depth, averaged per quarter of the step's
//     samples, rises strictly from quarter to quarter and ends at or
//     above backlogMinDepth queued jobs.
//
// The depth floor keeps a step whose queue is almost always empty from
// reading as "climbing" on a few stray samples. Each part needs
// backlogMinPerQuarter values in every quarter; a shorter step is too
// small to judge.
const (
	backlogLatencyRatio  = 1.5
	backlogMinDepth      = 1.0
	backlogMinPerQuarter = 10
)

// backlogGrows applies the backlog rule to one step's latencies (in
// due order) and its sampled router queue depths (in time order). It
// returns a non-empty reason when the backlog grows.
func backlogGrows(latencies, depths []float64) string {
	if q := quarterMeans(latencies); q != nil && q[3] > backlogLatencyRatio*q[0] {
		return fmt.Sprintf("last-quarter mean latency %.3fs > %.1f x first-quarter %.3fs",
			q[3], backlogLatencyRatio, q[0])
	}
	if q := quarterMeans(depths); q != nil && q[0] < q[1] && q[1] < q[2] && q[2] < q[3] && q[3] >= backlogMinDepth {
		return fmt.Sprintf("router queue depth climbs %.2f -> %.2f -> %.2f -> %.2f", q[0], q[1], q[2], q[3])
	}
	return ""
}

// quarterMeans splits xs into four consecutive quarters and returns
// their means, or nil when a quarter would hold fewer than
// backlogMinPerQuarter values.
func quarterMeans(xs []float64) []float64 {
	if len(xs) < 4*backlogMinPerQuarter {
		return nil
	}
	out := make([]float64, 4)
	for i := 0; i < 4; i++ {
		out[i] = mean(xs[i*len(xs)/4 : (i+1)*len(xs)/4])
	}
	return out
}
