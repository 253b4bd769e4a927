package main

import (
	"math"
	"sort"

	"github.com/uintah-repro/rmcrt/internal/service"
)

// rng is a splitmix64 stream: the benchmark's own generator, so no
// change to the program's samplers can change the inputs it makes.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed ^ (stream * 0x9e3779b97f4a7c15)}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func pick[T any](r *rng, xs []T) T { return xs[r.intn(len(xs))] }

// shuffle permutes xs in place (Fisher-Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Random streams of one workload seed. Each purpose draws from its own
// stream, so adding a draw to one cannot shift another.
const (
	streamArrivals = 1 + iota
	streamSpecs
	streamRays
)

// arrivals returns a Poisson arrival schedule of rate over [0, dur)
// seconds, conditioned on its count: exactly round(rate*dur) arrivals,
// placed as sorted uniforms. A Poisson process conditioned on its count
// is exactly this, so the gaps stay memoryless while the number of jobs
// per step, and with it goodput, does not vary with the seed.
func arrivals(r *rng, rate, dur float64) []float64 {
	n := int(math.Round(rate * dur))
	out := make([]float64, n)
	for i := range out {
		out[i] = r.float() * dur
	}
	sort.Float64s(out)
	return out
}

// step is one constant-rate stretch of an open-loop schedule.
type step struct {
	rate   float64   // offered jobs per second
	dur    float64   // seconds of schedule
	due    []float64 // arrival offsets from the step's start, seconds
	specs  []service.Spec
	traced bool // spans and per-layer counters are recorded
	base   bool // end-to-end latency metrics come from this step
}

// plan is a whole serving workload: warm-up specs, then the steps in
// order. A ladder stops after its first step that misses the limit.
type plan struct {
	warmup []service.Spec
	steps  []step
	ladder bool
	// limits is the latency limit per SLO class, seconds, applied to
	// the class's p95 and to goodput.
	limits map[string]float64
}

// Measured and warm-up solve seeds come from disjoint ranges, so no
// warm-up result can be a cache hit for a measured job.
func jobSeed(workload uint64, i int) uint64 {
	return (workload%(1<<19))<<20 + uint64(i) + 1
}

func warmSeed(i int) uint64 { return 1<<40 | uint64(i) }

// serve-small: tiny unique interactive solves on a fixed rate ladder.
var (
	smallLadder = []float64{10, 20, 40, 80, 160}
	smallN      = []int{6, 8}
	smallRays   = []int{8, 12, 16}
)

const smallLimit = 0.5 // p95 latency limit, seconds

// smallPlan gives the base rate two thirds of the window (enough jobs
// for a p95) and splits the rest evenly over the higher rates. With
// trace set, the base step runs in two halves, untraced then traced, so
// the tracing overhead is measured at the same rate in the same run.
func smallPlan(seed uint64, seconds float64, trace bool) plan {
	specs := newRNG(seed, streamSpecs)
	arr := newRNG(seed, streamArrivals)
	next := 0
	mk := func(rate, dur float64, traced, base bool) step {
		st := step{rate: rate, dur: dur, traced: traced, base: base, due: arrivals(arr, rate, dur)}
		for range st.due {
			st.specs = append(st.specs, service.Spec{
				N: pick(specs, smallN), Rays: pick(specs, smallRays),
				Seed: jobSeed(seed, next), Class: service.ClassInteractive,
			})
			next++
		}
		return st
	}
	p := plan{ladder: true, limits: map[string]float64{service.ClassInteractive: smallLimit}}
	baseDur := seconds * 2 / 3
	if trace {
		p.steps = append(p.steps, mk(smallLadder[0], baseDur/2, false, true), mk(smallLadder[0], baseDur/2, true, true))
	} else {
		p.steps = append(p.steps, mk(smallLadder[0], baseDur, false, true))
	}
	for _, rate := range smallLadder[1:] {
		p.steps = append(p.steps, mk(rate, (seconds-baseDur)/float64(len(smallLadder)-1), trace, false))
	}
	// Warm-up: eight jobs per shape at once, so the affinity router
	// spills and both shards hold both packed tables before timing.
	for i := 0; i < 16; i++ {
		p.warmup = append(p.warmup, service.Spec{N: smallN[i%2], Rays: 8, Seed: warmSeed(i), Class: service.ClassInteractive})
	}
	return p
}

// serve-mixed: heavier solves of every kernel variant, repeats and two
// SLO classes at one fixed rate.
var (
	mixedN    = []int{12, 16, 20}
	mixedRays = []int{25, 50, 100}
)

const (
	mixedRate        = 4.0 // offered jobs per second, ~60% of two shards' solve capacity
	mixedRepeatFrac  = 0.25
	mixedInteractive = 2.0  // interactive p95 limit, seconds
	mixedBatch       = 10.0 // batch p95 limit, seconds
)

// mixedDeck returns deck k of new serve-mixed problems: every kernel
// variant slot (two plain gray, one each scattering, 4-band spectral,
// adaptive and 2-level) at every size, 18 specs. Ray counts and the
// interactive third rotate with k as Latin squares, so each deck holds
// every size and every ray count equally often among its six
// interactive specs, and any three decks hold every size x rays x
// variant once. The mix of work is then the same for every seed; the
// seed orders it, times it and picks the repeats.
func mixedDeck(k int) []service.Spec {
	var out []service.Spec
	for v := 0; v < 6; v++ {
		for n, size := range mixedN {
			s := service.Spec{N: size, Rays: mixedRays[(v+n+k)%3], Class: service.ClassBatch}
			if (v+2*n+k)%3 == 0 {
				s.Class = service.ClassInteractive
			}
			switch v {
			case 2:
				s.ScatterCoeff = 0.5
			case 3:
				s.SpectralBands = 4
			case 4:
				s.AdaptiveRelTol = 0.05
			case 5:
				s.Levels, s.PatchN, s.RR = 2, size/2, 2
			}
			out = append(out, s)
		}
	}
	return out
}

// mixedPlan deals new problems from shuffled decks and makes exactly a
// quarter of the jobs (never the first) exact repeats of an earlier
// one. With trace set, the window runs in two halves, untraced then
// traced.
func mixedPlan(seed uint64, seconds float64, trace bool) plan {
	r := newRNG(seed, streamSpecs)
	due := arrivals(newRNG(seed, streamArrivals), mixedRate, seconds)
	repeat := make([]bool, len(due))
	slots := make([]int, 0, len(due))
	for i := 1; i < len(due); i++ {
		slots = append(slots, i)
	}
	shuffle(r, slots)
	for _, i := range slots[:int(math.Round(mixedRepeatFrac*float64(len(due))))] {
		repeat[i] = true
	}
	var fresh, deck, specs []service.Spec
	for i := range due {
		if repeat[i] {
			specs = append(specs, pick(r, fresh))
			continue
		}
		if len(deck) == 0 {
			deck = mixedDeck(len(fresh) / 18)
			shuffle(r, deck)
		}
		s := deck[0]
		deck = deck[1:]
		s.Seed = jobSeed(seed, len(fresh))
		fresh = append(fresh, s)
		specs = append(specs, s)
	}
	p := plan{limits: map[string]float64{service.ClassInteractive: mixedInteractive, service.ClassBatch: mixedBatch}}
	mk := func(lo, hi float64, traced bool) step {
		st := step{rate: mixedRate, dur: hi - lo, traced: traced, base: true}
		for i, d := range due {
			if d >= lo && d < hi {
				st.due = append(st.due, d-lo)
				st.specs = append(st.specs, specs[i])
			}
		}
		return st
	}
	if trace {
		p.steps = []step{mk(0, seconds/2, false), mk(seconds/2, seconds, true)}
	} else {
		p.steps = []step{mk(0, seconds, false)}
	}
	for i := 0; i < 4; i++ {
		p.warmup = append(p.warmup, service.Spec{N: 12, Rays: 8, Seed: warmSeed(i)})
	}
	return p
}
