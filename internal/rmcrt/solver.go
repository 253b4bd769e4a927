package rmcrt

import (
	"context"
	"math"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// frac returns the fractional part of x in [0,1).
func frac(x float64) float64 { return x - math.Floor(x) }

// SolveCell traces opts.NRays rays from cell c on the finest level and
// returns the cell's divergence of the heat flux:
//
//	divQ(c) = 4π κ(c) (σT⁴(c)/π − mean sumI)
//
// It always traces the fixed budget, whatever the adaptive options.
func (d *Domain) SolveCell(c grid.IntVector, opts *Options) float64 {
	tc := newTraceCtx(opts)
	tc.minRays, tc.maxRays = opts.NRays, opts.NRays
	var cnt traceCounters
	divQ, _ := d.solveCell(c, &tc, &cnt, nil)
	cnt.flushTo(d)
	return divQ
}

// raySampler draws one cell's rays from the cell's own stream, in the
// seed engine's per-ray order: 3 origin draws unless cell-centred,
// then 2 direction draws unless stratified.
type raySampler struct {
	lvl        *grid.Level
	c          grid.IntVector
	lo, dx     mathutil.Vec3
	centered   bool
	stratified bool
	// Cranley–Patterson rotation offsets for stratified (randomized
	// quasi-Monte Carlo) direction sampling.
	shift1, shift2 float64
}

// beginCell reseeds tc.rng on cell c's stream and returns the cell's
// sampler; the stratified shifts are the stream's first two draws.
func (tc *traceCtx) beginCell(lvl *grid.Level, c grid.IntVector) raySampler {
	opts := tc.opts
	tc.rng.SeedStream(opts.Seed, cellStreamID(c))
	s := raySampler{
		lvl: lvl, c: c, lo: lvl.CellLo(c), dx: lvl.CellSize(),
		centered: opts.CellCenteredRays, stratified: opts.Stratified,
	}
	if s.stratified {
		s.shift1, s.shift2 = tc.rng.Float64(), tc.rng.Float64()
	}
	return s
}

// ray returns the origin and direction of the cell's ray r.
func (s *raySampler) ray(r int, rng *mathutil.RNG) (origin, dir mathutil.Vec3) {
	if s.centered {
		origin = s.lvl.CellCenter(s.c)
	} else {
		origin = mathutil.Vec3{
			X: s.lo.X + rng.Float64()*s.dx.X,
			Y: s.lo.Y + rng.Float64()*s.dx.Y,
			Z: s.lo.Z + rng.Float64()*s.dx.Z,
		}
	}
	if s.stratified {
		u1 := frac(mathutil.Halton(r, 2) + s.shift1)
		u2 := frac(mathutil.Halton(r, 3) + s.shift2)
		cosTheta := 2*u1 - 1
		sinTheta := math.Sqrt(1 - cosTheta*cosTheta)
		phi := 2 * math.Pi * u2
		dir = mathutil.Vec3{X: sinTheta * math.Cos(phi), Y: sinTheta * math.Sin(phi), Z: cosTheta}
	} else {
		dir = rng.UnitSphere()
	}
	return origin, dir
}

// solveCell is the engine's per-cell ray loop. It traces cell c's rays
// in waves within the budget [tc.minRays, tc.maxRays]: a first wave of
// minRays, then doubling top-ups capped at maxRays, until the standard
// error of the mean intensity (a running Welford estimate) falls to
// tc.relTol of the cell's signal scale — the larger of |mean
// intensity| and the cell's own emitted intensity, so cold cells in hot
// surroundings still resolve their incoming flux. The fixed mode is
// the budget [NRays, NRays]: one wave, and the mean is the ray-order
// sum over NRays, the seed engine's arithmetic.
//
// The stopping rule depends only on the cell's own stream and ray
// order, so results are independent of how cells are spread over
// workers and tiles. poll, when non-nil, is checked before every wave;
// solveCell returns false as soon as it reports cancellation. Trace
// invariants come precomputed in tc and ray/step tallies land in the
// worker-private cnt (flushed by the caller once per tile).
func (d *Domain) solveCell(c grid.IntVector, tc *traceCtx, cnt *traceCounters, poll func() bool) (float64, bool) {
	ld := d.finest()
	rng := &tc.rng
	s := tc.beginCell(ld.Level, c)
	emit := ld.SigmaT4OverPi.At(c)

	n := 0
	sum, mean, m2 := 0.0, 0.0, 0.0
	for n < tc.maxRays {
		wave := tc.minRays
		if n > 0 {
			wave = min(n, tc.maxRays-n)
		}
		if poll != nil && !poll() {
			return 0, false
		}
		for end := n + wave; n < end; n++ {
			origin, dir := s.ray(n, rng)
			x := d.traceRay(origin, dir, rng, tc, cnt)
			sum += x
			delta := x - mean
			mean += delta / float64(n+1)
			m2 += delta * (x - mean)
		}
		if n >= 2 && n < tc.maxRays {
			sem := math.Sqrt(m2 / float64(n-1) / float64(n))
			scale := math.Abs(sum / float64(n))
			if emit > scale {
				scale = emit
			}
			if sem <= tc.relTol*scale {
				break
			}
		}
	}
	meanI := sum / float64(n)
	kappa := ld.Abskg.At(c)
	return 4 * math.Pi * kappa * (emit - meanI), true
}

// SolveRegion computes divQ for every flow cell in region (finest-level
// indices) into a new variable windowed on region. Opaque cells get 0.
// Work is tile-scheduled across GOMAXPROCS goroutines (see engine.go);
// determinism is unaffected because every cell has its own RNG stream.
func (d *Domain) SolveRegion(region grid.Box, opts *Options) (*field.CC[float64], error) {
	return d.SolveRegionCtx(context.Background(), region, opts)
}

// SolveRegionCtx is SolveRegion with cooperative cancellation: workers
// poll ctx between cells and the call returns a non-nil error promptly
// once the context is cancelled, discarding partial results.
func (d *Domain) SolveRegionCtx(ctx context.Context, region grid.Box, opts *Options) (*field.CC[float64], error) {
	out, _, err := d.solveRegionTiled(ctx, region, opts)
	return out, err
}

// Boundary flux -------------------------------------------------------

// WallFace identifies one face of the domain enclosure.
type WallFace int

// The six enclosure faces.
const (
	XMinus WallFace = iota
	XPlus
	YMinus
	YPlus
	ZMinus
	ZPlus
)

// String implements fmt.Stringer.
func (f WallFace) String() string {
	return [...]string{"x-", "x+", "y-", "y+", "z-", "z+"}[f]
}

// normal returns the face's inward unit normal.
func (f WallFace) normal() mathutil.Vec3 {
	switch f {
	case XMinus:
		return mathutil.V3(1, 0, 0)
	case XPlus:
		return mathutil.V3(-1, 0, 0)
	case YMinus:
		return mathutil.V3(0, 1, 0)
	case YPlus:
		return mathutil.V3(0, -1, 0)
	case ZMinus:
		return mathutil.V3(0, 0, 1)
	default:
		return mathutil.V3(0, 0, -1)
	}
}

// SolveWallFlux estimates the incident radiative heat flux (W/m²) at
// the center of the given enclosure face by tracing nRays
// cosine-weighted rays into the domain — "the heat flux to the
// surrounding walls" that boiler design cares about:
//
//	q_in = ∫_{2π} I cosθ dΩ  ≈  π · mean(sumI)   (cosine-weighted MC)
func (d *Domain) SolveWallFlux(face WallFace, opts *Options) (float64, error) {
	return d.SolveWallFluxCtx(context.Background(), face, opts)
}

// SolveWallFluxCtx is SolveWallFlux with cooperative cancellation
// under the same contract as SolveRegionCtx: the trace loop polls ctx
// between rays (each ray is a bounded march), stops promptly once it
// is cancelled, and returns a guaranteed non-nil error. Partial ray
// and step tallies are still merged into the Domain counters.
func (d *Domain) SolveWallFluxCtx(ctx context.Context, face WallFace, opts *Options) (float64, error) {
	if err := opts.validate(); err != nil {
		return 0, err
	}
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	ld := d.finest()
	lvl := ld.Level
	n := face.normal()
	// Face-center point nudged inside the domain.
	ctr := lvl.DomainLo.Add(lvl.DomainHi.Sub(lvl.DomainLo).Scale(0.5))
	half := lvl.DomainHi.Sub(lvl.DomainLo).Scale(0.5)
	p := ctr.Sub(n.Mul(half))
	eps := lvl.CellSize().MinComponent() * 1e-6
	p = p.Add(n.Scale(eps))

	// The face stream lives in the tagged non-cell namespace; the seed
	// tracer used uint64(face)+0xface, which collides with the cell
	// stream of (−2²⁰, −2²⁰, face+0xface−2²⁰) — see streams.go.
	rng := mathutil.NewStream(opts.Seed, wallFaceStreamID(face))
	tc := newTraceCtx(opts)
	var cnt traceCounters
	defer cnt.flushTo(d)
	done := ctx.Done()
	sum := 0.0
	for r := 0; r < opts.NRays; r++ {
		select {
		case <-done:
			return 0, ctxErr(ctx)
		default:
		}
		dir := rng.CosineHemisphere(n)
		sum += d.traceRay(p, dir, rng, &tc, &cnt)
	}
	return math.Pi * sum / float64(opts.NRays), nil
}

// ctxErr returns ctx's error, or context.Canceled when the Done
// channel is observably closed before ctx.Err() turns non-nil — the
// cancellation paths promise a non-nil error.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}
