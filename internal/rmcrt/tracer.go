package rmcrt

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// LevelData is the radiative state of one mesh level as seen by the
// tracer: the three properties the paper lists (κ, σT⁴ — stored as
// σT⁴/π, the blackbody intensity — and cellType), valid over ROI.
//
// On the finest level the ROI is the patch plus its halo; on coarser
// radiation levels the ROI spans the entire domain (the replicated
// coarse copy every node holds).
type LevelData struct {
	Level *grid.Level
	// ROI is the index box over which the property windows are valid.
	ROI grid.Box
	// Abskg is the absorption coefficient κ (1/m).
	Abskg *field.CC[float64]
	// SigmaT4OverPi is the blackbody emitted intensity σT⁴/π.
	SigmaT4OverPi *field.CC[float64]
	// CellType distinguishes flow cells from opaque boundary cells.
	CellType *field.CC[field.CellType]
}

// Domain is the tracer's view of the AMR hierarchy: Levels[0] is the
// coarsest; the last entry is the finest (where rays originate).
type Domain struct {
	Levels []LevelData

	// Steps counts DDA cell-steps across all traced rays; the scaling
	// study calibrates the simulated GPU's throughput with it. Workers
	// accumulate privately and merge here once per tile (or per public
	// call), never once per step — the counter is off the hot path.
	Steps atomic.Int64
	// Rays counts rays traced, merged with the same cadence as Steps.
	Rays atomic.Int64

	// Metrics, when non-nil, receives the same per-tile merges plus
	// tile-level timings (see TraceMetrics). Set it before solving;
	// the engine reads it without synchronization.
	Metrics *TraceMetrics

	// packed holds the fused per-level property tables the march reads
	// (see packed.go): built lazily on first trace, or installed by
	// AttachPacked when the service shares tables across jobs. Property
	// fields are frozen once tracing begins; call InvalidatePacked
	// after mutating them on a reused domain.
	packed atomic.Pointer[PackedDomain]
}

// finest returns the finest level's data.
func (d *Domain) finest() *LevelData { return &d.Levels[len(d.Levels)-1] }

// Validate checks the domain is usable: at least one level, property
// windows covering each ROI, and every ROI index within the RNG stream
// packing range (indices outside [−2²⁰, 2²⁰) would silently alias
// per-cell streams — see streams.go).
func (d *Domain) Validate() error {
	if len(d.Levels) == 0 {
		return fmt.Errorf("rmcrt: domain has no levels")
	}
	for i := range d.Levels {
		ld := &d.Levels[i]
		if ld.Level == nil {
			return fmt.Errorf("rmcrt: level %d has no grid level", i)
		}
		if ld.Abskg == nil || ld.SigmaT4OverPi == nil || ld.CellType == nil {
			return fmt.Errorf("rmcrt: level %d is missing property fields", i)
		}
		for _, w := range []grid.Box{ld.Abskg.Box(), ld.SigmaT4OverPi.Box(), ld.CellType.Box()} {
			if w.Intersect(ld.ROI) != ld.ROI {
				return fmt.Errorf("rmcrt: level %d window %v does not cover ROI %v", i, w, ld.ROI)
			}
		}
		if !streamIndexInRange(ld.ROI.Lo) || !streamIndexInRange(ld.ROI.Hi.Sub(grid.Uniform(1))) {
			return fmt.Errorf("rmcrt: level %d ROI %v exceeds the RNG stream index range [%d, %d)",
				i, ld.ROI, -streamIndexLimit, streamIndexLimit)
		}
	}
	if d.Levels[0].ROI != d.Levels[0].Level.IndexBox() {
		return fmt.Errorf("rmcrt: coarsest level ROI %v must span the level %v (the replicated copy)",
			d.Levels[0].ROI, d.Levels[0].Level.IndexBox())
	}
	return nil
}

// traceCounters is a worker-private tally of rays and DDA steps. The
// trace loop bumps plain integers; flushTo merges them into the shared
// atomic counters (and the optional metrics family) once per tile or
// per public call — the fix for the seed tracer's contended
// atomic-per-step hot path.
type traceCounters struct {
	rays, steps int64
}

// flushTo merges and resets the tally.
func (c *traceCounters) flushTo(d *Domain) {
	if c.rays == 0 && c.steps == 0 {
		return
	}
	d.Rays.Add(c.rays)
	d.Steps.Add(c.steps)
	if m := d.Metrics; m != nil {
		m.Rays.Add(c.rays)
		m.Steps.Add(c.steps)
	}
	c.rays, c.steps = 0, 0
}

// traceCtx carries the per-solve invariants of the ray march, hoisted
// out of the per-ray path: option-derived scalars that the seed tracer
// recomputed inside TraceRay on every call.
type traceCtx struct {
	opts           *Options
	maxSteps       int
	maxReflections int
	wallIntensity  float64
	threshold      float64
	scatterCoeff   float64
	wallEmissivity float64
	reflections    bool
	// minRays and maxRays bound each cell's ray budget (solveCell):
	// [NRays, NRays] in the fixed mode, the adaptive range otherwise,
	// with relTol the adaptive stopping tolerance.
	minRays, maxRays int
	relTol           float64
	// rng is worker-private scratch reseeded per cell (SeedStream), so
	// the hot loop pays no allocation per stream.
	rng mathutil.RNG
}

// newTraceCtx precomputes the trace invariants for opts.
func newTraceCtx(opts *Options) traceCtx {
	tc := traceCtx{
		opts:           opts,
		maxSteps:       opts.maxSteps(),
		maxReflections: opts.maxReflections(),
		wallIntensity:  opts.wallIntensity(),
		threshold:      opts.Threshold,
		scatterCoeff:   opts.ScatterCoeff,
		wallEmissivity: opts.WallEmissivity,
		reflections:    opts.Reflections,
		minRays:        opts.NRays,
		maxRays:        opts.NRays,
	}
	if opts.adaptiveEnabled() {
		tc.minRays, tc.maxRays = opts.adaptiveBudget()
		tc.relTol = opts.AdaptiveRelTol
	}
	return tc
}

// reflects reports whether a ray that has already reflected n times
// reflects off a grey surface it hits, rather than terminating there.
func (tc *traceCtx) reflects(n int) bool {
	return tc.reflections && !(tc.wallEmissivity >= 1) && n < tc.maxReflections
}

// marchState is the DDA (Amanatides–Woo) state of one ray on one level.
// tMax components measure distance from the *ray origin* to the next
// face crossing on each axis; tDelta is the per-cell crossing distance.
type marchState struct {
	cell         grid.IntVector
	step         grid.IntVector
	tMax, tDelta mathutil.Vec3
}

// initMarch builds DDA state for a ray located at distance tCur from
// origin, at physical position pos, in the given cell of level l.
func initMarch(l *grid.Level, cell grid.IntVector, pos, dir mathutil.Vec3, tCur float64) marchState {
	var st marchState
	st.cell = cell
	dx := l.CellSize()
	lo := l.CellLo(cell)
	for ax := 0; ax < 3; ax++ {
		dc := dir.Component(ax)
		switch {
		case dc > 0:
			st.step = st.step.WithComponent(ax, 1)
			st.tDelta = st.tDelta.WithComponent(ax, dx.Component(ax)/dc)
			st.tMax = st.tMax.WithComponent(ax,
				tCur+(lo.Component(ax)+dx.Component(ax)-pos.Component(ax))/dc)
		case dc < 0:
			st.step = st.step.WithComponent(ax, -1)
			st.tDelta = st.tDelta.WithComponent(ax, -dx.Component(ax)/dc)
			st.tMax = st.tMax.WithComponent(ax,
				tCur+(lo.Component(ax)-pos.Component(ax))/dc)
		default:
			st.step = st.step.WithComponent(ax, 0)
			st.tDelta = st.tDelta.WithComponent(ax, math.Inf(1))
			st.tMax = st.tMax.WithComponent(ax, math.Inf(1))
		}
	}
	return st
}

// nextAxis returns the axis with the smallest tMax — the face the ray
// crosses next.
func (st *marchState) nextAxis() int {
	ax := 0
	if st.tMax.Y < st.tMax.Component(ax) {
		ax = 1
	}
	if st.tMax.Z < st.tMax.Component(ax) {
		ax = 2
	}
	return ax
}

// TraceRay integrates the incoming intensity along one backward ray
// started at physical position origin with unit direction dir on the
// finest level. An optional rng enables scattering sampling.
//
// The march runs on the finest level while inside its ROI, dropping to
// coarser levels outside, and terminates at opaque cells, at the domain
// boundary, or when the transmittance falls below opts.Threshold.
func (d *Domain) TraceRay(origin, dir mathutil.Vec3, rng *mathutil.RNG, opts *Options) float64 {
	tc := newTraceCtx(opts)
	var cnt traceCounters
	sumI := d.traceRay(origin, dir, rng, &tc, &cnt)
	cnt.flushTo(d)
	return sumI
}

// rayGeom is one ray's geometric march state: its position and
// direction, the DDA state on the current level, and the flat cursor
// into that level's packed table. tm measures distance from origin to
// the next face crossing per axis; td is the per-cell crossing
// distance. The axis arrays are padded to 4 so the marches' ax&3
// indexing compiles without bounds checks.
//
// The marches copy the mutable fields (cc, tm, idx, tcur) into locals
// for their hot loop and write them back only when a cold event needs
// the geometry: the methods below are that cold path, shared by the
// gray and the K-band march so the two cannot drift apart.
type rayGeom struct {
	d           *Domain
	pd          *PackedDomain
	li          int // current level index
	origin, dir mathutil.Vec3
	tcur        float64 // distance travelled from origin
	cc, ss, dd  [4]int  // current cell, step direction, flat-index deltas
	tm, td      [4]float64
	idx         int // flat packed-record index of cc
}

// start places a fresh ray at origin/dir in its cell of the finest
// level.
func (g *rayGeom) start(d *Domain, origin, dir mathutil.Vec3) {
	g.d, g.pd = d, d.ensurePacked()
	g.origin, g.dir, g.tcur = origin, dir, 0
	li := len(d.Levels) - 1
	lvl := d.Levels[li].Level
	st := initMarch(lvl, lvl.CellContaining(origin), origin, dir, 0)
	g.set(li, &st)
}

// set installs DDA state st on level li and rebuilds the packed cursor
// (which panics outside the table, the seed tracer's out-of-window
// semantics).
func (g *rayGeom) set(li int, st *marchState) {
	cur := g.pd.levels[li].cursor(st)
	g.li = li
	g.cc = [4]int{st.cell.X, st.cell.Y, st.cell.Z}
	g.ss = [4]int{st.step.X, st.step.Y, st.step.Z}
	g.dd = [4]int{cur.d[0], cur.d[1], cur.d[2]}
	g.tm = [4]float64{st.tMax.X, st.tMax.Y, st.tMax.Z}
	g.td = [4]float64{st.tDelta.X, st.tDelta.Y, st.tDelta.Z}
	g.idx = cur.idx
}

// cell returns the current cell.
func (g *rayGeom) cell() grid.IntVector { return grid.IV(g.cc[0], g.cc[1], g.cc[2]) }

// roi returns the current level's region of interest as a lower corner
// and unsigned extents: a cell c is inside iff uint(c[i]−lo[i]) <
// ext[i] on every axis, three compares instead of six.
func (g *rayGeom) roi() (lo [3]int, ext [3]uint) {
	r := g.d.Levels[g.li].ROI
	lo = [3]int{r.Lo.X, r.Lo.Y, r.Lo.Z}
	ext = [3]uint{uint(r.Hi.X - r.Lo.X), uint(r.Hi.Y - r.Lo.Y), uint(r.Hi.Z - r.Lo.Z)}
	return lo, ext
}

// rec returns the packed record under the cursor.
func (g *rayGeom) rec() *PackedCell { return &g.pd.levels[g.li].recs[g.idx] }

// dropLevel moves the ray, which just left the current level's ROI, to
// the next coarser level at its current position, nudged slightly
// forward so face-exact points land in the cell ahead of the crossing.
// The origin is kept: the coarse DDA state measures from it.
func (g *rayGeom) dropLevel() {
	g.li--
	lvl := g.d.Levels[g.li].Level
	eps := 1e-9 * lvl.CellSize().MinComponent()
	p := g.origin.Add(g.dir.Scale(g.tcur + eps))
	st := initMarch(lvl, lvl.CellContaining(p), p, g.dir, g.tcur)
	g.set(g.li, &st)
}

// reflect restarts the ray specularly about the face perpendicular to
// ax that it just crossed, from the crossing point, one cell back along
// ax. The reflected face is perpendicular to ax even after a level
// drop: a drop happens when the ray crosses the fine ROI face on axis
// ax, and that crossing is what exposed the coarse cell. The restart
// cell, however, is only "one cell back along ax" when the ray actually
// entered through a face of this cell. After a drop onto a coarse cell
// that the fine ROI face straddles, the hit point lies strictly inside
// the cell; stepping a whole coarse cell back would teleport the march
// into a cell that does not contain it. Reflect in place instead: the
// ray re-traverses the remaining thickness of the wall material it is
// inside.
func (g *rayGeom) reflect(ax int, dropped bool) {
	lvl := g.d.Levels[g.li].Level
	cell := g.cell()
	inside := cell.WithComponent(ax, cell.Component(ax)-g.ss[ax])
	p := g.origin.Add(g.dir.Scale(g.tcur))
	if dropped && !enteredThroughFace(lvl, cell, ax, g.ss[ax], p) {
		inside = cell
	}
	g.dir = g.dir.WithComponent(ax, -g.dir.Component(ax))
	g.origin, g.tcur = p, 0
	st := initMarch(lvl, inside, g.origin, g.dir, 0)
	g.set(g.li, &st)
}

// scatter restarts the ray in its current cell from the point at
// distance t along its path, with the new direction dir.
func (g *rayGeom) scatter(t float64, dir mathutil.Vec3) {
	p := g.origin.Add(g.dir.Scale(t))
	g.origin, g.dir, g.tcur = p, dir, 0
	st := initMarch(g.d.Levels[g.li].Level, g.cell(), p, dir, 0)
	g.set(g.li, &st)
}

// Events that end a hot-loop burst of the marches.
const (
	evOut     = iota // left the current level's ROI
	evOpaque         // stepped into an opaque cell
	evScatter        // scattering event inside the current cell
	evDone           // extinction or maxSteps: the ray is finished
)

// traceRay is the gray march, the engine's hot path: identical physics
// to the public TraceRay, with the per-solve invariants read from tc
// and the ray/step tallies accumulated into the worker-private cnt.
//
// Properties come from the packed per-level tables (packed.go) through
// a flat-index cursor: one stride add and one 24-byte record load per
// DDA step. The hot loop keeps the DDA state in axis-indexed local
// arrays, so the crossed axis (effectively random) costs data movement
// instead of mispredicted branches; its axis choice is a min-select
// that compiles to conditional moves; and the ROI test is three
// unsigned range checks. Everything rare — walls, level drops, opaque
// cells, reflections, the scattering event — leaves the loop and is
// handled below it, with the geometry in rayGeom's shared methods. The
// arithmetic, and its order, is the seed engine's, so results stay
// bitwise identical to it.
func (d *Domain) traceRay(origin, dir mathutil.Vec3, rng *mathutil.RNG, tc *traceCtx, cnt *traceCounters) float64 {
	cnt.rays++
	var g rayGeom
	g.start(d, origin, dir)

	sumI := 0.0
	tau := 0.0   // accumulated optical thickness
	trans := 1.0 // e^{-tau}
	threshold := tc.threshold
	left := tc.maxSteps // remaining DDA steps
	reflections := 0

	// scatterT is +Inf without scattering, so its test never fires.
	scatterT := math.Inf(1)
	if tc.scatterCoeff > 0 && rng != nil {
		scatterT = sampleScatterDistance(rng, tc.scatterCoeff)
	}

	for {
		recs := g.pd.levels[g.li].recs
		lo, ext := g.roi()
		cc, ss, dd := g.cc, g.ss, g.dd
		tm, td := g.tm, g.td
		idx, tcur := g.idx, g.tcur
		rec := &recs[idx]
		ev, ax := evDone, 0
		for left > 0 {
			left--
			ax = 0
			tNext := tm[0]
			if tm[1] < tNext {
				ax = 1
				tNext = tm[1]
			}
			if tm[2] < tNext {
				ax = 2
				tNext = tm[2]
			}
			ds := tNext - tcur
			if ds < 0 {
				ds = 0
			}
			if tcur+ds > scatterT {
				ev = evScatter
				break
			}

			// Accumulate this cell's emission over the segment:
			// sumI += I_b(cell) * (e^{-τ_prev} - e^{-τ}).
			tauNew := tau + rec.Abskg*ds
			transNew := math.Exp(-tauNew)
			sumI += rec.SigmaT4OverPi * (trans - transNew)
			tau, trans = tauNew, transNew
			if trans < threshold {
				break // extinction
			}

			// Move into the next cell: one stride add advances the flat
			// record index alongside the DDA state.
			tcur = tNext
			axm := ax & 3
			cc[axm] += ss[axm]
			tm[axm] += td[axm]
			idx += dd[axm]
			if uint(cc[0]-lo[0]) < ext[0] && uint(cc[1]-lo[1]) < ext[1] && uint(cc[2]-lo[2]) < ext[2] {
				rec = &recs[idx]
				if rec.Flags == 0 {
					continue
				}
				ev = evOpaque
			} else {
				// Outside the ROI the flat index is not meaningful; the
				// wall or drop below rebuilds the cursor.
				ev = evOut
			}
			break
		}
		if ev == evDone {
			cnt.steps += int64(tc.maxSteps - left)
			return sumI
		}
		g.cc, g.tm, g.idx, g.tcur = cc, tm, idx, tcur

		if ev == evScatter {
			// Isotropic scattering inside this cell: accumulate the
			// partial segment, then redirect from the scatter point.
			// One scattering generation keeps variance bounded; the
			// benchmark runs with scattering off.
			tauNew := tau + rec.Abskg*(scatterT-tcur)
			transNew := math.Exp(-tauNew)
			sumI += rec.SigmaT4OverPi * (trans - transNew)
			tau, trans = tauNew, transNew
			g.scatter(scatterT, rng.UnitSphere())
			scatterT = math.Inf(1)
			continue
		}

		dropped := false
		if ev == evOut {
			if g.li == 0 {
				// Leaving the coarsest level means leaving the domain:
				// the ray hits the enclosure wall. A reflection carries
				// the surviving (1−ε) weight back in, folded into the
				// optical depth so later segments keep it.
				sumI += tc.wallIntensity * trans
				if !tc.reflects(reflections) {
					break
				}
				trans *= 1 - tc.wallEmissivity
				tau -= math.Log(1 - tc.wallEmissivity)
				if trans < threshold {
					break
				}
				reflections++
				g.reflect(ax, false)
				continue
			}
			g.dropLevel()
			dropped = true
			if rec = g.rec(); rec.Flags == 0 {
				continue
			}
		}

		// Opaque cell: the ray picks up the surface's emission and
		// either terminates or reflects about the crossed face.
		sumI += tc.wallEmissivity * rec.SigmaT4OverPi * trans
		if !tc.reflects(reflections) {
			break
		}
		trans *= 1 - tc.wallEmissivity
		tau -= math.Log(1 - tc.wallEmissivity)
		if trans < threshold {
			break
		}
		reflections++
		g.reflect(ax, dropped)
	}
	cnt.steps += int64(tc.maxSteps - left)
	return sumI
}

// enteredThroughFace reports whether p lies on cell's entry face along
// ax for a ray stepping in direction step (within a relative
// tolerance). The level-drop nudge is 1e-9·dx, far inside the 1e-6·dx
// tolerance, so face-aligned drops always count as through-the-face.
func enteredThroughFace(l *grid.Level, cell grid.IntVector, ax, step int, p mathutil.Vec3) bool {
	dx := l.CellSize().Component(ax)
	face := l.CellLo(cell).Component(ax)
	if step < 0 {
		face += dx
	}
	return math.Abs(p.Component(ax)-face) <= 1e-6*dx
}

// sampleScatterDistance draws the free path to the next scattering
// event from the exponential distribution with coefficient sigmaS.
func sampleScatterDistance(rng *mathutil.RNG, sigmaS float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u) / sigmaS
}
