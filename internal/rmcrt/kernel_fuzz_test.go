package rmcrt

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
)

// Flags of FuzzKernelEquivalence's flags byte.
const (
	fuzzReflect     = 1 << iota // specular reflection at grey surfaces
	fuzzScatter                 // isotropic scattering, σ_s = 0.5
	fuzzStratified              // stratified ray directions
	fuzzCentered                // cell-centred ray origins
	fuzzProcs4                  // GOMAXPROCS 4 instead of 1
	fuzzRegionBlock             // solve only the opaque block's cells
)

// fuzzCase is one decoded FuzzKernelEquivalence input.
type fuzzCase struct {
	seed                                           uint64
	size, levels, opaque, blockLo, blockEdge, wall uint8
	flags, tile, rays                              uint8
}

// build returns a fresh domain for the case and the region to solve.
// The seed RNG places the scattered opaque cells (on every level); the
// block is an opaque box on the finest level. Opaque cells emit twice
// the medium's intensity, so a wrong surface pickup shows.
func (fc fuzzCase) build(t *testing.T) (*Domain, grid.Box) {
	t.Helper()
	var d *Domain
	var region grid.Box
	if fc.levels%2 == 0 {
		n := 4 + int(fc.size%9)
		dd, _, err := NewBenchmarkDomain(n)
		if err != nil {
			t.Fatal(err)
		}
		d, region = dd, dd.finest().ROI
	} else {
		// Two levels, refinement ratio 2. With reflections the halo is
		// even, so the fine ROI faces stay on coarse cell faces: the
		// seed engine predates the in-place reflection after a drop onto
		// a straddling opaque coarse cell (tracer_drop_test.go covers
		// that case against closed forms instead).
		fineN := 8 + 8*int(fc.size%2)
		halo := 1 + int(fc.size/2)%3
		if fc.flags&fuzzReflect != 0 {
			halo = 2
		}
		g, mk, err := NewMultiLevelBenchmark(fineN, fineN/2, 2, halo)
		if err != nil {
			t.Fatal(err)
		}
		patches := g.Levels[1].Patches
		p := patches[fc.seed%uint64(len(patches))]
		if d, err = mk(p); err != nil {
			t.Fatal(err)
		}
		region = p.Cells
	}

	rng := rand.New(rand.NewPCG(fc.seed, 0x0fa9e))
	setOpaque := func(ld *LevelData, c grid.IntVector) {
		ld.CellType.Set(c, field.Intrusion)
		ld.SigmaT4OverPi.Set(c, 2*ld.SigmaT4OverPi.At(c))
	}
	for li := range d.Levels {
		ld := &d.Levels[li]
		box := ld.ROI
		if li < len(d.Levels)-1 && fc.flags&fuzzReflect != 0 {
			// A ray leaving a fine ROI across the domain boundary drops
			// onto the coarser level's boundary cell (CellContaining
			// clamps) instead of hitting the enclosure wall; if that
			// cell is opaque and reflecting, the engine reflects in
			// place and the seed steps back a cell. Keep coarse opaque
			// cells off the boundary layer.
			box = box.Grow(-1)
		}
		ext := box.Extent()
		for i := 0; i < int(fc.opaque%32); i++ {
			c := box.Lo.Add(grid.IV(rng.IntN(ext.X), rng.IntN(ext.Y), rng.IntN(ext.Z)))
			if ld.CellType.At(c) == field.Flow {
				setOpaque(ld, c)
			}
		}
	}
	if e := int(fc.blockEdge % 5); e > 0 {
		ld := d.finest()
		ext := ld.ROI.Extent()
		lo := ld.ROI.Lo.Add(grid.Uniform(int(fc.blockLo) % min(ext.X, ext.Y, ext.Z)))
		block := grid.NewBox(lo, lo.Add(grid.Uniform(e))).Intersect(ld.ROI)
		block.ForEach(func(c grid.IntVector) {
			if ld.CellType.At(c) == field.Flow {
				setOpaque(ld, c)
			}
		})
		if sub := block.Intersect(region); fc.flags&fuzzRegionBlock != 0 && !sub.Empty() {
			region = sub
		}
	}
	return d, region
}

// options returns the case's solve options.
func (fc fuzzCase) options() Options {
	opts := DefaultOptions()
	opts.Seed = fc.seed
	opts.NRays = 1 + int(fc.rays%6)
	opts.TileSize = 1 + int(fc.tile%9)
	if fc.wall != 0 {
		opts.WallEmissivity = 0.2 + 0.75*float64(fc.wall)/255
		opts.WallSigmaT4 = 0.4
	}
	opts.Reflections = fc.flags&fuzzReflect != 0
	if fc.flags&fuzzScatter != 0 {
		opts.ScatterCoeff = 0.5
	}
	opts.Stratified = fc.flags&fuzzStratified != 0
	opts.CellCenteredRays = fc.flags&fuzzCentered != 0
	return opts
}

// FuzzKernelEquivalence is the safety net under the ray-march kernel:
// on random small domains — one or two levels, scattered opaque cells
// and opaque blocks (whole opaque tiles, all-opaque regions), grey and
// reflecting walls, scattering, stratified and cell-centred sampling,
// tile sizes 1–9, GOMAXPROCS 1 and 4 — SolveRegion must reproduce the
// frozen seed engine (seedref_test.go) bit for bit, and trace the same
// number of rays and DDA steps. The checked-in corpus under
// testdata/fuzz pins the edge cases, so plain `go test` runs them.
func FuzzKernelEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, size, levels, opaque, blockLo, blockEdge, wall, flags, tile, rays uint8) {
		fc := fuzzCase{seed, size, levels, opaque, blockLo, blockEdge, wall, flags, tile, rays}
		procs := 1
		if flags&fuzzProcs4 != 0 {
			procs = 4
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

		opts := fc.options()
		dSeed, region := fc.build(t)
		want, err := seedSolveRegion(dSeed, region, &opts)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := fc.build(t)
		got, err := d.SolveRegion(region, &opts)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwiseEqual(t, region, want, got, "engine vs seed")
		if gr, wr := d.Rays.Load(), dSeed.Rays.Load(); gr != wr {
			t.Fatalf("engine traced %d rays, seed %d", gr, wr)
		}
		if gs, ws := d.Steps.Load(), dSeed.Steps.Load(); gs != ws {
			t.Fatalf("engine took %d steps, seed %d", gs, ws)
		}
	})
}
