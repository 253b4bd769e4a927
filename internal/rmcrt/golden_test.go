package rmcrt

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
)

// Golden checksums for the two solve modes the frozen seed engine has
// no reference for: adaptive ray budgets and the fused K-band spectral
// march. Each case hashes the divQ bits (FNV-64a over the region in
// ForEach order) and records the ray and step tallies; the values were
// captured from the wavefront-batched kernel that preceded the single
// scalar march, so a match shows the kernel fold changed no output and
// traced the same rays.

// divQHash returns the FNV-64a hash of out's bits over box.
func divQHash(box grid.Box, out *field.CC[float64]) uint64 {
	h := fnv.New64a()
	var b [8]byte
	box.ForEach(func(c grid.IntVector) {
		v := math.Float64bits(out.At(c))
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	})
	return h.Sum64()
}

// scaledBands builds a K-band spectral view of d: band k absorbs with
// kappaScale[k] times the gray coefficient on every level and carries
// emissive fraction w[k].
func scaledBands(d *Domain, kappaScale, w []float64) *SpectralDomain {
	lb := make([][]Band, len(d.Levels))
	for li := range d.Levels {
		src := d.Levels[li].Abskg
		for k, s := range kappaScale {
			f := field.NewCC[float64](src.Box())
			sd, fd := src.Data(), f.Data()
			for i := range sd {
				fd[i] = s * sd[i]
			}
			lb[li] = append(lb[li], Band{Name: fmt.Sprintf("b%d", k), Abskg: f, EmissiveFraction: w[k]})
		}
	}
	return &SpectralDomain{Base: d, LevelBands: lb}
}

type goldenCase struct {
	hash        uint64
	rays, steps int64
}

func checkGolden(t *testing.T, label string, region grid.Box, out *field.CC[float64], d *Domain, want goldenCase) {
	t.Helper()
	got := goldenCase{divQHash(region, out), d.Rays.Load(), d.Steps.Load()}
	if got != want {
		t.Errorf("%s: got {hash: %#x, rays: %d, steps: %d}, want {hash: %#x, rays: %d, steps: %d}",
			label, got.hash, got.rays, got.steps, want.hash, want.rays, want.steps)
	}
}

func TestAdaptiveGoldenChecksums(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(o *Options)
		want goldenCase
	}{
		{"plain", func(o *Options) {}, goldenCase{0xd05c353a46466db3, 8820, 75131}},
		{"scattering", func(o *Options) { o.ScatterCoeff = 0.5 }, goldenCase{0xcd496b5f5121f8a2, 9264, 84730}},
		{"stratifiedGreyWalls", func(o *Options) {
			o.Stratified = true
			o.WallEmissivity = 0.7
			o.WallSigmaT4 = 0.4
			o.Reflections = true
		}, goldenCase{0x8598f5ad981fa49c, 7052, 572319}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _, err := NewBenchmarkDomain(12)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.NRays = 64
			opts.AdaptiveRelTol = 0.05
			opts.AdaptiveMinRays = 4
			opts.AdaptiveMaxRays = 64
			tc.mod(&opts)
			region := d.finest().ROI
			out, err := d.SolveRegion(region, &opts)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "adaptive "+tc.name, region, out, d, tc.want)
		})
	}
}

func TestAdaptiveGoldenChecksumMultiLevel(t *testing.T) {
	g, mk, err := NewMultiLevelBenchmark(16, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Levels[1].Patches[0]
	d, err := mk(p)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.NRays = 32
	opts.HaloCells = 2
	opts.AdaptiveRelTol = 0.05
	opts.AdaptiveMinRays = 4
	opts.AdaptiveMaxRays = 32
	opts.WallEmissivity = 0.6
	opts.WallSigmaT4 = 0.3
	opts.Reflections = true
	out, err := d.SolveRegion(p.Cells, &opts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "adaptive 2-level", p.Cells, out, d, goldenCase{0x27283eaebe64b98b, 2132, 156787})
}

func TestSpectralGoldenChecksums(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(o *Options)
		want goldenCase
	}{
		{"plain", func(o *Options) {}, goldenCase{0x207e931d292ae498, 8192, 83034}},
		{"greyWallsReflecting", func(o *Options) {
			o.WallEmissivity = 0.6
			o.WallSigmaT4 = 0.3
			o.Reflections = true
		}, goldenCase{0x71524998286d7d00, 8192, 661889}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, mk, err := NewMultiLevelBenchmark(16, 8, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			p := g.Levels[1].Patches[0]
			d, err := mk(p)
			if err != nil {
				t.Fatal(err)
			}
			sd := scaledBands(d, []float64{0.25, 1, 2.5, 6}, []float64{0.1, 0.2, 0.3, 0.4})
			opts := DefaultOptions()
			opts.NRays = 16
			opts.HaloCells = 2
			tc.mod(&opts)
			out, err := sd.SolveRegionSpectral(p.Cells, &opts)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "spectral K=4 "+tc.name, p.Cells, out, d, tc.want)
		})
	}
}
