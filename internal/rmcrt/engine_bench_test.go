package rmcrt

import (
	"testing"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// Pinned benchmarks — the perf-regression gate's fixed workloads.
// cmd/perfgate runs exactly these (plus the root-package service and
// calibration benchmarks), records them in BENCH_rmcrt.json and fails
// CI when they regress. Renaming one is a baseline-breaking change:
// regenerate the baseline in the same commit (go run ./cmd/perfgate
// -update BENCH_rmcrt.json).

// benchSolveOpts is the gate's standard tracing configuration: enough
// rays to be march-dominated, few enough that one SolveRegion pass
// stays sub-second.
func benchSolveOpts() Options {
	opts := DefaultOptions()
	opts.NRays = 4
	return opts
}

// BenchmarkSolveRegion is the headline workload: divQ over the full
// 32³ Burns & Christon problem, engine=tile (this PR) vs engine=slab
// (the frozen seed engine: x-slab scheduling, atomic-per-step
// counters). The slab variant exists so the speedup is measured, not
// asserted; perfgate guards the tile/slab ratio as well as tile's
// absolute time.
func BenchmarkSolveRegion(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	region := d.finest().ROI
	opts := benchSolveOpts()

	b.Run("engine=tile", func(b *testing.B) {
		b.ReportAllocs()
		start := d.Steps.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.SolveRegion(region, &opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(d.Steps.Load()-start)/b.Elapsed().Seconds()/1e6, "Msteps/s")
	})
	b.Run("engine=slab", func(b *testing.B) {
		b.ReportAllocs()
		start := d.Steps.Load()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := seedSolveRegion(d, region, &opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(d.Steps.Load()-start)/b.Elapsed().Seconds()/1e6, "Msteps/s")
	})
}

// BenchmarkTraceRayPinned marches one fixed diagonal ray through the
// 32³ domain — the pure DDA cost with no scheduling around it.
func BenchmarkTraceRayPinned(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchSolveOpts()
	origin := mathutil.V3(0.01, 0.02, 0.03)
	dir := mathutil.V3(1, 1, 1).Normalized()
	b.ReportAllocs()
	start := d.Steps.Load()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += d.TraceRay(origin, dir, nil, &opts)
	}
	_ = sink
	b.ReportMetric(float64(d.Steps.Load()-start)/b.Elapsed().Seconds()/1e6, "Msteps/s")
}

// BenchmarkMultiLevelWalk traces rays that start on a fine patch and
// drop to the coarse radiation level — the AMR walk the paper's
// multi-level algorithm lives on.
func BenchmarkMultiLevelWalk(b *testing.B) {
	g, mk, err := NewMultiLevelBenchmark(32, 16, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	patch := g.Levels[1].Patches[0]
	d, err := mk(patch)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchSolveOpts()
	origin := mathutil.V3(0.05, 0.06, 0.07)
	dir := mathutil.V3(1, 0.7, 0.4).Normalized()
	b.ReportAllocs()
	start := d.Steps.Load()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += d.TraceRay(origin, dir, nil, &opts)
	}
	_ = sink
	b.ReportMetric(float64(d.Steps.Load()-start)/b.Elapsed().Seconds()/1e6, "Msteps/s")
}

// BenchmarkPackedDDA marches the same fixed diagonal ray with the
// packed stride-incremental march (fused per-cell records, one integer
// add per step) vs the frozen seed march (three separate field lookups
// recomputing the flat offset from the cell coordinate every step) —
// the pure per-step cost of the fused record layout. perfgate guards
// the unpacked/packed ratio in-run.
func BenchmarkPackedDDA(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchSolveOpts()
	origin := mathutil.V3(0.01, 0.02, 0.03)
	dir := mathutil.V3(1, 1, 1).Normalized()

	b.Run("layout=packed", func(b *testing.B) {
		b.ReportAllocs()
		tc := newTraceCtx(&opts)
		var cnt traceCounters
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += d.traceRay(origin, dir, nil, &tc, &cnt)
		}
		_ = sink
		if cnt.steps > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cnt.steps), "ns/step")
		}
	})
	b.Run("layout=unpacked", func(b *testing.B) {
		b.ReportAllocs()
		start := d.Steps.Load()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += seedTraceRay(d, origin, dir, nil, &opts)
		}
		_ = sink
		if steps := d.Steps.Load() - start; steps > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		}
	})
}

// BenchmarkCounterContention isolates the bug the tentpole fixes: many
// goroutines marching rays while tallying steps, with the seed's
// shared-atomic-per-step scheme vs the worker-private merge. The gap
// between the two sub-benchmarks IS the contention cost (plus the
// hoisted option rereads); perfgate guards their ratio.
func BenchmarkCounterContention(b *testing.B) {
	d, _, err := NewBenchmarkDomain(16)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchSolveOpts()
	origin := mathutil.V3(0.01, 0.02, 0.03)
	dir := mathutil.V3(1, 0.9, 0.8).Normalized()

	b.Run("atomicPerStep", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var sink float64
			for pb.Next() {
				sink += seedTraceRay(d, origin, dir, nil, &opts)
			}
			_ = sink
		})
	})
	b.Run("perTileMerge", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			tc := newTraceCtx(&opts)
			var cnt traceCounters
			var sink float64
			for pb.Next() {
				sink += d.traceRay(origin, dir, nil, &tc, &cnt)
			}
			cnt.flushTo(d)
			_ = sink
		})
	})
}

// BenchmarkAdaptiveSolve measures the adaptive ray-budget mode on the
// 32³ problem: cells start at 8 rays and top up toward the paper's 100
// only where the Welford relative error demands it. rays_saved_pct is
// the fraction of the fixed-budget ray count (flow cells ×
// AdaptiveMaxRays) the adaptive mode did not have to trace — the
// rays-saved headline perfgate surfaces in its summary.
func BenchmarkAdaptiveSolve(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	region := d.finest().ROI
	opts := DefaultOptions()
	opts.NRays = 100
	opts.AdaptiveRelTol = 0.05
	opts.AdaptiveMinRays = 8
	opts.AdaptiveMaxRays = 100

	ld := d.finest()
	flow := 0
	region.ForEach(func(c grid.IntVector) {
		if ld.CellType.At(c) == field.Flow {
			flow++
		}
	})
	b.ReportAllocs()
	start := d.Rays.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.SolveRegion(region, &opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	traced := float64(d.Rays.Load()-start) / float64(b.N)
	potential := float64(flow * opts.AdaptiveMaxRays)
	if potential > 0 {
		b.ReportMetric(100*(1-traced/potential), "rays_saved_pct")
	}
}

// BenchmarkSpectralSolve measures the fused K-band march on the full
// 32³ problem: four bands on a κ ladder share one DDA march per ray.
func BenchmarkSpectralSolve(b *testing.B) {
	d, _, err := NewBenchmarkDomain(32)
	if err != nil {
		b.Fatal(err)
	}
	sd := scaledBands(d, []float64{0.25, 1, 2.5, 6}, []float64{0.1, 0.2, 0.3, 0.4})
	region := d.finest().ROI
	opts := benchSolveOpts()
	b.ReportAllocs()
	start := d.Steps.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sd.SolveRegionSpectral(region, &opts); err != nil {
			b.Fatal(err)
		}
	}
	if steps := d.Steps.Load() - start; steps > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	}
}
