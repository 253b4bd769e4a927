package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/uintah-repro/rmcrt/internal/dw"
	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
	"github.com/uintah-repro/rmcrt/internal/metrics"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
	"github.com/uintah-repro/rmcrt/internal/sched"
	"github.com/uintah-repro/rmcrt/internal/simmpi"
)

// amr-timestep: the paper's 2-level Burns & Christon radiation
// timestep, run by the distributed task runtime as one caller in a
// closed loop.
const (
	amrFineN    = 32
	amrPatchN   = 8
	amrRR       = 4
	amrHalo     = 4
	amrRays     = 100
	amrRanks    = 2
	amrWorkers  = 1    // scheduler threads per rank
	amrLimit    = 10.0 // per-timestep latency limit, seconds
	amrMinSteps = 3
)

// amrGrid builds the distributed grid: fine 32³ in 8³ patches over a
// coarse 8³ radiation level in 2³ patches, SFC-distributed over the
// ranks with each coarse patch owned by the rank of the fine block
// above it.
func amrGrid() (*grid.Grid, error) {
	g, err := grid.New(mathutil.V3(0, 0, 0), mathutil.V3(1, 1, 1),
		grid.Spec{Resolution: grid.Uniform(amrFineN / amrRR), PatchSize: grid.Uniform(amrPatchN / amrRR)},
		grid.Spec{Resolution: grid.Uniform(amrFineN), PatchSize: grid.Uniform(amrPatchN)},
	)
	if err != nil {
		return nil, err
	}
	g.AssignSFC(amrRanks)
	rmcrt.AlignCoarseOwnership(g)
	return g, nil
}

// amrOptions gives timestep ts its own ray seed, drawn from the
// workload seed.
func amrOptions(seed uint64, ts int) rmcrt.Options {
	o := rmcrt.DefaultOptions()
	o.NRays = amrRays
	o.HaloCells = amrHalo
	o.Seed = newRNG(seed, streamRays+uint64(ts)).next()
	return o
}

// timestepResult is one distributed timestep's divQ, keyed by the low
// corner of each fine patch, and what the runtime reported.
type timestepResult struct {
	divQ  map[grid.IntVector]*field.CC[float64]
	stats []sched.Stats
	comm  simmpi.Stats
}

// timestep runs one distributed radiation timestep through
// sched.RunRanks. A non-nil reg receives the schedulers' own metrics.
func timestep(g *grid.Grid, opts rmcrt.Options, reg *metrics.Registry) (*timestepResult, error) {
	comm := simmpi.NewComm(amrRanks)
	scheds := make([]*sched.Scheduler, amrRanks)
	stats, err := sched.RunRanks(amrRanks, func(rank int) (*sched.Scheduler, error) {
		s := sched.NewScheduler(rank, amrWorkers, g, dw.New(1), dw.New(0), comm)
		if reg != nil {
			s.PublishMetrics(reg)
		}
		solve := &rmcrt.DistributedRadiationSolve{Grid: g, Opts: opts, Props: rmcrt.FillBenchmark}
		if err := solve.Register(s); err != nil {
			return nil, err
		}
		scheds[rank] = s
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	res := &timestepResult{divQ: map[grid.IntVector]*field.CC[float64]{}, stats: stats, comm: comm.TotalStats()}
	for _, p := range g.Levels[len(g.Levels)-1].Patches {
		v, err := scheds[p.Rank].DW.GetCC(rmcrt.LabelDivQ, p.ID)
		if err != nil {
			return nil, fmt.Errorf("patch %d on rank %d: %w", p.ID, p.Rank, err)
		}
		res.divQ[p.Cells.Lo] = v
	}
	return res, nil
}

// fineAt reads one fine cell out of a timestep's patches.
func fineAt(divQ map[grid.IntVector]*field.CC[float64]) func(grid.IntVector) float64 {
	return func(c grid.IntVector) float64 {
		lo := grid.IntVector{X: c.X / amrPatchN * amrPatchN, Y: c.Y / amrPatchN * amrPatchN, Z: c.Z / amrPatchN * amrPatchN}
		return divQ[lo].At(c)
	}
}

func runAMR(cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	ref, err := loadReference(amrFineN)
	if err != nil {
		return nil, err
	}

	// Set-up: everything before the first timestep can be issued,
	// repeated here for half the set-up share and then briefly after
	// every timestep, so setup_s samples the host's state over the
	// whole run (it drifts from second to second).
	runStart := time.Now()
	setupHalf := cfg.seconds * setupShare / 2
	setupGap := setupHalf / 30 // ~30 timesteps fit in a 60 s run
	var setups []float64
	var g *grid.Grid
	if err := repeatSetup(setupHalf, &setups, func() (err error) {
		g, err = amrGrid()
		return err
	}, nil); err != nil {
		return nil, err
	}

	var spans *spanLog
	var reg *metrics.Registry
	if cfg.trace {
		spans = newSpanLog(time.Now())
		reg = metrics.NewRegistry()
	}
	// One untimed timestep on a ray seed no measured timestep uses lets
	// the heap grow and lazy set-up finish before timing starts.
	if _, err := timestep(g, amrOptions(^cfg.seed, 0), nil); err != nil {
		return nil, fmt.Errorf("warm-up timestep: %w", err)
	}
	heap := startHeapSampler()
	// wall holds every timestep's wall time; plain and traced split it
	// for the tracing overhead.
	var plain, traced, wall []float64
	var t0s, t1s []time.Time
	var first *timestepResult
	var task = map[string][]float64{}
	var tasksRun, msgs, bytesSent, comm []float64
	var rmse []float64
	// A traced run alternates traced and untraced timesteps, so the
	// tracing overhead is measured in the same run.
	tracedStep := func(ts int) bool { return cfg.trace && ts%2 == 1 }
	for ts := 0; ts < amrMinSteps || time.Since(runStart).Seconds()+median(wall) < cfg.seconds; ts++ {
		var r *metrics.Registry
		if tracedStep(ts) {
			r = reg
		}
		t0 := time.Now()
		res, err := timestep(g, amrOptions(cfg.seed, ts), r)
		t1 := time.Now()
		o.attempted++
		if err != nil {
			o.failed++
			return nil, fmt.Errorf("timestep %d: %w", ts, err)
		}
		wall = append(wall, t1.Sub(t0).Seconds())
		if tracedStep(ts) {
			traced = append(traced, wall[ts])
		} else {
			plain = append(plain, wall[ts])
		}
		if err := repeatSetup(setupGap, &setups, func() error {
			_, err := amrGrid()
			return err
		}, nil); err != nil {
			return nil, err
		}
		t0s, t1s = append(t0s, t0), append(t1s, t1)
		if tracedStep(ts) {
			spans.add("timestep", fmt.Sprintf("ts-%d", ts), 0, t0, t1, "")
		}
		if ts == 0 {
			first = res
		}
		if len(res.stats) != amrRanks {
			o.invalidf("timestep %d ran %d ranks, want %d", ts, len(res.stats), amrRanks)
		}
		if err := positiveFinite(res.divQ); err != nil {
			o.gate = fmt.Errorf("timestep %d: %w", ts, err)
		}
		rmse = append(rmse, rmsRel(midPlane(amrFineN, fineAt(res.divQ)), ref))
		sums := map[string]float64{}
		var run, lc float64
		for _, st := range res.stats {
			run += float64(st.TasksRun)
			lc += st.LocalCommSeconds
			for name, s := range st.TaskSeconds {
				sums[taskGroup(name)] += s
			}
		}
		for k, v := range sums {
			task[k] = append(task[k], v)
		}
		tasksRun = append(tasksRun, run)
		comm = append(comm, lc)
		msgs = append(msgs, float64(res.comm.MessagesSent))
		bytesSent = append(bytesSent, float64(res.comm.BytesSent))
	}
	o.metrics["peak_heap_mb"] = heap.peakMedianMB(t0s, t1s)
	o.metrics["setup_s"] = setupMedian(cfg.log, setups)

	ok95 := 0
	for _, d := range wall {
		if d <= amrLimit {
			ok95++
		}
	}
	o.metrics["timestep_s"] = median(wall)
	o.metrics["latency_p50_s"] = median(wall)
	o.metrics["latency_p95_s"] = quantile(wall, 0.95)
	o.metrics["interactive_p95_s"] = quantile(wall, 0.95)
	o.metrics["goodput_hz"] = float64(ok95) / sum(wall)
	o.metrics["max_rate_hz"] = 1 / median(wall)
	// The first amrMinSteps timesteps always run, so the error is
	// pooled over the same rays on every host.
	o.metrics["divq_rmse"] = math.Sqrt(meanSquares(rmse[:amrMinSteps]))
	fmt.Fprintf(cfg.log, "amr-timestep: %d timesteps (2 ranks x %d worker, fine %d³/%d³ patches, rr %d, %d rays), median %.3fs wall\n  timesteps (wall, s):",
		len(wall), amrWorkers, amrFineN, amrPatchN, amrRR, amrRays, median(wall))
	for _, d := range wall {
		fmt.Fprintf(cfg.log, " %.3f", d)
	}
	fmt.Fprintln(cfg.log)

	// Correctness gate and traced single-node pass, outside all timings.
	if err := singleNodePass(cfg, o, amrOptions(cfg.seed, 0), first, spans); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return o, nil
	}
	o.metrics["sched.trace_task_s"] = median(task["trace"])
	o.metrics["sched.props_task_s"] = median(task["props"])
	o.metrics["sched.coarsen_task_s"] = median(task["coarsen"])
	o.metrics["sched.exchange_task_s"] = median(task["exchange"])
	o.metrics["sched.tasks_run"] = median(tasksRun)
	o.metrics["simmpi.messages"] = median(msgs)
	o.metrics["simmpi.bytes_computed"] = median(bytesSent)
	o.metrics["commpool.local_comm_s"] = median(comm)
	o.metrics["trace.overhead_s"] = median(traced) - median(plain)
	perRank := func(name string) float64 { return median(task[name]) / amrRanks }
	o.metrics["trace.accounted_frac"] = (o.metrics["rmcrt.solve_region_s"] + o.metrics["rmcrt.pack_s"] +
		perRank("props") + perRank("coarsen") + perRank("exchange") + median(comm)/amrRanks) / median(wall)
	if err := probeHost(cfg, o); err != nil {
		return nil, err
	}
	if err := spans.write(cfg.spans); err != nil {
		return nil, err
	}
	return o, nil
}

// taskGroup folds the runtime's task names into the per-layer groups.
func taskGroup(name string) string {
	switch {
	case strings.HasPrefix(name, "rmcrt::rayTrace"):
		return "trace"
	case name == "rmcrt::initProps":
		return "props"
	case strings.HasPrefix(name, "rmcrt::coarsen"):
		return "coarsen"
	}
	return "exchange"
}

// singleNodePass solves timestep 0 again on one node, patch by patch
// (PackDomain, then SolveRegion), and requires the distributed field
// to match it bit for bit: the runtime's determinism guarantee. With
// tracing on it also yields the kernel-layer metrics and spans.
func singleNodePass(cfg config, o *outcome, opts rmcrt.Options, dist *timestepResult, spans *spanLog) error {
	g, mk, err := rmcrt.NewMultiLevelBenchmark(amrFineN, amrPatchN, amrRR, amrHalo)
	if err != nil {
		return err
	}
	var tm *rmcrt.TraceMetrics
	var root int
	t0 := time.Now()
	if cfg.trace {
		tm = rmcrt.NewTraceMetrics(metrics.NewRegistry())
		root = spans.add("timestep", "single-node", 0, t0, t0, "")
	}
	var packS, solveS float64
	var tableBytes int64
	for _, p := range g.Levels[1].Patches {
		dom, err := mk(p)
		if err != nil {
			return err
		}
		dom.Metrics = tm
		a := time.Now()
		pd := rmcrt.PackDomain(dom, nil)
		if err := dom.AttachPacked(pd); err != nil {
			return err
		}
		b := time.Now()
		out, err := dom.SolveRegion(p.Cells, &opts)
		if err != nil {
			return err
		}
		c := time.Now()
		packS += b.Sub(a).Seconds()
		solveS += c.Sub(b).Seconds()
		tableBytes += pd.SizeBytes()
		if cfg.trace {
			job := fmt.Sprintf("single-node/p%d", p.ID)
			spans.add("pack", job, root, a, b, "")
			spans.add("solve_region", job, root, b, c, "")
		}
		want, ok := dist.divQ[p.Cells.Lo]
		if !ok {
			return fmt.Errorf("distributed timestep has no patch at %v", p.Cells.Lo)
		}
		if err := sameBits(want.Data(), out.Data()); err != nil && o.gate == nil {
			o.gate = fmt.Errorf("distributed divQ differs from single-node SolveRegion in patch at %v: %w", p.Cells.Lo, err)
		}
	}
	if !cfg.trace {
		return nil
	}
	spans.setEnd(root, time.Now())
	steps := float64(tm.Steps.Value())
	rays := float64(tm.Rays.Value())
	// The pass runs one patch at a time on one core (a patch is one
	// tile); the timestep spreads the same patches over its ranks, so
	// per timestep each rank's worker carries 1/amrRanks of the pass.
	solveS /= amrRanks
	o.metrics["rmcrt.solve_region_s"] = solveS
	o.metrics["rmcrt.pack_s"] = packS / amrRanks
	o.metrics["rmcrt.rays"] = rays
	o.metrics["rmcrt.steps"] = steps
	o.metrics["rmcrt.ns_per_step"] = tm.TileSeconds.Sum() * 1e9 / steps
	o.metrics["rmcrt.steps_per_ray"] = steps / rays
	o.metrics["rmcrt.table_bytes"] = float64(tableBytes)
	o.metrics["rmcrt.table_gbps_computed"] = tableGBps(steps, solveS)
	return nil
}

// tableGBps is the packed-table traffic the kernel's steps imply: one
// 24-byte PackedCell load per DDA step. It is computed from counts,
// not measured, and ignores cache hits.
func tableGBps(steps, seconds float64) float64 { return 24 * steps / seconds / 1e9 }

// positiveFinite checks the physics every cell must satisfy: with cold
// walls and an emitting medium, divQ is finite and positive everywhere.
func positiveFinite(divQ map[grid.IntVector]*field.CC[float64]) error {
	for lo, v := range divQ {
		for i, x := range v.Data() {
			if !(x > 0) || math.IsInf(x, 0) {
				return fmt.Errorf("patch at %v cell %d: divQ = %v, want finite and > 0", lo, i, x)
			}
		}
	}
	return nil
}

// sameBits requires got to equal want bit for bit.
func sameBits(want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return fmt.Errorf("value %d is %v (bits %#x), want %v (bits %#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// rmsRel is the RMS of the relative error of x against ref.
func rmsRel(x, ref []float64) float64 {
	s := 0.0
	for i := range x {
		e := (x[i] - ref[i]) / ref[i]
		s += e * e
	}
	return math.Sqrt(s / float64(len(x)))
}

func meanSquares(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x * x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
