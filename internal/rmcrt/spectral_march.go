package rmcrt

import (
	"context"
	"fmt"
	"math"

	"github.com/uintah-repro/rmcrt/internal/field"
	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/mathutil"
)

// Fused multi-band spectral marching.
//
// The legacy wavelength loop (SolveRegionSpectral's per-band fallback)
// solves each band as an independent gray solve: K bands pay K full
// DDA marches per ray, re-walking identical geometry with different
// absorption coefficients. The fused path instead marches each ray
// once for all K bands: one DDA cursor advances cell/tMax/packed index
// per step, and an inner band loop accumulates per-band optical depth,
// transmittance and intensity against per-band absorption tables
// aligned to the packed layout. A band whose transmittance falls below
// the extinction threshold is frozen (it stops accumulating, exactly
// as its own gray ray would have terminated); the ray terminates when
// every band is frozen.
//
// Sampling: the fused solve draws ray origins and directions from the
// base per-cell streams — the same draws a gray solve makes — so all
// bands see identical ray geometry (correlated sampling; each band's
// estimator is unbiased, and with one band the result is bitwise
// identical to the gray solve). Scattering needs per-band trace-time
// redirection and falls back to the legacy independent-band loop.

// spectralShared is the read-only per-solve band context shared by all
// workers: emissive fractions, per-band wall intensities, and per-band
// absorption arrays indexed like each level's packed records.
type spectralShared struct {
	K     int
	w     []float64   // emissive fraction per band
	wallI []float64   // ε·w_k·WallSigmaT4/π per band
	kap   [][]float64 // kap[level][K·packed index + band]
	// fine[k] is band k's finest-level absorption field, read at
	// finalize time for the per-cell 4π κ_k factor.
	fine []*field.CC[float64]
}

// spectralShared builds the per-solve band context: each level's
// absorption array holds the K band coefficients of a cell side by
// side at K·PackedLevel.OffsetOf, so the march indexes them with the
// same flat cursor as the packed records and one step's bands share a
// cache line. Entries outside the ROI stay zero — the march only reads
// them through the in-ROI gate.
func (s *SpectralDomain) spectralShared(opts *Options) *spectralShared {
	d := s.Base
	pd := d.ensurePacked()
	K := len(s.LevelBands[0])
	sh := &spectralShared{K: K}
	sh.w = make([]float64, K)
	sh.wallI = make([]float64, K)
	for k := 0; k < K; k++ {
		w := s.LevelBands[0][k].EmissiveFraction
		sh.w[k] = w
		sh.wallI[k] = opts.WallEmissivity * (w * opts.WallSigmaT4) / math.Pi
	}
	sh.kap = make([][]float64, len(d.Levels))
	for li := range d.Levels {
		pl := pd.levels[li]
		arr := make([]float64, len(pl.recs)*K)
		for k := 0; k < K; k++ {
			f := s.LevelBands[li][k].Abskg
			d.Levels[li].ROI.ForEach(func(c grid.IntVector) {
				arr[pl.OffsetOf(c)*K+k] = f.At(c)
			})
		}
		sh.kap[li] = arr
	}
	sh.fine = make([]*field.CC[float64], K)
	for k := 0; k < K; k++ {
		sh.fine[k] = s.LevelBands[len(d.Levels)-1][k].Abskg
	}
	return sh
}

// bandRay is one worker's per-band state for the K-band march, reused
// for every ray: the optical depth, transmittance and incoming
// intensity of each band, and whether the band is extinguished; acc
// holds a cell's per-band ray sums.
type bandRay struct {
	tau, trans, sum, acc []float64
	frozen               []bool
}

func newBandRay(K int) *bandRay {
	return &bandRay{
		tau: make([]float64, K), trans: make([]float64, K), sum: make([]float64, K),
		acc: make([]float64, K), frozen: make([]bool, K),
	}
}

// reflectWeight applies a reflection's (1−ε) weighting to every live
// band, folded into the optical depth like the gray march, freezing
// bands that fall below threshold. It returns how many it froze.
func (br *bandRay) reflectWeight(eps, threshold float64) int {
	n := 0
	for b := range br.trans {
		if br.frozen[b] {
			continue
		}
		br.trans[b] *= 1 - eps
		br.tau[b] -= math.Log(1 - eps)
		if br.trans[b] < threshold {
			br.frozen[b] = true
			n++
		}
	}
	return n
}

// traceRayBands is the K-band march: traceRay's geometry — the same
// hot-loop DDA, ROI gate and rayGeom cold path — with each segment
// accumulated per live band against the band's absorption and
// emissive fraction, and the wall and opaque pickups taken per band.
// The per-band sums are left in br.sum. It has no scattering event:
// scattering spectral solves take the independent-band fallback.
func (d *Domain) traceRayBands(origin, dir mathutil.Vec3, sh *spectralShared, br *bandRay, tc *traceCtx, cnt *traceCounters) {
	cnt.rays++
	K := sh.K
	w := sh.w[:K]
	tau, trans, sum, frozen := br.tau[:K], br.trans[:K], br.sum[:K], br.frozen[:K]
	for b := range tau {
		tau[b], trans[b], sum[b], frozen[b] = 0, 1, 0, false
	}
	alive := K
	var g rayGeom
	g.start(d, origin, dir)
	threshold := tc.threshold
	left := tc.maxSteps
	reflections := 0

	for {
		recs := g.pd.levels[g.li].recs
		kap := sh.kap[g.li]
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

			k := kap[idx*K : idx*K+K]
			for b := range k {
				if frozen[b] {
					continue
				}
				tauNew := tau[b] + k[b]*ds
				transNew := math.Exp(-tauNew)
				sum[b] += (w[b] * rec.SigmaT4OverPi) * (trans[b] - transNew)
				tau[b], trans[b] = tauNew, transNew
				if transNew < threshold {
					frozen[b] = true
					alive--
				}
			}
			if alive == 0 {
				break // every band extinguished
			}

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
				ev = evOut
			}
			break
		}
		if ev == evDone {
			break
		}
		g.cc, g.tm, g.idx, g.tcur = cc, tm, idx, tcur

		dropped := false
		if ev == evOut {
			if g.li == 0 {
				// Enclosure wall: per-band ε·w·σT⁴_wall/π pickup.
				for b := range sum {
					if !frozen[b] {
						sum[b] += sh.wallI[b] * trans[b]
					}
				}
				if !tc.reflects(reflections) {
					break
				}
				if alive -= br.reflectWeight(tc.wallEmissivity, threshold); alive == 0 {
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

		for b := range sum {
			if !frozen[b] {
				sum[b] += tc.wallEmissivity * (w[b] * rec.SigmaT4OverPi) * trans[b]
			}
		}
		if !tc.reflects(reflections) {
			break
		}
		if alive -= br.reflectWeight(tc.wallEmissivity, threshold); alive == 0 {
			break
		}
		reflections++
		g.reflect(ax, dropped)
	}
	cnt.steps += int64(tc.maxSteps - left)
}

// solveCellBands is the K-band per-cell ray loop: opts.NRays rays drawn
// exactly as the gray solveCell draws them, each band's sums reduced in
// ray order into the band terms of
//
//	divQ = Σ_k 4π κ_k ( w_k σT⁴/π − mean sumI_k ).
//
// poll is checked once per cell.
func (d *Domain) solveCellBands(c grid.IntVector, sh *spectralShared, br *bandRay, tc *traceCtx, cnt *traceCounters, poll func() bool) (float64, bool) {
	if !poll() {
		return 0, false
	}
	ld := d.finest()
	acc := br.acc
	rng := &tc.rng
	smp := tc.beginCell(ld.Level, c)
	nRays := tc.opts.NRays
	for b := range acc {
		acc[b] = 0
	}
	for r := 0; r < nRays; r++ {
		origin, dir := smp.ray(r, rng)
		d.traceRayBands(origin, dir, sh, br, tc, cnt)
		for b := range acc {
			acc[b] += br.sum[b]
		}
	}
	sigma := ld.SigmaT4OverPi.At(c)
	var dq float64
	for b := range acc {
		meanI := acc[b] / float64(nRays)
		kappa := sh.fine[b].At(c)
		term := 4 * math.Pi * kappa * (sh.w[b]*sigma - meanI)
		if b == 0 {
			dq = term
		} else {
			dq += term
		}
	}
	return dq, true
}

// SolveRegionSpectralCtx is the ctx-aware K-band spectral solve. The
// default path marches all bands at once over shared ray geometry (one
// DDA march per ray regardless of K); with scattering enabled it falls
// back to the legacy independent-band loop, which supports trace-time
// redirection. Adaptive ray budgets are not supported with spectral
// solves. Cancellation follows the SolveRegionCtx contract: prompt
// stop, guaranteed non-nil error, partial counters merged.
func (s *SpectralDomain) SolveRegionSpectralCtx(ctx context.Context, region grid.Box, opts *Options) (*field.CC[float64], error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.adaptiveEnabled() {
		return nil, errOpt("adaptive ray budgets are not supported with spectral solves")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.ScatterCoeff > 0 {
		return s.solveSpectralBands(ctx, region, opts)
	}
	d := s.Base
	ld := d.finest()
	if ld.ROI.Intersect(region) != region {
		return nil, fmt.Errorf("rmcrt: region %v outside finest ROI %v", region, ld.ROI)
	}
	sh := s.spectralShared(opts)
	out := field.NewCC[float64](region)
	var stats solveStats
	if err := d.runTiles(ctx, region, opts, sh, out, &stats); err != nil {
		return nil, err
	}
	return out, nil
}
