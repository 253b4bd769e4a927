package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"github.com/uintah-repro/rmcrt/internal/grid"
	"github.com/uintah-repro/rmcrt/internal/rmcrt"
)

// The divq_rmse reference: Burns & Christon divQ over the mid-plane
// (z = N/2, every x and y) of a single-level N³ mesh, traced with
// refRays rays per cell. The plane, not just the centerline, so one
// timestep's error is pooled over N² cells and does not swing with the
// ray seed. It is checked in, so no run pays for it; regenerate it
// with --gen-reference reference.json (about a minute on two cores).
const (
	refRays = 40000
	refSeed = 20160523 // disjoint from every measured ray seed stream
)

var refSizes = []int{6, 8, 12, 16, 20, amrFineN}

//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Rays  int                  `json:"rays"`
	Seed  uint64               `json:"seed"`
	Plane map[string][]float64 `json:"midplane"`
}

var parsedReference = sync.OnceValues(func() (reference, error) {
	var r reference
	err := json.Unmarshal(referenceJSON, &r)
	return r, err
})

// loadReference returns the mid-plane of an n³ mesh.
func loadReference(n int) ([]float64, error) {
	r, err := parsedReference()
	if err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	p, ok := r.Plane[fmt.Sprint(n)]
	if !ok || len(p) != n*n {
		return nil, fmt.Errorf("reference.json has no %d³ mid-plane", n)
	}
	return p, nil
}

// midPlaneBox is the slab of cells the reference covers; its values
// are stored x-major, as field.CC lays them out.
func midPlaneBox(n int) grid.Box {
	return grid.NewBox(grid.IntVector{X: 0, Y: 0, Z: n / 2}, grid.IntVector{X: n, Y: n, Z: n/2 + 1})
}

// midPlane reads an n³ divQ field's mid-plane in reference order.
func midPlane(n int, at func(grid.IntVector) float64) []float64 {
	out := make([]float64, 0, n*n)
	midPlaneBox(n).ForEach(func(c grid.IntVector) { out = append(out, at(c)) })
	return out
}

func writeReference(path string) error {
	r := reference{Rays: refRays, Seed: refSeed, Plane: map[string][]float64{}}
	for _, n := range refSizes {
		dom, _, err := rmcrt.NewBenchmarkDomain(n)
		if err != nil {
			return err
		}
		opts := rmcrt.DefaultOptions()
		opts.NRays = refRays
		opts.Seed = refSeed
		out, err := dom.SolveRegion(midPlaneBox(n), &opts)
		if err != nil {
			return err
		}
		r.Plane[fmt.Sprint(n)] = out.Data()
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
