package exp

import (
	"fmt"

	"pmc/internal/noc"
)

// This file registers the scaling-sweep experiment: the three SPLASH-2
// substitutes swept across tile counts and NoC topologies on every backend
// of the acceptance matrix — the MemPool-style manycore characterization
// the paper's fixed 32-tile evaluation stops short of.

func init() {
	register(Experiment{
		ID:    "sweep-scaling",
		Title: "scaling sweep: SPLASH substitutes × backends × tiles × topology",
		Paper: "extends Fig. 8 beyond the fixed 32-tile point: backend rankings vs system size, ring vs mesh",
		Run: declare(func(o Options) grid {
			tiles := o.scaled([]int{2, 4, 8}, []int{2, 4, 8, 16, 32, 64})
			return grid{
				apps: splashApps, backends: []string{"nocc", "swcc", "dsm", "spm"}, tiles: tiles,
				topos:    []noc.Topology{noc.TopoRing, noc.TopoMesh},
				portable: true,
				pivots: []field{
					{fmt.Sprintf("makespan speedup over the %d-tile run of the same backend/topology:", tiles[0]), 8, speedupOver(tiles[0])},
					{"NoC flit-hops (link occupancy; mesh shortens routes, dsm pays broadcasts):", 8, flitHops},
				},
				note: "speedup saturating (or regressing) with tiles shows each backend's scaling\n" +
					"bottleneck: nocc saturates the shared bus first, swcc defers it, dsm trades\n" +
					"bus pressure for NoC flit-hops, and the mesh relieves dsm at high tile counts.",
			}
		}),
	})
}
