package exp

import (
	"fmt"
	"io"

	"pmc/internal/noc"
	"pmc/internal/sweep"
)

// This file registers the cluster-scaling experiment: the hierarchical
// (clustered) platform swept to 1024 tiles, comparing the flat backends
// against their cluster-aware variants. The paper's evaluation stops at 32
// tiles on a flat NoC; this measures what the same annotated program does
// when the platform grows two orders of magnitude and gains a cluster
// level.

func init() {
	register(Experiment{
		ID:    "sweep-clusters",
		Title: "cluster scaling: hierarchical platform to 1024 tiles, flat vs cluster-aware backends",
		Paper: "extends the 32-tile flat evaluation: cluster topologies, per-cluster memory, dsm/spm vs cdsm/cspm",
		Run: declare(func(o Options) grid {
			tiles := o.scaled([]int{64, 256}, []int{64, 256, 1024})
			g := grid{
				// Each flat backend next to its cluster-aware variant.
				apps: []string{"radiosity"}, backends: []string{"nocc", "dsm", "cdsm", "cspm"}, tiles: tiles,
				topos:    []noc.Topology{noc.ClusterTopo(8, noc.KindRing), noc.ClusterTopo(16, noc.KindMesh)},
				portable: true,
				pivots: []field{
					{fmt.Sprintf("makespan speedup over the %d-tile run of the same backend/shape:", tiles[0]), 8, speedupOver(tiles[0])},
					{"NoC flit-hops, split local crossbar / global backbone (cluster-aware\n" +
						"backends keep coherence traffic off the backbone):", 19, hopSplit},
				},
				note: "cdsm turns dsm's per-tile replica broadcasts into per-cluster ones (the fan\n" +
					"degree drops from tiles to clusters) and cspm stages scopes in the shared\n" +
					"cluster scratch; the local/global split shows how much coherence traffic the\n" +
					"hierarchy keeps off the backbone as the tile count grows.",
			}
			if !o.full() {
				// At small scale the grid stops at 256 tiles to stay
				// CI-sized, so run the kilotile system as a dedicated cell
				// pair (cluster-aware backends only — a flat dsm flush at
				// 1024 tiles fans to 1023 replicas) held to the same
				// portability bar.
				g.check = func(w io.Writer, _ *sweep.Table) error {
					fmt.Fprintln(w, "\n1024-tile smoke (cluster:32xmesh):")
					return grid{
						apps: g.apps, backends: []string{"cdsm", "cspm"}, tiles: []int{1024},
						topos: []noc.Topology{noc.ClusterTopo(32, noc.KindMesh)}, portable: true,
						cols: []field{backendCol, cyclesCol,
							{"local/global hops", 19, hopSplit}, checksumCol},
					}.run(w, o)
				}
			}
			return g
		}),
	})
}
