package exp

import (
	"bytes"
	"fmt"
	"io"

	"pmc/internal/noc"
	"pmc/internal/soc"
	"pmc/internal/sweep"
	"pmc/internal/workloads"
)

// This file registers the open-loop service sweep: the three service
// scenarios (request/response server, sharded kvstore, streaming pipeline)
// swept over offered load × backend × cluster shape, reporting the exact
// p50/p99 latency and saturation throughput per cell. The same grid is the
// determinism artifact for the measurement layer: the emitted table must be
// byte-identical for any worker count, which pins the whole latency
// histogram, not just the makespan.

func init() {
	register(Experiment{
		ID:    "sweep-services",
		Title: "open-loop services: offered load × backend × cluster shape, exact tail latency",
		Paper: "beyond the paper's closed-loop kernels: Poisson arrivals through the same annotation API, latency as a portable metric",
		Run:   runSweepServices,
	})
}

// serviceApps are the open-loop scenarios (workloads.ServiceApp
// implementations).
var serviceApps = []string{"server", "kvstore", "stream"}

// svcShape is one platform point of the service grid: a tile count, a NoC
// topology, and the backends that make sense on it (cluster-aware backends
// need a cluster topology).
type svcShape struct {
	tiles    int
	topo     string
	backends []string
}

var svcShapes = []svcShape{
	{8, "ring", []string{"nocc", "dsm", "adaptive"}},
	{16, "cluster:4xring", []string{"dsm", "cdsm"}},
}

// makeService is the sweep app factory for service cells: scale-appropriate
// instance with the cell's offered load applied.
func makeService(o Options, load float64) func(sweep.Cell) (workloads.App, error) {
	return func(c sweep.Cell) (workloads.App, error) {
		app, ok := workloads.Scaled(c.App, !o.full())
		if !ok {
			return nil, fmt.Errorf("unknown app %q", c.App)
		}
		if !workloads.SetLoad(app, load) {
			return nil, fmt.Errorf("app %q is not a service workload", c.App)
		}
		return app, nil
	}
}

// serviceSpec builds the sweep grid for one shape at one offered load.
func serviceSpec(o Options, sh svcShape, topo noc.Topology, load float64) sweep.Spec {
	base := soc.DefaultConfig()
	return sweep.Spec{
		Apps:     serviceApps,
		Backends: sh.backends,
		Tiles:    []int{sh.tiles},
		Topos:    []noc.Topology{topo},
		Base:     &base,
		Make:     makeService(o, load),
		Workers:  o.Workers,
	}
}

func runSweepServices(w io.Writer, o Options) error {
	loads := []float64{1, 4, 32}
	if !o.full() {
		loads = []float64{2, 16}
	}
	topos := make([]noc.Topology, len(svcShapes))
	for i, sh := range svcShapes {
		t, err := noc.ParseTopology(sh.topo)
		if err != nil {
			return err
		}
		topos[i] = t
	}

	// tables[shape][load] in sweep grid order.
	tables := make([][]*sweep.Table, len(svcShapes))
	cells := 0
	for si, sh := range svcShapes {
		tables[si] = make([]*sweep.Table, len(loads))
		for li, load := range loads {
			table, err := sweep.Run(serviceSpec(o, sh, topos[si], load))
			if err != nil {
				return err
			}
			tables[si][li] = table
			cells += len(table.Rows)
		}
	}

	// Open-loop invariants across the whole grid: every cell carries
	// service metrics, completes every offered request, and — because the
	// request mixes are pure functions of the seed and every update
	// commutes — each app's checksum is invariant across backend, shape
	// AND offered load.
	wantSum := map[string]uint32{}
	for si, sh := range svcShapes {
		for li, load := range loads {
			for i := range tables[si][li].Rows {
				r := &tables[si][li].Rows[i]
				svc := r.Result.Service
				if svc == nil {
					return fmt.Errorf("sweep-services: %s/%s has no service metrics", r.App, r.Backend)
				}
				if svc.Completed != svc.Offered {
					return fmt.Errorf("sweep-services: %s/%s/%dt at load %g completed %d of %d requests",
						r.App, r.Backend, sh.tiles, load, svc.Completed, svc.Offered)
				}
				if want, ok := wantSum[r.App]; !ok {
					wantSum[r.App] = r.Checksum
				} else if r.Checksum != want {
					return fmt.Errorf("sweep-services: %s checksum %#x on %s/%dt at load %g != %#x",
						r.App, r.Checksum, r.Backend, sh.tiles, load, want)
				}
			}
		}
	}

	// Determinism of the measurement layer itself: the serialized table —
	// including the latency-derived columns — must be byte-identical when
	// the sweep runs sequentially and on a full worker pool.
	var det [2]bytes.Buffer
	for i, workers := range []int{1, 0} {
		s := serviceSpec(o, svcShapes[0], topos[0], loads[0])
		s.Workers = workers
		table, err := sweep.Run(s)
		if err != nil {
			return err
		}
		if err := table.WriteJSON(&det[i]); err != nil {
			return err
		}
	}
	if !bytes.Equal(det[0].Bytes(), det[1].Bytes()) {
		return fmt.Errorf("sweep-services: emitted table differs between 1 worker and N workers")
	}

	fmt.Fprintf(w, "%d cells: %v × loads %v req/kcycle × shapes", cells, serviceApps, loads)
	for _, sh := range svcShapes {
		fmt.Fprintf(w, " %dt/%s", sh.tiles, sh.topo)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "latency table emitted byte-identically by 1 worker and by N workers")

	for _, app := range serviceApps {
		first := tables[0][0].Rows
		var offered uint64
		for i := range first {
			if first[i].App == app {
				offered = first[i].Result.Service.Offered
				break
			}
		}
		fmt.Fprintf(w, "\n%s (%d requests, checksum %#x): p50/p99 latency [cycles] and throughput [req/kcycle]\n",
			app, offered, wantSum[app])
		fmt.Fprintf(w, "%-16s %-9s", "shape", "backend")
		for _, load := range loads {
			fmt.Fprintf(w, " %22s", fmt.Sprintf("load %g", load))
		}
		fmt.Fprintln(w)
		for si, sh := range svcShapes {
			for _, b := range sh.backends {
				fmt.Fprintf(w, "%-16s %-9s", fmt.Sprintf("%dt/%s", sh.tiles, sh.topo), b)
				for li := range loads {
					r := tables[si][li].Find(app, b, sh.tiles, topos[si])
					thr := r.Result.Service.Throughput(r.Result.Cycles)
					fmt.Fprintf(w, " %9s %6.3f", fmt.Sprintf("%d/%d", r.P50Latency, r.P99Latency), thr)
				}
				fmt.Fprintln(w)
			}
		}
	}

	fmt.Fprintln(w, "\nArrivals are scheduled outside simulated time, so offered load is held")
	fmt.Fprintln(w, "constant while the platform varies: past saturation the open-loop tail")
	fmt.Fprintln(w, "latency grows without bound while throughput flattens at the service")
	fmt.Fprintln(w, "rate — the backend column shows which consistency mechanism saturates")
	fmt.Fprintln(w, "first on the same annotated program.")
	return nil
}
