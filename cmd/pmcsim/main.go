// Command pmcsim reproduces the paper's tables and figures on the
// simulated many-core SoC, and runs parallel batch sweeps over the
// experiment grid.
//
// Usage:
//
//	pmcsim -list                 list all experiments
//	pmcsim -exp fig8             run one experiment (paper scale)
//	pmcsim -exp fig8 -scale small -tiles 8
//	pmcsim -all                  run every experiment in order
//	pmcsim -sweep radiosity,raytrace,volrend -tilelist 2,4,8,16,32,64 \
//	       -backends nocc,swcc,dsm,spm -topo both -json results.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pmc"
	"pmc/internal/cli"
)

// usagef marks a bad flag value; fail prints the usage and exits 2 for
// those, 1 for runtime failures (the shared pmc command convention).
func usagef(format string, args ...any) error { return cli.Usagef(format, args...) }

func fail(err error) { cli.Fail("pmcsim", err) }

func main() {
	var (
		expID    = flag.String("exp", "", "experiment ID to run (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiments")
		tiles    = flag.Int("tiles", 0, "override tile count (0 = experiment default)")
		scale    = flag.String("scale", "full", `scale: "full" (paper) or "small" (quick)`)
		runApp   = flag.String("run", "", "run one workload (see -list) instead of an experiment")
		backend  = flag.String("backend", "swcc", "backend for -run: "+strings.Join(pmc.BackendNames(), ", "))
		place    = flag.String("place", "", `with -run: per-object placement "obj=backend,..." (trailing-* globs match name prefixes; unmatched objects use -backend)`)
		load     = flag.Float64("load", 0, "with -run: offered load in requests per kilocycle for the open-loop service workloads (0 = workload default)")
		traceOut = flag.String("trace", "", "with -run: write a Chrome-trace JSON of the run to this file")
		counters = flag.Bool("counters", false, "with -run: print the event kernel's work counters after the run")

		sweepApps = flag.String("sweep", "", `comma-separated workloads to sweep ("splash" = radiosity,raytrace,volrend; "all" = every workload)`)
		backends  = flag.String("backends", "nocc,swcc,dsm,spm", "with -sweep: comma-separated backend axis")
		tileList  = flag.String("tilelist", "2,4,8,16,32", "with -sweep: comma-separated tile-count axis")
		topo      = flag.String("topo", "ring", `with -run or -sweep: NoC topology: "ring", "mesh", "cluster:<local>x<global>", or (sweeps only) "both"`)
		parallel  = flag.Int("parallel", 0, "max concurrent simulations in sweeps and experiments (0 = GOMAXPROCS, 1 = sequential)")
		jsonOut   = flag.String("json", "", `with -sweep: write the JSON result table to this file ("-" = stdout)`)
		csvOut    = flag.String("csv", "", `with -sweep: write the CSV result table to this file ("-" = stdout)`)
	)
	flag.Parse()

	// Platform-shape flags are validated here, before any simulation
	// spins up: a bad value is a usage error (exit 2), not a run failure.
	if *tiles < 0 {
		fail(usagef("-tiles must be non-negative, got %d", *tiles))
	}
	placement, err := parsePlacement(*place)
	if err != nil {
		fail(err)
	}

	switch {
	case *list:
		fmt.Println("experiments:")
		for _, e := range pmc.Experiments() {
			fmt.Printf("  %-22s %s\n", e.ID, e.Title)
		}
		fmt.Println("workloads (-run):")
		for _, n := range pmc.AppNames() {
			fmt.Printf("  %s\n", n)
		}
		return
	case *sweepApps != "":
		if err := runSweep(*sweepApps, *backends, *tileList, *topo, *scale, *parallel, *jsonOut, *csvOut); err != nil {
			fail(err)
		}
		return
	case *runApp != "":
		if err := runWorkload(*runApp, *backend, *tiles, *topo, *load, *traceOut, *counters, placement); err != nil {
			fail(err)
		}
		return
	case *all:
		if err := checkScale(*scale); err != nil {
			fail(err)
		}
		opts := pmc.ExpOptions{Tiles: *tiles, Scale: *scale, Workers: *parallel}
		if err := pmc.RunAllExperiments(os.Stdout, opts); err != nil {
			fail(err)
		}
		return
	case *expID != "":
		if err := checkScale(*scale); err != nil {
			fail(err)
		}
		if !knownExperiment(*expID) {
			fail(usagef("unknown experiment %q (see -list)", *expID))
		}
		opts := pmc.ExpOptions{Tiles: *tiles, Scale: *scale, Workers: *parallel}
		if err := pmc.RunExperiment(os.Stdout, *expID, opts); err != nil {
			fail(err)
		}
		return
	}
	flag.Usage()
	os.Exit(2)
}

// checkScale validates the -scale flag value.
func checkScale(scale string) error {
	switch scale {
	case "", "small", "full":
		return nil
	}
	return usagef(`unknown -scale %q (valid: small, full)`, scale)
}

// knownExperiment reports whether id names a registered experiment.
func knownExperiment(id string) bool {
	for _, e := range pmc.Experiments() {
		if e.ID == id {
			return true
		}
	}
	return false
}

// runSweep expands the flag grid into a SweepSpec, runs it, and emits the
// requested tables.
func runSweep(apps, backends, tileList, topo, scale string, parallel int, jsonOut, csvOut string) error {
	if err := checkScale(scale); err != nil {
		return err
	}
	small := scale == "small"

	switch apps {
	case "splash":
		apps = "radiosity,raytrace,volrend"
	case "all":
		apps = strings.Join(pmc.AppNames(), ",")
	}
	for _, a := range splitList(apps) {
		if _, ok := pmc.AppByName(a); !ok {
			return usagef("bad -sweep entry %q (have %s)", a, strings.Join(pmc.AppNames(), ", "))
		}
	}
	for _, b := range splitList(backends) {
		if _, err := pmc.BackendByName(b); err != nil {
			return usagef("bad -backends entry: %v", err)
		}
	}
	spec := pmc.SweepSpec{
		Apps:     splitList(apps),
		Backends: splitList(backends),
		Workers:  parallel,
		Make: func(c pmc.SweepCell) (pmc.App, error) {
			app, ok := pmc.ScaledApp(c.App, small)
			if !ok {
				return nil, fmt.Errorf("unknown app %q (have %s)", c.App, strings.Join(pmc.AppNames(), ", "))
			}
			return app, nil
		},
	}
	for _, s := range strings.Split(tileList, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return usagef("bad -tilelist entry %q: %v", s, err)
		}
		spec.Tiles = append(spec.Tiles, t)
	}
	switch topo {
	case "both":
		spec.Topos = []pmc.NoCTopology{pmc.TopoRing, pmc.TopoMesh}
	default:
		tp, err := pmc.ParseTopology(topo)
		if err != nil {
			return usagef(`bad -topo %q (valid: ring, mesh, cluster:<local>x<global>, both)`, topo)
		}
		spec.Topos = []pmc.NoCTopology{tp}
	}

	// A failed cell does not void the batch: Sweep still returns every
	// completed row (failures carry a per-row err), so emit what ran and
	// report the failure afterwards.
	table, err := pmc.Sweep(spec)
	if table == nil {
		return err
	}
	// err (the first failed cell) is returned after emission so the exit
	// code still reports the failure.
	if jsonOut != "" {
		if err := emit(jsonOut, table.WriteJSON); err != nil {
			return err
		}
	}
	if csvOut != "" {
		if err := emit(csvOut, table.WriteCSV); err != nil {
			return err
		}
	}
	if jsonOut != "-" && csvOut != "-" {
		fmt.Printf("%-12s %-10s %6s %6s %12s %12s %10s\n",
			"app", "backend", "tiles", "topo", "cycles", "flit-hops", "checksum")
		for _, r := range table.Rows {
			if r.Err != "" {
				fmt.Printf("%-12s %-10s %6d %6s FAILED: %s\n",
					r.App, r.Backend, r.Tiles, r.Topology, r.Err)
				continue
			}
			fmt.Printf("%-12s %-10s %6d %6s %12d %12d %#10x\n",
				r.App, r.Backend, r.Tiles, r.Topology, r.Cycles, r.FlitHops, r.Checksum)
		}
	}
	return err
}

// splitList splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

// emit writes one table encoding to path ("-" = stdout).
func emit(path string, write func(w io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parsePlacement parses the -place flag ("obj=backend,obj2=backend2") and
// validates every backend name at flag-parse time: a typo is a usage error
// (exit 2) before any simulation spins up.
func parsePlacement(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	place := make(map[string]string)
	for _, ent := range strings.Split(s, ",") {
		obj, backend, ok := strings.Cut(ent, "=")
		if !ok || obj == "" || backend == "" {
			return nil, usagef(`bad -place entry %q (want "object=backend")`, ent)
		}
		if _, err := pmc.BackendByName(backend); err != nil {
			return nil, usagef("bad -place entry %q: %v", ent, err)
		}
		if prev, dup := place[obj]; dup {
			return nil, usagef("duplicate -place entry for %q (%s and %s)", obj, prev, backend)
		}
		place[obj] = backend
	}
	return place, nil
}

// runWorkload executes one workload, optionally exporting a Chrome trace
// and printing the kernel counters.
func runWorkload(name, backend string, tiles int, topo string, load float64, traceOut string, counters bool, place map[string]string) error {
	app, ok := pmc.AppByName(name)
	if !ok {
		return usagef("unknown workload %q (have %s)", name, strings.Join(pmc.AppNames(), ", "))
	}
	if _, err := pmc.BackendByName(backend); err != nil {
		return usagef("bad -backend: %v", err)
	}
	if load != 0 {
		if load < 0 {
			return usagef("-load must be positive, got %g", load)
		}
		if !pmc.SetOfferedLoad(app, load) {
			return usagef("-load only applies to the open-loop service workloads, not %q", name)
		}
	}
	if place != nil && traceOut != "" {
		return usagef("-place and -trace cannot be combined")
	}
	cfg := pmc.DefaultConfig()
	if tiles > 0 {
		cfg.Tiles = tiles
	}
	tp, err := pmc.ParseTopology(topo)
	if err != nil {
		return usagef(`bad -topo %q (valid with -run: ring, mesh, cluster:<local>x<global>)`, topo)
	}
	cfg.NoC.Topology = tp
	var res *pmc.Result
	if traceOut != "" {
		var tr *pmc.Trace
		res, tr, err = pmc.RunAppTraced(app, cfg, backend)
		if err != nil {
			return err
		}
		f, ferr := os.Create(traceOut)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		if werr := tr.WriteChrome(f); werr != nil {
			return werr
		}
		fmt.Printf("trace: %d events, %d dropped -> %s (open in ui.perfetto.dev)\n", tr.Len(), tr.Dropped, traceOut)
		if tr.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "pmcsim: warning: the trace ring was full; %d events were dropped\n", tr.Dropped)
		}
	} else if place != nil {
		res, err = pmc.RunAppPlaced(app, cfg, backend, place)
		if err != nil {
			return err
		}
	} else {
		res, err = pmc.RunApp(app, cfg, backend)
		if err != nil {
			return err
		}
	}
	fmt.Printf("%s on %s, %d tiles: %d cycles, checksum %#x, utilization %.1f%%\n",
		res.App, res.Backend, res.Tiles, res.Cycles, res.Checksum, 100*res.Utilization())
	if res.Service != nil {
		fmt.Print("service: ")
		res.Service.Render(os.Stdout, res.Cycles)
	}
	if counters {
		c := res.Kernel
		fmt.Printf("kernel: %d events, %d resumes, %d fast waits, %d chain steps\n",
			c.Events, c.Resumes, c.FastWaits, c.ChainSteps)
	}
	return nil
}
