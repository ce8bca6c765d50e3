// Command pmclitmus exhaustively explores the outcomes of the paper's
// litmus programs under the PMC memory model.
//
// Usage:
//
//	pmclitmus -list              list cataloged programs
//	pmclitmus -prog fig5-annotated
//	pmclitmus -all               explore every program
//	pmclitmus -table1            print the ordering-rule table
//	pmclitmus -prog sb-drf -workers 8
//	pmclitmus -prog iriw-sym3 -symmetry -stats         (orbit-collapsed states)
//
// Compositional spec checking — drive a backend against its declarative
// ordering spec at fixed interface scale, whatever the deployment size:
//
//	pmclitmus -spec all
//	pmclitmus -spec swcc -fault release-without-flush   (must fail)
//
// Differential fuzzing — generate seeded random annotated programs,
// explore each under the model, execute on every backend, and shrink any
// violation to a minimal counterexample:
//
//	pmclitmus -fuzz -seed 1 -n 500 -shrink
//	pmclitmus -fuzz -seed 1 -n 500 -mode racy -fuzzbackends swcc,dsm
//	pmclitmus -fuzz -seed 1 -n 200 -shrink -fault release-without-flush
//	pmclitmus -fuzz -seed 1 -n 100 -fuzzbackends mixed -fault release-without-flush
//	pmclitmus -fuzz -seed 1 -n 60 -fuzzbackends swcc -speccheck -fault release-without-flush
//
// -fault wraps every route a run allocates on, so it composes with the
// "mixed" pseudo-backend (each placed backend is faulted too) and with
// -speccheck: the faulted backend keeps its spec, every run is recorded,
// and a stale read the recorder rejects surfaces as a run error.
//
// Every violation line prints the program seed; re-running with -seed
// <that seed> -n 1 reproduces it exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pmc"
	"pmc/internal/cli"
)

// usagef marks a bad flag value; fail prints the usage and exits 2 for
// those, 1 for runtime failures — an exploration error, a campaign that
// found violations (the shared pmc command convention).
func usagef(format string, args ...any) error { return cli.Usagef(format, args...) }

func fail(err error) { cli.Fail("pmclitmus", err) }

type engineOpts struct {
	workers   int
	symmetry  bool
	maxStates int
	stats     bool
}

func explore(p pmc.LitmusProgram, o engineOpts) error {
	x := pmc.NewLitmusExplorer(p)
	x.Workers = o.workers
	x.Symmetry = o.symmetry
	if o.maxStates > 0 {
		x.MaxStates = o.maxStates
	}
	res, err := x.Run()
	if err != nil {
		return err
	}
	fmt.Printf("%s:\n%s", p.Name, res)
	if o.stats {
		fmt.Printf("states: %d\n", res.States)
	}
	fmt.Println()
	return nil
}

func runFuzz(seed int64, n int, mode, backends, fault string, shrink, specCheck bool, runs, workers, maxStates, maxBlock int) error {
	m, err := pmc.ParseFuzzMode(mode)
	if err != nil {
		return usagef("bad -mode: %v", err)
	}
	if maxBlock < 1 {
		return usagef("bad -maxblock %d: must be at least 1 (1 = word-only programs)", maxBlock)
	}
	cfg := pmc.FuzzConfig{
		Seed:      seed,
		N:         n,
		Gen:       pmc.FuzzGenConfig{Mode: m, MaxBlockWords: maxBlock},
		Runs:      runs,
		Workers:   workers,
		Shrink:    shrink,
		SpecCheck: specCheck,
		MaxStates: maxStates,
		Progress:  os.Stderr,
	}
	if backends != "" {
		cfg.Backends = strings.Split(backends, ",")
		for _, b := range cfg.Backends {
			if b == pmc.MixedBackend {
				// Pseudo-backend: each generated program carries a
				// per-object placement and every object runs on its
				// placed backend.
				continue
			}
			if _, err := pmc.BackendByName(b); err != nil {
				return usagef(`bad -fuzzbackends entry: %v (or "mixed" for per-object placement)`, err)
			}
		}
	}
	fs, err := pmc.ParseFaultSet(fault)
	if err != nil {
		return usagef("bad -fault: %v", err)
	}
	if fs.Enabled() {
		fmt.Printf("injecting fault %q into every checked backend\n", fs)
	}
	cfg.Faults = fs
	sum, err := pmc.FuzzRun(cfg)
	if err != nil {
		return err
	}
	fmt.Print(sum)
	if !sum.Ok() {
		reads := 0
		for _, v := range sum.Violations {
			if v.Finding.Kind == "read" {
				reads++
			}
		}
		return fmt.Errorf("campaign found %d violations (%d rejected reads, %d forbidden outcomes), %d run errors, %d spec divergences",
			len(sum.Violations), reads, len(sum.Violations)-reads, len(sum.Errors), len(sum.SpecDivergences))
	}
	return nil
}

// runSpec checks backends against their declarative ordering specs at
// interface scale; with a fault injected, a passing check is the failure.
func runSpec(sel, fault string, runs int) error {
	fs, err := pmc.ParseFaultSet(fault)
	if err != nil {
		return usagef("bad -fault: %v", err)
	}
	names := []string{sel}
	if sel == "all" {
		names = pmc.BackendNames()
	}
	failed := 0
	for _, name := range names {
		s, err := pmc.SpecForBackend(name)
		if err != nil {
			return usagef(`bad -spec %q: %v (or "all")`, sel, err)
		}
		r, err := pmc.SpecCheckBackend(s, pmc.SpecCheckOptions{Runs: runs, Faults: fs})
		if err != nil {
			return err
		}
		fmt.Println(r)
		if !r.Ok() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d backends diverged from their specs", failed, len(names))
	}
	return nil
}

func main() {
	var (
		prog      = flag.String("prog", "", "program name to explore (see -list)")
		all       = flag.Bool("all", false, "explore every cataloged program")
		list      = flag.Bool("list", false, "list programs")
		table1    = flag.Bool("table1", false, "print the Table I ordering rules")
		workers   = flag.Int("workers", 0, "exploration goroutines (0 = GOMAXPROCS, 1 = sequential)")
		symmetry  = flag.Bool("symmetry", false, "collapse thread/location-symmetric states (outcomes identical)")
		maxStates = flag.Int("maxstates", 0, "state budget (0 = default)")
		stats     = flag.Bool("stats", false, "also print explored-state counts")

		doSpec = flag.String("spec", "", `check a backend against its declarative ordering spec ("all" or a backend name); composes with -fault and -runs`)

		doFuzz    = flag.Bool("fuzz", false, "run a seeded differential fuzzing campaign")
		seed      = flag.Int64("seed", 1, "fuzz: base seed (program i uses seed+i)")
		n         = flag.Int("n", 200, "fuzz: number of programs to generate")
		shrink    = flag.Bool("shrink", false, "fuzz: shrink violations to minimal counterexamples")
		mode      = flag.String("mode", "mixed", "fuzz: generation mode (drf, racy, mixed)")
		backends  = flag.String("fuzzbackends", "", "fuzz: comma-separated backends (default: nocc,swcc,dsm,spm)")
		fault     = flag.String("fault", "", "fuzz/spec: inject a protocol fault (e.g. release-without-flush) into every checked backend, mixed routes included")
		runs      = flag.Int("runs", 3, "fuzz/spec: perturbed simulator runs per program and backend")
		specCheck = flag.Bool("speccheck", false, "fuzz: record every perturbed run and attribute its trace to the backend's ordering spec")
		maxBlock  = flag.Int("maxblock", 4, "fuzz: max words of multi-word locations exercised by block reads/writes (1 = word-only)")
	)
	flag.Parse()
	// Engine budgets are validated before any exploration: a negative
	// value is a usage error (exit 2), not a silent run at the default.
	if *maxStates < 0 {
		fail(usagef("-maxstates must be non-negative, got %d", *maxStates))
	}
	if *workers < 0 {
		fail(usagef("-workers must be non-negative, got %d", *workers))
	}
	// Campaign sizes likewise: a negative -n or -runs names no run to do.
	if *n < 0 {
		fail(usagef("-n must be non-negative, got %d", *n))
	}
	if *runs < 0 {
		fail(usagef("-runs must be non-negative, got %d", *runs))
	}
	opts := engineOpts{workers: *workers, symmetry: *symmetry, maxStates: *maxStates, stats: *stats}

	switch {
	case *doSpec != "":
		if err := runSpec(*doSpec, *fault, *runs); err != nil {
			fail(err)
		}
		return
	case *doFuzz:
		if err := runFuzz(*seed, *n, *mode, *backends, *fault, *shrink, *specCheck, *runs, *workers, *maxStates, *maxBlock); err != nil {
			fail(err)
		}
		return
	case *table1:
		fmt.Print(pmc.RenderTableI())
		return
	case *list:
		fmt.Println("programs:")
		for _, p := range pmc.LitmusCatalog() {
			fmt.Printf("  %-24s %d threads\n", p.Name, len(p.Threads))
		}
		return
	case *all:
		for _, p := range pmc.LitmusCatalog() {
			if err := explore(p, opts); err != nil {
				fail(err)
			}
		}
		return
	case *prog != "":
		p, ok := pmc.LitmusByName(*prog)
		if !ok {
			fail(usagef("unknown program %q (see -list)", *prog))
		}
		if err := explore(p, opts); err != nil {
			fail(err)
		}
		return
	}
	flag.Usage()
	os.Exit(2)
}
