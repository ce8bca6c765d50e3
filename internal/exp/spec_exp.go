package exp

import (
	"fmt"
	"io"

	"pmc/internal/litmus"
	"pmc/internal/rt"
	"pmc/internal/spec"
	"pmc/internal/sweep"
)

func init() {
	register(Experiment{
		ID:    "spec-ablation",
		Title: "compositional spec checking vs exhaustive conformance, and symmetry reduction",
		Paper: "Section I: backend mappings 'designed and verified with relative ease' — per-interface specs keep that cost flat as the platform grows",
		Run:   runSpecAblation,
	})
}

func runSpecAblation(w io.Writer, o Options) error {
	backends := rt.Backends
	runs := 8
	if !o.full() {
		backends = []string{"nocc", "swcc", "cdsm"}
		runs = 2
	}

	// 1. Compositional cost is a function of the interface, not the
	// platform: check every backend against its spec while "deploying" at
	// 32 and at 1024 tiles, and compare the measured work.
	fmt.Fprintln(w, "-- compositional backend-vs-spec checks (platform 32 vs 1024 tiles) --")
	type pair struct{ small, large *spec.Result }
	results := make([]pair, len(backends))
	err := sweep.Each(len(backends), o.Workers, func(i int) error {
		s, err := spec.ForBackend(backends[i])
		if err != nil {
			return err
		}
		if results[i].small, err = spec.CheckBackend(s, spec.Platform{Tiles: 32}, spec.CheckOptions{Runs: runs}); err != nil {
			return err
		}
		results[i].large, err = spec.CheckBackend(s, spec.Platform{Tiles: 1024}, spec.CheckOptions{Runs: runs})
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-9s %-9s %-12s %-9s %-8s %s\n",
		"backend", "programs", "simruns", "modelstates", "simtiles", "ok", "work@32==work@1024")
	bad := 0
	for i, name := range backends {
		r32, r1024 := results[i].small, results[i].large
		same := r32.Work == r1024.Work
		ok := r32.Ok() && r1024.Ok()
		if !same || !ok {
			bad++
		}
		fmt.Fprintf(w, "%-10s %-9d %-9d %-12d %-9d %-8v %v\n",
			name, r32.Work.Programs, r32.Work.SimRuns, r32.Work.ModelStates, r32.Work.SimTiles, ok, same)
	}
	w32 := results[0].small.Work
	fmt.Fprintf(w, "exhaustive whole-platform checking simulates %d and %d tiles per run;\n", 32, 1024)
	fmt.Fprintf(w, "the compositional check simulates %d either way — per-check cost independent of deployment size.\n\n", w32.SimTiles)

	// 2. Symmetry ablation: canonical state counts with the reduction off
	// and on, for the iriw-class programs whose interchangeable readers
	// it collapses.
	fmt.Fprintln(w, "-- symmetry-reduced exploration (states off/on) --")
	fmt.Fprintf(w, "%-12s %-10s %-10s %s\n", "program", "plain", "symmetry", "factor")
	for _, p := range []litmus.Program{litmus.IRIWSym3(), litmus.IRIW(), litmus.IRIW3()} {
		measure := func(sym bool) (int, error) {
			x := litmus.NewExplorer(p)
			x.Workers = o.Workers
			x.Symmetry = sym
			r, err := x.Run()
			if err != nil {
				return 0, err
			}
			return r.States, nil
		}
		plain, err := measure(false)
		if err != nil {
			return err
		}
		sym, err := measure(true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %-10d %-10d %.2fx\n", p.Name, plain, sym, float64(plain)/float64(sym))
	}
	fmt.Fprintln(w)

	// 3. Detection: a backend with one protocol step disabled — the fault
	// its spec names — must fail its own spec check.
	s, err := spec.ForBackend("swcc")
	if err != nil {
		return err
	}
	fs, ok := spec.FaultFor(spec.StepExitWriteback)
	if !ok {
		return fmt.Errorf("no fault mapped for %s", spec.StepExitWriteback)
	}
	faulted, err := spec.CheckBackend(s, spec.Platform{Tiles: 32}, spec.CheckOptions{Runs: runs, Faults: fs})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fault detection: swcc with %s disabled -> %d divergences (first: %s)\n",
		spec.StepExitWriteback, len(faulted.Divergences), firstDivergence(faulted))
	if faulted.Ok() {
		return fmt.Errorf("spec-ablation: injected fault not detected")
	}
	if bad > 0 {
		return fmt.Errorf("spec-ablation: %d backends failed or scaled with platform size", bad)
	}
	return nil
}

func firstDivergence(r *spec.Result) string {
	if len(r.Divergences) == 0 {
		return "none"
	}
	return r.Divergences[0].String()
}
