package exp

import (
	"fmt"
	"io"

	"pmc/internal/conform"
	"pmc/internal/litmus"
	"pmc/internal/rt"
	"pmc/internal/sweep"
)

func init() {
	register(Experiment{
		ID:    "ext-conformance",
		Title: "implementation conformance: litmus programs on every backend vs the model",
		Paper: "Section I: 'a mapping of the primitives and ordering relations to specific hardware can be designed and verified with relative ease'",
		Run:   runConformance,
	})
}

func runConformance(w io.Writer, o Options) error {
	runs := 10
	if !o.full() {
		runs = 4
	}
	progs := []string{
		"fig1-unsynchronized", "fig5-annotated", "fig5-no-acquire",
		"fig5-scoped-fence", "sb-bare", "sb-drf", "corr", "mutex-counter", "lb", "wrc-drf",
	}
	// Every (program, backend) cell is an independent deterministic check;
	// run the whole matrix on the sweep worker pool and render in order.
	reports := make([]*conform.Report, len(progs)*len(rt.Backends))
	err := sweep.Each(len(reports), o.Workers, func(i int) error {
		name := progs[i/len(rt.Backends)]
		backend := rt.Backends[i%len(rt.Backends)]
		prog, ok := litmus.ByName(name)
		if !ok {
			return fmt.Errorf("program %s missing", name)
		}
		rep, err := conform.CheckOpts(prog, backend, conform.Options{Tiles: 4, Runs: runs})
		if err != nil {
			return err
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-22s", "program \\ backend")
	for _, b := range rt.Backends {
		fmt.Fprintf(w, " %-10s", b)
	}
	fmt.Fprintln(w)
	total, bad := 0, 0
	for i, rep := range reports {
		if i%len(rt.Backends) == 0 {
			fmt.Fprintf(w, "%-22s", rep.Program)
		}
		total++
		cell := fmt.Sprintf("%d/%d ok", len(rep.Observed), len(rep.Allowed))
		if !rep.Ok() {
			cell = "VIOLATION"
			bad++
		}
		fmt.Fprintf(w, " %-10s", cell)
		if i%len(rt.Backends) == len(rt.Backends)-1 {
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\n%d program×backend pairs, %d runs each: %d violations.\n", total, runs, bad)
	fmt.Fprintln(w, "cells show observed/allowed outcome counts; observed ⊆ allowed everywhere —")
	fmt.Fprintln(w, "every backend implements the annotations within the PMC model's envelope.")
	if bad > 0 {
		return fmt.Errorf("conformance violations detected")
	}
	return nil
}
