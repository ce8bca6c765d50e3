package exp

import (
	"fmt"
	"io"

	"pmc/internal/fuzz"
	"pmc/internal/litmus"
	"pmc/internal/rt"
)

func init() {
	register(Experiment{
		ID:    "fuzz",
		Title: "differential litmus fuzzing: random annotated programs vs the model on every backend",
		Paper: "Section I: verification 'with relative ease' — made systematic: generated scenarios, reproducible seeds, fault-injection proof",
		Run:   runFuzz,
	})
}

func runFuzz(w io.Writer, o Options) error {
	n := 400
	if !o.full() {
		n = 80
	}
	const seed = 1

	// Phase 1: healthy backends. Every generated program, every backend,
	// zero violations expected.
	fmt.Fprintf(w, "-- healthy campaign: %d seeded programs per mode, backends %v --\n", n, fuzz.DefaultBackends)
	for _, mode := range []fuzz.Mode{fuzz.ModeDRF, fuzz.ModeRacy, fuzz.ModeMixed} {
		sum, err := fuzz.Run(fuzz.Config{
			Seed: seed, N: n,
			Gen:     fuzz.GenConfig{Mode: mode},
			Runs:    2,
			Workers: o.Workers,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s %4d unique, %3d dup, %2d over-budget: %d violations, %d run errors\n",
			mode.String()+":", sum.Unique, sum.Deduped, sum.SkippedBudget, len(sum.Violations), len(sum.Errors))
		if !sum.Ok() {
			fmt.Fprint(w, sum)
			return fmt.Errorf("healthy backends violated the model")
		}
	}

	// Phase 2: fault injection. Disable the swcc exit-flush (Table II's
	// release step) and show the fuzzer catching it and shrinking the
	// failure to a minimal counterexample.
	fault := rt.FaultSet{SkipExitFlush: true}
	fmt.Fprintf(w, "\n-- fault injection: swcc with %s --\n", fault)
	sum, err := fuzz.Run(fuzz.Config{
		Seed: seed, N: n,
		Gen:       fuzz.GenConfig{Mode: fuzz.ModeMixed},
		Backends:  []string{"swcc"},
		Runs:      2,
		Workers:   o.Workers,
		Shrink:    true,
		MaxShrink: 1,
		Faults:    fault,
	})
	if err != nil {
		return err
	}
	if len(sum.Violations) == 0 {
		return fmt.Errorf("fault-injected swcc produced no violations")
	}
	v := sum.Violations[0]
	fmt.Fprintf(w, "%d violations; first (program seed %d):\n%s", len(sum.Violations), v.Seed, fuzz.Render(v.Program))
	fmt.Fprintf(w, "forbidden outcome: %v\n", v.Report.Violations)
	if v.Shrunk != nil {
		fmt.Fprintf(w, "shrunk %d -> %d instructions in %d accepted steps:\n%s",
			litmus.InstrCount(v.Program), litmus.InstrCount(*v.Shrunk), v.ShrinkSteps, fuzz.Render(*v.Shrunk))
	}
	fmt.Fprintln(w, "\nthe broken protocol step is observable as a model violation, and the")
	fmt.Fprintln(w, "delta-debugged counterexample is small enough to read off the bug: the")
	fmt.Fprintln(w, "previous owner's exit_x skipped its flush, so the next lock holder reads")
	fmt.Fprintln(w, "stale SDRAM data the model says it can no longer see.")
	return nil
}
