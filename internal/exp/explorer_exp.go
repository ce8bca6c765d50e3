package exp

import (
	"fmt"
	"io"
	"time"

	"pmc/internal/litmus"
)

// This file registers the litmus-explorer engine ablation: the model
// checker is the tool behind Fig. 1, Figs. 5/6 and the SC-simulation
// claim, and its scalability is what bounds the programs the reproduction
// can verify. The ablation quantifies what canonical-state memoization and
// parallel walkers buy over plain tree enumeration, and double-checks that
// all engines agree outcome for outcome and that parallel walkers count
// exactly the memoized states.

func init() {
	register(Experiment{
		ID:    "ablation-explorer",
		Title: "litmus exploration: tree enumeration vs memoized vs parallel",
		Paper: "the model 'can be verified with relative ease' (Section I) — only if exploration scales past toy interleaving counts",
		Run:   runAblationExplorer,
	})
}

func runAblationExplorer(w io.Writer, o Options) error {
	modes := []struct {
		name    string
		workers int
		memoize bool
	}{
		{"tree", 1, false},
		{"memoized", 1, true},
		{"parallel", 0, true},
	}
	progs := []litmus.Program{litmus.StoreBufferingDRF(), litmus.WRCDRF()}
	if o.full() {
		progs = append(progs, litmus.StressIndependent())
	}
	fmt.Fprintf(w, "%-20s %-10s %12s %12s %10s\n", "program", "engine", "states", "paths", "time")
	for _, p := range progs {
		var ref, memo *litmus.Result
		for _, m := range modes {
			// Tree enumeration cannot finish the stress program: its
			// ~2e8 interleaving paths are the reason the memoizing
			// engine exists. Report that instead of burning minutes.
			if p.Name == "stress-independent" && !m.memoize {
				fmt.Fprintf(w, "%-20s %-10s %12s %12s %10s\n", p.Name, m.name, "-", "-", "exceeds budget")
				continue
			}
			x := litmus.NewExplorer(p)
			x.Workers, x.Memoize = m.workers, m.memoize
			start := time.Now()
			res, err := x.Run()
			if err != nil {
				return err
			}
			elapsed := time.Since(start).Round(10 * time.Microsecond)
			paths := 0
			for _, n := range res.Outcomes {
				paths += n
			}
			paths += res.Stuck
			fmt.Fprintf(w, "%-20s %-10s %12d %12d %10s\n", p.Name, m.name, res.States, paths, elapsed)
			if ref == nil {
				ref = res
			} else if fmt.Sprint(res.Outcomes) != fmt.Sprint(ref.Outcomes) || res.Stuck != ref.Stuck {
				return fmt.Errorf("engine %s disagrees on %s: %v (stuck %d) vs %v (stuck %d)",
					m.name, p.Name, res.Outcomes, res.Stuck, ref.Outcomes, ref.Stuck)
			}
			switch m.name {
			case "memoized":
				memo = res
			case "parallel":
				if res.States != memo.States {
					return fmt.Errorf("parallel walkers explored %d states of %s, memoized %d", res.States, p.Name, memo.States)
				}
			}
		}
	}
	fmt.Fprintln(w, "\nall engines agree outcome-for-outcome; memoization collapses states; parallel walkers share its table and count the same states")
	return nil
}
