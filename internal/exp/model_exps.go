package exp

import (
	"fmt"
	"io"

	"pmc/internal/core"
	"pmc/internal/litmus"
)

// This file registers the model-level artifacts: Table I, the dependency
// graphs of Figs. 2-5, and the litmus results for Figs. 1 and 6.

func init() {
	register(Experiment{
		ID:    "table1",
		Title: "ordering rules between existing and new operations",
		Paper: "17 populated cells; acquire takes ≺S from releases of any process",
		Run: func(w io.Writer, o Options) error {
			fmt.Fprint(w, core.RenderTableI())
			return nil
		},
	})
	register(Experiment{
		ID:    "fig1",
		Title: "SC-correct program breaks without synchronization on X",
		Paper: "process 2 can read the old value of X even after seeing flag=1; fences/volatile do not help",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "program order of two writes",
		Paper: "init ≺P X=1 ≺P X=2 (transitively reduced)",
		Run: func(w io.Writer, o Options) error {
			e := core.NewExecution()
			x := e.AddLoc("X")
			e.Exec(core.KWrite, 0, x, 1, "line 1: X=1")
			e.Exec(core.KWrite, 0, x, 2, "line 2: X=2")
			return printGraph(w, e, "fig2")
		},
	})
	register(Experiment{
		ID:    "fig3",
		Title: "local order of a read",
		Paper: "X=1 ≺l read ≺l X=2; the read can only return 1",
		Run: func(w io.Writer, o Options) error {
			e := core.NewExecution()
			x := e.AddLoc("X")
			e.Exec(core.KWrite, 0, x, 1, "line 1: X=1")
			rd := e.Exec(core.KRead, 0, x, 1, "line 2: X?")
			fmt.Fprintf(w, "readable at the read: %v\n\n", e.ReadableValues(rd.ID))
			e.Exec(core.KWrite, 0, x, 2, "line 3: X=2")
			return printGraph(w, e, "fig3")
		},
	})
	register(Experiment{
		ID:    "fig4",
		Title: "exclusive access with two processes",
		Paper: "every observer agrees on the interleaving; process 1 reads 2",
		Run: func(w io.Writer, o Options) error {
			e := core.NewExecution()
			x := e.AddLoc("X")
			e.Exec(core.KAcquire, 2, x, 0, "line 4: acq X")
			e.Exec(core.KWrite, 2, x, 1, "line 5: X=1")
			e.Exec(core.KWrite, 2, x, 2, "line 6: X=2")
			e.Exec(core.KRelease, 2, x, 0, "line 7: rel X")
			e.Exec(core.KAcquire, 1, x, 0, "line 1: acq X")
			rd := e.Exec(core.KRead, 1, x, 2, "line 2: X?")
			e.Exec(core.KRelease, 1, x, 0, "line 3: rel X")
			fmt.Fprintf(w, "readable at process 1's read: %v\n\n", e.ReadableValues(rd.ID))
			return printGraph(w, e, "fig4")
		},
	})
	register(Experiment{
		ID:    "fig5",
		Title: "multi-core communication example (dependency graph)",
		Paper: "the chain X=42 ≺P rel X ≺S acq X guarantees process 2 reads 42",
		Run: func(w io.Writer, o Options) error {
			e := core.NewExecution()
			x := e.AddLoc("X")
			f := e.AddLoc("f")
			e.Exec(core.KAcquire, 1, x, 0, "line 1: acq X")
			e.Exec(core.KWrite, 1, x, 42, "line 2: X=42")
			e.Exec(core.KFence, 1, core.NoLoc, 0, "line 3: fence")
			e.Exec(core.KRelease, 1, x, 0, "line 4: rel X")
			e.Exec(core.KAcquire, 1, f, 0, "line 6: acq f")
			e.Exec(core.KWrite, 1, f, 1, "line 7: f=1")
			e.Exec(core.KRelease, 1, f, 0, "line 8: rel f")
			e.Exec(core.KRead, 2, f, 1, "line 9: f?")
			e.Exec(core.KFence, 2, core.NoLoc, 0, "line 11: fence")
			e.Exec(core.KAcquire, 2, x, 0, "line 13: acq X")
			rd := e.Exec(core.KRead, 2, x, 42, "line 14: X?")
			e.Exec(core.KRelease, 2, x, 0, "line 15: rel X")
			fmt.Fprintf(w, "readable at process 2's read of X: %v\n\n", e.ReadableValues(rd.ID))
			return printGraph(w, e, "fig5")
		},
	})
	register(Experiment{
		ID:    "fig6",
		Title: "annotated program: exhaustive outcomes",
		Paper: "with entry/exit, fence and flush in place the only outcome is rX=42",
		Run:   runFig6,
	})
}

func printGraph(w io.Writer, e *core.Execution, name string) error {
	fmt.Fprintln(w, "transitively reduced orderings:")
	for _, ed := range e.ReducedEdges() {
		from, to := e.Op(ed.From), e.Op(ed.To)
		fl, tl := from.Label, to.Label
		if fl == "" {
			fl = from.String()
		}
		if tl == "" {
			tl = to.String()
		}
		fmt.Fprintf(w, "  %-16s %s  %s\n", fl, ed.Ord, tl)
	}
	fmt.Fprintln(w, "\nDOT:")
	fmt.Fprint(w, e.DOT(name))
	return nil
}

func runFig1(w io.Writer, o Options) error {
	for _, prog := range []litmus.Program{litmus.Fig1Unsynchronized(), litmus.Fig1Volatile()} {
		res, err := litmus.Explore(prog)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s outcomes:\n%s", prog.Name, res)
		if res.HasOutcome("rX=0") {
			fmt.Fprintf(w, "  -> stale outcome observable: the program is broken, as the paper argues\n")
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runFig6(w io.Writer, o Options) error {
	for _, prog := range []litmus.Program{litmus.Fig5Annotated(), litmus.Fig5NoAcquire()} {
		res, err := litmus.Explore(prog)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s outcomes (%d states explored):\n%s\n", prog.Name, res.States, res)
	}
	fmt.Fprintln(w, "portability check: the annotated program on every backend of Table II:")
	return msgPassGrid(o).run(w, o)
}
