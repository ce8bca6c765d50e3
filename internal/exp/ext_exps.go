package exp

import (
	"fmt"
	"io"

	"pmc/internal/core"
	"pmc/internal/litmus"
	"pmc/internal/noc"
	"pmc/internal/rt"
	"pmc/internal/workloads"
)

// This file registers the extension experiments: features the paper
// mentions but does not evaluate (location-scoped fences, PC emulation by
// fencing everything, bulk-synchronous halo exchange).

func init() {
	register(Experiment{
		ID:    "ext-stencil",
		Title: "bulk-synchronous halo exchange with a PMC-annotated barrier",
		Paper: "streaming/dataflow context of refs [20, 21]; barrier built from annotations only",
		Run: declare(func(o Options) grid {
			return grid{
				apps: []string{"stencil"}, backends: rt.Backends, tiles: []int{o.tiles(8)},
				portable: true,
				cols:     []field{backendCol, cyclesCol, checksumCol, nocMsgsCol},
				note: "the barrier is ordinary annotated code (entry_x counter, flushed sense word,\n" +
					"entry_ro polling), so the same bulk-synchronous program runs on all backends\n" +
					"with identical results; on dsm the barrier polls stay in tile-local memory.",
			}
		}),
	})
	register(Experiment{
		ID:    "ext-pc",
		Title: "orderings under minimal annotations vs fence-after-every-operation (PC emulation)",
		Paper: "Section IV-E: adding a fence between every operation makes PMC equivalent to Processor Consistency, which 'overly constrains the possible orderings'",
		Run:   runExtPC,
	})
	register(Experiment{
		ID:    "ext-mesh",
		Title: "NoC topology: bidirectional ring vs 2-D mesh",
		Paper: "ref [16] evaluates the connectionless NoC; topology is a free parameter of the PMC approach",
		Run: declare(func(o Options) grid {
			tiles := o.tiles(32)
			fifo := workloads.DefaultMFifo()
			roles := min(3, tiles/2)
			fifo.Readers, fifo.Writers = roles, roles
			fifo.Items = 24
			if o.full() {
				fifo.Items = 128
			}
			return grid{
				apps: []string{"mfifo"}, backends: []string{"dsm"}, tiles: []int{tiles},
				topos: []noc.Topology{noc.TopoRing, noc.TopoMesh},
				make:  clone(fifo),
				cols: []field{
					{"topology", 8, func(c cell) string { return c.Topology }},
					cyclesCol, nocMsgsCol,
					{"flit-hops", 12, func(c cell) string { return fmt.Sprint(c.FlitHops) }}},
				note: "the mesh halves the worst-case hop count at 32 tiles, which shortens DSM\n" +
					"flush broadcasts and lock handoffs; the PMC annotations are untouched.",
			}
		}),
	})
	register(Experiment{
		ID:    "ext-scoped-fence",
		Title: "location-scoped fences",
		Paper: "Section IV-D: 'one could offer more complex fences on specific locations for optimization purposes'",
		Run:   runExtScopedFence,
	})
}

// runExtPC counts the globally agreed orderings (≺G pairs) the model
// derives for the message-passing program under (a) the paper's minimal
// annotations and (b) a fence inserted between every pair of operations —
// the PC-emulation mode of Section IV-E.
func runExtPC(w io.Writer, o Options) error {
	build := func(fenceEverything bool) *core.Execution {
		e := core.NewExecution()
		x := e.AddLoc("X")
		f := e.AddLoc("f")
		emit := func(p core.ProcID, k core.Kind, v core.Loc, val core.Value) {
			e.Exec(k, p, v, val, "")
			if fenceEverything {
				e.Fence(p)
			}
		}
		// Process 1.
		emit(1, core.KAcquire, x, 0)
		emit(1, core.KWrite, x, 42)
		if !fenceEverything {
			e.Fence(1)
		}
		emit(1, core.KRelease, x, 0)
		emit(1, core.KAcquire, f, 0)
		emit(1, core.KWrite, f, 1)
		emit(1, core.KRelease, f, 0)
		// Process 2.
		emit(2, core.KRead, f, 1)
		if !fenceEverything {
			e.Fence(2)
		}
		emit(2, core.KAcquire, x, 0)
		emit(2, core.KRead, x, 42)
		emit(2, core.KRelease, x, 0)
		return e
	}
	count := func(e *core.Execution) (pairs int) {
		n := len(e.Ops())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && e.ReachableG(i, j) {
					pairs++
				}
			}
		}
		return pairs
	}
	minimal, pc := build(false), build(true)
	cm, cp := count(minimal), count(pc)
	fmt.Fprintf(w, "globally agreed ordering pairs (message-passing program):\n")
	fmt.Fprintf(w, "  minimal annotations:        %3d pairs over %d operations\n", cm, len(minimal.Ops()))
	fmt.Fprintf(w, "  fence after every op (PC):  %3d pairs over %d operations\n", cp, len(pc.Ops()))
	fmt.Fprintf(w, "  over-constraint factor:     %.2fx\n", float64(cp)/float64(cm))
	if cp <= cm {
		return fmt.Errorf("ext-pc: PC emulation did not add orderings")
	}
	fmt.Fprintln(w, "\nboth variants guarantee the read returns 42; the extra orderings are the")
	fmt.Fprintln(w, "freedom PC gives up — the flexibility PMC preserves for the hardware.")
	return nil
}

func runExtScopedFence(w io.Writer, o Options) error {
	// Model level: the scoped fence keeps the guarantee for its target
	// location and drops the orderings for others.
	e := core.NewExecution()
	x := e.AddLoc("X")
	y := e.AddLoc("Y")
	e.Write(1, x, 1)
	e.Write(1, y, 2)
	fx := e.FenceLoc(1, x)
	ax := e.Acquire(1, x)
	ay := e.Acquire(1, y)
	fmt.Fprintf(w, "after   w(X) w(Y) fence(X) acq(X) acq(Y):\n")
	fmt.Fprintf(w, "  fence(X) ≺G acq(X): %v (the scoped guarantee)\n", e.ReachableG(fx.ID, ax.ID))
	fmt.Fprintf(w, "  fence(X) ≺G acq(Y): %v (Y left unordered — the optimization)\n", e.ReachableG(fx.ID, ay.ID))

	// Litmus level: the scoped fence preserves the annotated program's
	// unique outcome.
	fmt.Fprintln(w, "\nfig5 with the writer's fence scoped to X:")
	prog, ok := litmus.ByName("fig5-scoped-fence")
	if !ok {
		return fmt.Errorf("ext-scoped-fence: program missing from catalog")
	}
	res, err := litmus.Explore(prog)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res)
	return nil
}
