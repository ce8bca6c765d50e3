package exp

import (
	"fmt"
	"io"

	"pmc/internal/noc"
	"pmc/internal/sweep"
	"pmc/internal/workloads"
)

// A grid declares an experiment that is one sweep grid plus assertions:
// the cells to run, whether their checksums must be portable, and how to
// report them. The paper's portability matrix (Table II, Figs. 8-10) and
// the scaling and backend-comparison ablations are grids; run does the
// rest.
type grid struct {
	apps, backends []string
	// tiles is the tile axis: one system size honoring Options.Tiles, or
	// a sweep chosen by Options.scaled.
	tiles []int
	// topos is the NoC topology axis; nil means the ring.
	topos []noc.Topology
	// make builds each cell's workload; nil means makeScaled. Only grids
	// of parameterised instances set it.
	make func(sweep.Cell) (workloads.App, error)
	// portable requires every cell of one (app, tiles) to compute the
	// same checksum, whatever its backend and topology.
	portable bool
	// check is an extra assertion; it may print the figures it derives.
	check func(w io.Writer, t *sweep.Table) error
	// The report: a per-row table with one column per field of cols,
	// then one pivot per field of pivots.
	cols   []field
	pivots []field
	note   string
}

// A field renders one value per cell. In the per-row table its label
// heads a column (the first column left-aligned, the rest right-aligned);
// a pivot lays it out as rows backend[/topology] by columns tile count
// (one block per app) or, on a one-size grid, app, under its label.
type field struct {
	label string
	width int
	val   func(cell) string
}

// A cell is one row of a finished grid, which can look up its peers.
type cell struct {
	*sweep.Row
	t *sweep.Table
}

// peer returns the cell at c's app and topology on backend b with n tiles.
func (c cell) peer(b string, n int) *sweep.Row {
	for i := range c.t.Rows {
		p := &c.t.Rows[i]
		if p.App == c.App && p.Backend == b && p.Tiles == n && p.Topology == c.Topology {
			return p
		}
	}
	panic(fmt.Sprintf("exp: no %s/%s/%dt/%s cell", c.App, b, n, c.Topology))
}

// declare turns a grid declaration into an experiment body.
func declare(build func(Options) grid) func(io.Writer, Options) error {
	return func(w io.Writer, o Options) error { return build(o).run(w, o) }
}

// run builds the grid's sweep, runs and checks it, and renders the report.
func (g grid) run(w io.Writer, o Options) error {
	if g.topos == nil {
		g.topos = []noc.Topology{noc.TopoRing}
	}
	spec := sweep.Spec{Apps: g.apps, Backends: g.backends, Tiles: g.tiles, Topos: g.topos,
		Make: g.make, Workers: o.Workers}
	if spec.Make == nil {
		spec.Make = makeScaled(o)
	}
	t, err := sweep.Run(spec)
	if err != nil {
		return err
	}
	if g.portable {
		if err := t.CheckPortable(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "%d cells: %v × %v × tiles%v × %v\n", len(t.Rows), g.apps, g.backends, g.tiles, g.topos)
	if g.cols != nil {
		g.table(w, t)
	}
	if g.pivots != nil {
		g.pivot(w, t)
	}
	if g.check != nil {
		if err := g.check(w, t); err != nil {
			return err
		}
	}
	if g.note != "" {
		fmt.Fprintf(w, "\n%s\n", g.note)
	}
	return nil
}

// table prints a header and one line per cell.
func (g grid) table(w io.Writer, t *sweep.Table) {
	for i := -1; i < len(t.Rows); i++ {
		fmt.Fprintln(w)
		for j, col := range g.cols {
			s := col.label
			if i >= 0 {
				s = col.val(cell{&t.Rows[i], t})
			}
			if j == 0 {
				fmt.Fprintf(w, "%-*s", col.width, s)
			} else {
				fmt.Fprintf(w, " %*s", col.width, s)
			}
		}
	}
	fmt.Fprintln(w)
}

// pivot prints each pivot, reading cells by their position in the sweep's
// grid order (apps, backends, tiles, topologies; the last varies fastest).
func (g grid) pivot(w io.Writer, t *sweep.Table) {
	nb, nt, np := len(g.backends), len(g.tiles), len(g.topos)
	at := func(a, b, tl, p int) cell { return cell{&t.Rows[((a*nb+b)*nt+tl)*np+p], t} }
	// On a tile sweep each app is a block with the tile counts as
	// columns; otherwise one block has the apps as columns.
	blocks, heads := 1, g.apps
	if nt > 1 {
		blocks, heads = len(g.apps), nil
		for _, n := range g.tiles {
			heads = append(heads, fmt.Sprintf("%dt", n))
		}
	}
	for blk := 0; blk < blocks; blk++ {
		if blocks > 1 {
			fmt.Fprintf(w, "\n--- %s ---\n", g.apps[blk])
		}
		for _, pv := range g.pivots {
			fmt.Fprintf(w, "\n%s\n%-8s", pv.label, "backend")
			if np > 1 {
				fmt.Fprintf(w, " %-16s", "topology")
			}
			for _, h := range heads {
				fmt.Fprintf(w, " %*s", pv.width, h)
			}
			for b, name := range g.backends {
				for p, topo := range g.topos {
					fmt.Fprintf(w, "\n%-8s", name)
					if np > 1 {
						fmt.Fprintf(w, " %-16s", topo)
					}
					for j := range heads {
						a, tl := j, 0
						if nt > 1 {
							a, tl = blk, j
						}
						fmt.Fprintf(w, " %*s", pv.width, pv.val(at(a, b, tl, p)))
					}
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// The values and columns grids share.
var (
	cycles      = func(c cell) string { return fmt.Sprint(c.Cycles) }
	flitHops    = func(c cell) string { return fmt.Sprint(c.FlitHops) }
	hopSplit    = func(c cell) string { return fmt.Sprintf("%d/%d", c.LocalFlitHops, c.GlobalFlitHops) }
	backendCol  = field{"backend", 10, func(c cell) string { return c.Backend }}
	cyclesCol   = field{"cycles", 10, cycles}
	nocMsgsCol  = field{"noc msgs", 10, func(c cell) string { return fmt.Sprint(c.NoCMessages) }}
	checksumCol = field{"checksum", 10, func(c cell) string { return fmt.Sprintf("%#x", c.Checksum) }}
)

// speedupOver is each cell's makespan speedup over the n-tile cell of the
// same backend and topology.
func speedupOver(n int) func(cell) string {
	return func(c cell) string {
		return fmt.Sprintf("%.2fx", float64(c.peer(c.Backend, n).Cycles)/float64(c.Cycles))
	}
}

// makeScaled is the app factory honoring the experiment scale.
func makeScaled(o Options) func(sweep.Cell) (workloads.App, error) {
	return func(c sweep.Cell) (workloads.App, error) {
		app, ok := workloads.Scaled(c.App, !o.full())
		if !ok {
			return nil, fmt.Errorf("unknown app %q", c.App)
		}
		return app, nil
	}
}

// clone is the app factory of a grid that runs one parameterised
// instance: every cell gets a fresh copy of proto.
func clone[T any, P interface {
	*T
	workloads.App
}](proto P) func(sweep.Cell) (workloads.App, error) {
	return func(sweep.Cell) (workloads.App, error) {
		app := *proto
		return P(&app), nil
	}
}
