// Package sweep is a batched, parallel execution engine for simulator
// experiments: a declarative grid spec (apps × backends × tile counts ×
// NoC topologies) expanded into independent cells, a worker pool that runs
// each cell's deterministic simulation concurrently, and machine-readable
// emission (JSON, CSV) of the measured results.
//
// Every simulation owns its own sim.Kernel, soc.System and rt.Runtime, so
// cells share no state and any completion order is safe; results are merged
// back in deterministic grid order, which makes a sweep's output — down to
// the emitted bytes — independent of the worker count. The multi-cell
// experiments in internal/exp submit their cells through this engine, and
// scaling studies (MemPool-style tile sweeps, Regional-Consistency-style
// backend comparisons across system sizes) are one Spec each.
package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"pmc/internal/noc"
	"pmc/internal/rt"
	"pmc/internal/soc"
	"pmc/internal/workloads"
)

// Spec declares a sweep grid. Cells are the cross product
// Apps × Backends × Tiles × Topos, expanded in that nesting order (apps
// outermost, topologies innermost). Empty axes get defaults: Backends
// defaults to every backend, Tiles to the base config's tile count, Topos
// to the ring.
type Spec struct {
	// Apps names the workloads (workloads.ByName) unless Make overrides
	// construction.
	Apps []string
	// Backends names the runtime backends (rt.Backends subset).
	Backends []string
	// Tiles lists the system sizes to sweep.
	Tiles []int
	// Topos lists the NoC topologies to sweep.
	Topos []noc.Topology
	// Base is the system configuration template; nil means
	// soc.DefaultConfig. Tiles and NoC.Topology are overwritten per cell.
	Base *soc.Config
	// Make builds the cell's workload instance. nil means
	// workloads.ByName(cell.App). Every cell must get a fresh instance:
	// App values carry per-run state.
	Make func(Cell) (workloads.App, error)
	// Workers caps concurrent simulations: 0 means GOMAXPROCS, 1 is
	// sequential. Results are identical for any value.
	Workers int
}

// Cell identifies one point of the grid.
type Cell struct {
	Index   int // position in grid order
	App     string
	Backend string
	Tiles   int
	Topo    noc.Topology
}

// String names the cell for error messages.
func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/%dt/%s", c.App, c.Backend, c.Tiles, c.Topo)
}

// Row is one measured cell, flattened for machine-readable emission. The
// full Result stays available for rendering code but is excluded from the
// serialized forms.
type Row struct {
	App      string `json:"app"`
	Backend  string `json:"backend"`
	Tiles    int    `json:"tiles"`
	Topology string `json:"topology"`

	Cycles   uint64 `json:"cycles"`
	Checksum uint32 `json:"checksum"`

	NoCMessages uint64 `json:"noc_messages"`
	NoCBytes    uint64 `json:"noc_bytes"`
	FlitHops    uint64 `json:"flit_hops"`
	// The hierarchical split of FlitHops on cluster topologies (always
	// emitted: on flat topologies local equals flit_hops and global is 0).
	LocalFlitHops  uint64 `json:"local_flit_hops"`
	GlobalFlitHops uint64 `json:"global_flit_hops"`

	Busy            uint64 `json:"busy"`
	IStall          uint64 `json:"istall"`
	PrivReadStall   uint64 `json:"priv_read_stall"`
	SharedReadStall uint64 `json:"shared_read_stall"`
	WriteStall      uint64 `json:"write_stall"`
	FlushStall      uint64 `json:"flush_stall"`
	LockWait        uint64 `json:"lock_wait"`
	CopyStall       uint64 `json:"copy_stall"`
	Instrs          uint64 `json:"instrs"`
	FlushInstrs     uint64 `json:"flush_instrs"`

	// Service metrics, populated only for open-loop service workloads
	// (requests completed, exact latency quantiles in cycles).
	Requests   uint64 `json:"requests,omitempty"`
	P50Latency uint64 `json:"p50_latency,omitempty"`
	P99Latency uint64 `json:"p99_latency,omitempty"`

	Err string `json:"err,omitempty"`

	Result *workloads.Result `json:"-"`
}

// Table holds a completed sweep in grid order.
type Table struct {
	Rows []Row
}

// Cells expands the grid in deterministic order without running anything.
func (s *Spec) Cells() []Cell {
	backends := s.Backends
	if len(backends) == 0 {
		backends = rt.Backends
	}
	tiles := s.Tiles
	if len(tiles) == 0 {
		tiles = []int{s.base().Tiles}
	}
	topos := s.Topos
	if len(topos) == 0 {
		topos = []noc.Topology{noc.TopoRing}
	}
	var cells []Cell
	for _, app := range s.Apps {
		for _, b := range backends {
			for _, t := range tiles {
				for _, topo := range topos {
					cells = append(cells, Cell{
						Index: len(cells), App: app, Backend: b, Tiles: t, Topo: topo,
					})
				}
			}
		}
	}
	return cells
}

func (s *Spec) base() soc.Config {
	if s.Base != nil {
		return *s.Base
	}
	return soc.DefaultConfig()
}

// validate rejects malformed grids before any simulation starts.
func (s *Spec) validate(cells []Cell) error {
	if len(s.Apps) == 0 {
		return fmt.Errorf("sweep: no apps in grid")
	}
	if s.Make == nil {
		for _, app := range s.Apps {
			if _, ok := workloads.ByName(app); !ok {
				return fmt.Errorf("sweep: unknown app %q (have %v)", app, workloads.Names)
			}
		}
	}
	for _, b := range s.Backends {
		if _, err := rt.ByName(b); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	for _, t := range s.Tiles {
		if t <= 0 {
			return fmt.Errorf("sweep: tile count %d must be positive", t)
		}
	}
	if len(cells) == 0 {
		return fmt.Errorf("sweep: empty grid")
	}
	return nil
}

// Run executes every cell of the grid on a worker pool and returns the
// merged table in grid order. Per-cell failures are recorded in Row.Err;
// the returned error is the first failure in grid order (the table still
// contains every completed row). Output is bit-identical for any Workers
// value because each cell's simulation is deterministic and rows are
// merged by index.
func Run(spec Spec) (*Table, error) {
	cells := spec.Cells()
	if err := spec.validate(cells); err != nil {
		return nil, err
	}
	rows := make([]Row, len(cells))
	Each(len(cells), spec.Workers, func(i int) error {
		rows[i] = runCell(&spec, cells[i])
		return nil
	})
	table := &Table{Rows: rows}
	for i := range rows {
		if rows[i].Err != "" {
			return table, fmt.Errorf("sweep: cell %s: %s", cells[i], rows[i].Err)
		}
	}
	return table, nil
}

// Each runs fn(i) for every i in [0, n) on a pool of workers goroutines
// (0 = GOMAXPROCS, 1 = sequential) and returns the lowest-index error.
// It is the raw fan-out primitive for independent deterministic cells that
// do not produce workloads.Results (e.g. the conformance matrix).
func Each(n, workers int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		var next int64 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1))
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runCell builds and runs one cell's simulation. Panics (workload Setup
// guards reject impossible cell shapes, e.g. more FIFO roles than tiles)
// are contained as cell errors so one bad cell cannot take down a batch.
func runCell(spec *Spec, c Cell) (row Row) {
	row = Row{App: c.App, Backend: c.Backend, Tiles: c.Tiles, Topology: c.Topo.String()}
	defer func() {
		if r := recover(); r != nil {
			row.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	var app workloads.App
	var err error
	if spec.Make != nil {
		app, err = spec.Make(c)
		if err == nil && app == nil {
			err = fmt.Errorf("make returned nil app")
		}
	} else {
		var ok bool
		app, ok = workloads.ByName(c.App)
		if !ok {
			err = fmt.Errorf("unknown app %q", c.App)
		}
	}
	if err != nil {
		row.Err = err.Error()
		return row
	}
	cfg := spec.base()
	cfg.Tiles = c.Tiles
	cfg.NoC.Topology = c.Topo
	res, err := workloads.Run(app, cfg, c.Backend)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	row.Cycles = uint64(res.Cycles)
	row.Checksum = res.Checksum
	row.NoCMessages = res.NoCMessages
	row.NoCBytes = res.NoCBytes
	row.FlitHops = res.FlitHops
	row.LocalFlitHops = res.LocalFlitHops
	row.GlobalFlitHops = res.GlobalFlitHops
	t := res.Total
	row.Busy = uint64(t.Busy)
	row.IStall = uint64(t.IStall)
	row.PrivReadStall = uint64(t.PrivReadStall)
	row.SharedReadStall = uint64(t.SharedReadStall)
	row.WriteStall = uint64(t.WriteStall)
	row.FlushStall = uint64(t.FlushStall)
	row.LockWait = uint64(t.LockWait)
	row.CopyStall = uint64(t.CopyStall)
	row.Instrs = t.Instrs
	row.FlushInstrs = t.FlushInstrs
	if res.Service != nil {
		row.Requests = res.Service.Completed
		row.P50Latency = res.Service.P50()
		row.P99Latency = res.Service.P99()
	}
	row.Result = res
	return row
}

// Find returns the row for the given cell coordinates, or nil.
func (t *Table) Find(app, backend string, tiles int, topo noc.Topology) *Row {
	for i := range t.Rows {
		r := &t.Rows[i]
		if r.App == app && r.Backend == backend && r.Tiles == tiles && r.Topology == topo.String() {
			return r
		}
	}
	return nil
}

// CheckPortable returns an error naming the first row whose checksum
// differs from the first row with the same app and tile count: the PMC
// portability claim that one annotated program computes the same result
// on every backend and topology.
func (t *Table) CheckPortable() error {
	type key struct {
		app   string
		tiles int
	}
	first := make(map[key]*Row)
	for i := range t.Rows {
		r := &t.Rows[i]
		f, ok := first[key{r.App, r.Tiles}]
		if !ok {
			first[key{r.App, r.Tiles}] = r
		} else if r.Checksum != f.Checksum {
			return fmt.Errorf("sweep: %s/%s/%dt/%s checksum %#x differs from %#x on %s/%s",
				r.App, r.Backend, r.Tiles, r.Topology, r.Checksum, f.Checksum, f.Backend, f.Topology)
		}
	}
	return nil
}

// Results returns the full workload results in grid order (nil entries for
// failed cells).
func (t *Table) Results() []*workloads.Result {
	out := make([]*workloads.Result, len(t.Rows))
	for i := range t.Rows {
		out[i] = t.Rows[i].Result
	}
	return out
}

// WriteJSON emits the table as an indented JSON array of rows. The bytes
// are deterministic: grid order is fixed and field order follows the
// struct.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Rows)
}

// csvHeader is the column order of WriteCSV.
var csvHeader = []string{
	"app", "backend", "tiles", "topology", "cycles", "checksum",
	"noc_messages", "noc_bytes", "flit_hops", "local_flit_hops", "global_flit_hops",
	"busy", "istall", "priv_read_stall", "shared_read_stall", "write_stall",
	"flush_stall", "lock_wait", "copy_stall", "instrs", "flush_instrs",
	"requests", "p50_latency", "p99_latency", "err",
}

// WriteCSV emits the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	u := strconv.FormatUint
	for i := range t.Rows {
		r := &t.Rows[i]
		rec := []string{
			r.App, r.Backend, strconv.Itoa(r.Tiles), r.Topology,
			u(r.Cycles, 10), u(uint64(r.Checksum), 10),
			u(r.NoCMessages, 10), u(r.NoCBytes, 10), u(r.FlitHops, 10),
			u(r.LocalFlitHops, 10), u(r.GlobalFlitHops, 10),
			u(r.Busy, 10), u(r.IStall, 10), u(r.PrivReadStall, 10),
			u(r.SharedReadStall, 10), u(r.WriteStall, 10), u(r.FlushStall, 10),
			u(r.LockWait, 10), u(r.CopyStall, 10), u(r.Instrs, 10),
			u(r.FlushInstrs, 10),
			u(r.Requests, 10), u(r.P50Latency, 10), u(r.P99Latency, 10), r.Err,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
