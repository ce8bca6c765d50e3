package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"pmc/internal/noc"
	"pmc/internal/rt"
	"pmc/internal/soc"
	"pmc/internal/stats"
	"pmc/internal/sweep"
	"pmc/internal/workloads"
)

// sweepWorkers is the sweep pool size: one worker per core of the
// two-core machines the benchmark is sized for.
const sweepWorkers = 2

// grid is a sweep workload's cell grid.
type grid struct {
	apps     []string
	backends []string
	tiles    []int
	topo     string
	sdram    int  // SDRAM bytes; 0 keeps the default
	small    bool // CI-sized app configurations
}

// sweep-flat is the paper's evaluation scale: every app at full size on
// five backends at 8 and 32 tiles of a ring; host time is almost all in
// the simulator (sim, noc, mem, cache, lock, rt).
func flatGrid(short bool) grid {
	if short {
		return grid{apps: []string{"msgpass", "server"}, backends: []string{"nocc", "dsm"}, tiles: []int{4}, topo: "ring", small: true}
	}
	return grid{
		apps:     workloads.Names,
		backends: []string{"nocc", "swcc", "dsm", "spm", "adaptive"},
		tiles:    []int{8, 32},
		topo:     "ring",
	}
}

// sweep-1024 runs the same layers at 256 and 1024 tiles of a clustered
// mesh, where per-cell system construction and the pool's tail idle time
// become visible.
func bigGrid(short bool) grid {
	if short {
		return grid{apps: []string{"mfifo", "kvstore"}, backends: []string{"cdsm", "adaptive"}, tiles: []int{64},
			topo: "cluster:32xmesh", sdram: rt.MinSDRAMBytes(64), small: true}
	}
	return grid{
		apps:     []string{"radiosity", "raytrace", "volrend", "mfifo", "kvstore", "server", "stream"},
		backends: []string{"dsm", "cdsm", "cspm", "adaptive"},
		tiles:    []int{256, 1024},
		topo:     "cluster:32xmesh",
		sdram:    rt.MinSDRAMBytes(1024),
	}
}

func runSweepFlat(r *run) error { return runSweep(r, flatGrid(r.cfg.short)) }
func runSweep1024(r *run) error { return runSweep(r, bigGrid(r.cfg.short)) }

// sweepWork is a sweep workload's input: the grid as a sweep spec, its
// cells, and a seeded app for every cell of every pass the run makes.
type sweepWork struct {
	g     grid
	seed  int64
	spec  sweep.Spec
	cells []sweep.Cell
	// apps[p][i] is cell i's app in pass p. Apps carry per-run state, so
	// every pass needs fresh ones.
	apps [][]workloads.App
	next int // the next pass of apps to hand out
}

func newSweepWork(g grid, seed int64, passes int) (*sweepWork, error) {
	topo, err := noc.ParseTopology(g.topo)
	if err != nil {
		return nil, err
	}
	base := soc.DefaultConfig()
	if g.sdram > 0 {
		base.SDRAMBytes = g.sdram
	}
	w := &sweepWork{g: g, seed: seed, spec: sweep.Spec{
		Apps: g.apps, Backends: g.backends, Tiles: g.tiles, Topos: []noc.Topology{topo},
		Base: &base, Workers: sweepWorkers,
	}}
	w.cells = w.spec.Cells()
	for _, b := range g.backends {
		if _, err := rt.ByName(b); err != nil {
			return nil, err
		}
	}
	w.apps = make([][]workloads.App, passes)
	for p := range w.apps {
		w.apps[p] = make([]workloads.App, len(w.cells))
		for i, c := range w.cells {
			if w.apps[p][i], err = w.makeApp(c); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

// takePass hands out the next pass's apps.
func (w *sweepWork) takePass() []workloads.App {
	apps := w.apps[w.next]
	w.apps[w.next] = nil
	w.next++
	return apps
}

// makeApp builds a cell's app. The seed sets the service apps' arrival
// seeds; it depends on the app only, so every backend of an (app, tiles)
// pair sees the same input and must produce the same checksum.
func (w *sweepWork) makeApp(c sweep.Cell) (workloads.App, error) {
	app, ok := workloads.Scaled(c.App, w.g.small)
	if !ok {
		return nil, fmt.Errorf("unknown app %q", c.App)
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%d/%s", w.seed, c.App)
	seed := h.Sum32() | 1
	switch a := app.(type) {
	case *workloads.Server:
		a.Seed = seed
	case *workloads.KVStore:
		a.Seed = seed
	case *workloads.Stream:
		a.Seed = seed
	}
	return app, nil
}

// timedApp reports when the engine asks for the checksum, the last step
// of a cell's run, so the untraced run can time cells without touching
// the engine.
type timedApp struct {
	workloads.App
	done func()
}

func (a *timedApp) Checksum(r *rt.Runtime) uint32 {
	sum := a.App.Checksum(r)
	a.done()
	return sum
}

// timedServiceApp keeps a service app's metrics visible to the engine.
type timedServiceApp struct{ timedApp }

func (a *timedServiceApp) Service() *stats.Service { return a.App.(workloads.ServiceApp).Service() }

func timed(app workloads.App, done func()) workloads.App {
	t := timedApp{App: app, done: done}
	if _, ok := app.(workloads.ServiceApp); ok {
		return &timedServiceApp{t}
	}
	return &t
}

// enginePass runs one sweep.Run over the grid with the next pass's apps
// and returns the table and each cell's latency, from the engine taking
// its app to its checksum.
func (w *sweepWork) enginePass() (*sweep.Table, []time.Duration, error) {
	apps := w.takePass()
	lat := make([]time.Duration, len(w.cells))
	spec := w.spec
	spec.Make = func(c sweep.Cell) (workloads.App, error) {
		start := time.Now()
		app := apps[c.Index]
		apps[c.Index] = nil // a finished app holds its whole simulated system
		return timed(app, func() { lat[c.Index] = time.Since(start) }), nil
	}
	t, err := sweep.Run(spec)
	if t == nil {
		return nil, nil, err
	}
	return t, lat, nil
}

// sweepCheck holds the reference rows of the first pass and checks every
// later table against them.
type sweepCheck struct {
	ref [][]byte // JSON of the first pass's rows
}

// check counts the cells of t that break an output invariant: the cell
// failed; its checksum differs from another backend's for the same (app,
// tiles, topology) — the portability claim; or its row differs from the
// same cell's row in the first pass, so runs are deterministic.
func (c *sweepCheck) check(t *sweep.Table) (failed int, problems []string) {
	bad := make([]bool, len(t.Rows))
	type key struct {
		app, topo string
		tiles     int
	}
	want := map[key]uint32{}
	for i, row := range t.Rows {
		if row.Err != "" {
			bad[i] = true
			problems = append(problems, fmt.Sprintf("%s/%s/%dt: %s", row.App, row.Backend, row.Tiles, row.Err))
			continue
		}
		k := key{row.App, row.Topology, row.Tiles}
		if sum, ok := want[k]; !ok {
			want[k] = row.Checksum
		} else if sum != row.Checksum {
			bad[i] = true
			problems = append(problems, fmt.Sprintf("%s/%s/%dt: checksum %#x, another backend gave %#x",
				row.App, row.Backend, row.Tiles, row.Checksum, sum))
		}
	}
	rows := make([][]byte, len(t.Rows))
	for i := range t.Rows {
		rows[i], _ = json.Marshal(t.Rows[i])
	}
	if c.ref == nil {
		c.ref = rows
	} else {
		for i := range rows {
			if i >= len(c.ref) || string(rows[i]) != string(c.ref[i]) {
				if !bad[i] {
					problems = append(problems, fmt.Sprintf("%s/%s/%dt: row differs from the first pass",
						t.Rows[i].App, t.Rows[i].Backend, t.Rows[i].Tiles))
				}
				bad[i] = true
			}
		}
	}
	for _, b := range bad {
		if b {
			failed++
		}
	}
	return failed, problems
}

func (r *run) sweepChecked(c *sweepCheck, t *sweep.Table) {
	n, problems := c.check(t)
	r.attempted += len(t.Rows)
	if n > 0 {
		r.fail(n, "%d cells: %v", n, problems)
	}
}

// warmUp runs one pass of the grid's apps at CI size on every backend at
// the grid's smallest tile count, so that every code path has run and the
// heap has grown before the timed passes. It is part of set-up: building
// the apps alone takes a fraction of a millisecond, too little to time
// steadily, while a warm-up pass repeats to within a few percent.
func warmUp(g grid, seed int64) error {
	g.small = true
	g.tiles = g.tiles[:1]
	w, err := newSweepWork(g, seed, 1)
	if err != nil {
		return err
	}
	_, _, err = w.enginePass()
	return err
}

func runSweep(r *run, g grid) error {
	passes := r.units()
	if r.cfg.traced {
		passes *= 2
	}
	setup := func() (*sweepWork, error) {
		w, err := newSweepWork(g, r.cfg.seed, passes)
		if err != nil {
			return nil, err
		}
		return w, warmUp(g, r.cfg.seed)
	}
	w, setups, err := setUpRepeatedly(setup, func(*sweepWork) {})
	if err != nil {
		return err
	}
	var (
		check  sweepCheck
		cells  []time.Duration
		instrs uint64
	)
	// Passes run one after another, each a whole sweep.Run on the pool.
	passLat, errs, wall := closedLoop(1, r.units(), func(_, _ int) error {
		t, lat, err := w.enginePass()
		if err != nil {
			return err
		}
		r.sweepChecked(&check, t)
		cells = append(cells, lat...)
		for _, row := range t.Rows {
			instrs += row.Instrs
		}
		return nil
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if !r.cfg.traced {
		r.endToEnd(setups, cells, wall)
		return nil
	}
	r.m.set("sim.mips", ratio(float64(instrs), wall.Seconds())/1e6, "MIPS")
	return w.traced(r, &check, passLat)
}

// cellCounters are the exact per-layer work counts of cells, read from
// the layers' public counters after each run.
type cellCounters struct {
	cycles, instrs                      uint64
	nocMessages, flitHops, globalHops   uint64
	grants, lineOps, wordOps            uint64
	dHits, dMisses, iMisses, writebacks uint64
	lockAcquires, handoffs, lockWait    uint64
	objects                             uint64
}

func (a *cellCounters) add(b cellCounters) {
	a.cycles += b.cycles
	a.instrs += b.instrs
	a.nocMessages += b.nocMessages
	a.flitHops += b.flitHops
	a.globalHops += b.globalHops
	a.grants += b.grants
	a.lineOps += b.lineOps
	a.wordOps += b.wordOps
	a.dHits += b.dHits
	a.dMisses += b.dMisses
	a.iMisses += b.iMisses
	a.writebacks += b.writebacks
	a.lockAcquires += b.lockAcquires
	a.handoffs += b.handoffs
	a.lockWait += b.lockWait
	a.objects += b.objects
}

// tracedCell re-executes workloads.Run's steps for one cell, each inside
// a span, and returns the row the engine would emit plus the cell's
// counters.
func (w *sweepWork) tracedCell(tr *tracer, parent, lane int, c sweep.Cell, app workloads.App) (row sweep.Row, cnt cellCounters, err error) {
	cell := tr.begin("sweep.cell", parent, int64(c.Index), lane)
	defer tr.end(cell)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	row = sweep.Row{App: c.App, Backend: c.Backend, Tiles: c.Tiles, Topology: c.Topo.String()}
	cfg := *w.spec.Base
	cfg.Tiles = c.Tiles
	cfg.NoC.Topology = c.Topo
	var (
		b   rt.Backend
		sys *soc.System
		rtm *rt.Runtime
	)
	tr.call("rt.ByName", cell, func() { b, err = rt.ByName(c.Backend) })
	if err != nil {
		return row, cnt, err
	}
	tr.call("soc.New", cell, func() { sys, err = soc.New(cfg) })
	if err != nil {
		return row, cnt, err
	}
	tr.call("rt.New", cell, func() { rtm = rt.New(sys, b) })
	tr.call("workloads.setup", cell, func() {
		app.Setup(rtm, cfg.Tiles)
		for t := 0; t < cfg.Tiles; t++ {
			rtm.Spawn(t, fmt.Sprintf("%s-w%d", app.Name(), t), func(ctx *rt.Ctx) { app.Worker(ctx, t, cfg.Tiles) })
		}
	})
	tr.call("rt.Run", cell, func() { err = rtm.Run() })
	if err != nil {
		return row, cnt, err
	}
	tr.call("workloads.collect", cell, func() {
		row.Checksum = app.Checksum(rtm)
		row.Cycles = uint64(sys.K.Now())
		net := sys.Net.Stats()
		row.NoCMessages, row.NoCBytes, row.FlitHops = net.Messages, net.Bytes, net.FlitHops
		row.LocalFlitHops, row.GlobalFlitHops = net.LocalFlitHops, net.GlobalFlitHops
		t := sys.TotalStats()
		row.Busy, row.IStall = uint64(t.Busy), uint64(t.IStall)
		row.PrivReadStall, row.SharedReadStall = uint64(t.PrivReadStall), uint64(t.SharedReadStall)
		row.WriteStall, row.FlushStall = uint64(t.WriteStall), uint64(t.FlushStall)
		row.LockWait, row.CopyStall = uint64(t.LockWait), uint64(t.CopyStall)
		row.Instrs, row.FlushInstrs = t.Instrs, t.FlushInstrs
		if sa, ok := app.(workloads.ServiceApp); ok {
			svc := sa.Service()
			row.Requests, row.P50Latency, row.P99Latency = svc.Completed, svc.P50(), svc.P99()
		}
		cnt = cellCounters{
			cycles: row.Cycles, instrs: t.Instrs,
			nocMessages: net.Messages, flitHops: net.FlitHops, globalHops: net.GlobalFlitHops,
			grants:  sys.SDRAM.Grants(),
			lineOps: sys.SDRAM.LineFills + sys.SDRAM.LineWBs,
			wordOps: sys.SDRAM.WordReads + sys.SDRAM.WordWrites,
			objects: uint64(len(rtm.Objects())),
		}
		for _, tl := range sys.Tiles {
			d, i := tl.DC.Stats(), tl.IC.Stats()
			cnt.dHits += d.Hits
			cnt.dMisses += d.Misses
			cnt.writebacks += d.Writebacks
			cnt.iMisses += i.Misses
		}
		if sys.DLock != nil {
			ls := sys.DLock.Stats()
			cnt.lockAcquires, cnt.handoffs, cnt.lockWait = ls.Acquires, ls.Handoffs, uint64(ls.WaitTime)
		} else if sys.CLock != nil {
			ls := sys.CLock.Stats()
			cnt.lockAcquires, cnt.handoffs, cnt.lockWait = ls.Acquires, ls.Handoffs, uint64(ls.WaitTime)
		}
	})
	return row, cnt, nil
}

// traced re-executes the engine's passes cell by cell on the sweep's own
// pool primitive, checks every decomposed row against the engine's rows,
// and records the per-layer metrics.
func (w *sweepWork) traced(r *run, check *sweepCheck, enginePasses []time.Duration) error {
	tr := newTracer()
	var (
		perPass []cellCounters
		passLat []time.Duration
	)
	passes := len(enginePasses)
	err := tracedPhase(r.m, func() {
		for p := 0; p < passes; p++ {
			start := time.Now()
			apps := w.takePass()
			pass := tr.begin("sweep.pass", noSpan, int64(p), sweepWorkers)
			rows := make([]sweep.Row, len(w.cells))
			cnts := make([]cellCounters, len(w.cells))
			lanes := make(chan int, sweepWorkers)
			for l := 0; l < sweepWorkers; l++ {
				lanes <- l
			}
			sweep.Each(len(w.cells), sweepWorkers, func(i int) error {
				lane := <-lanes
				defer func() { lanes <- lane }()
				var err error
				app := apps[i]
				apps[i] = nil
				rows[i], cnts[i], err = w.tracedCell(tr, pass, lane, w.cells[i], app)
				if err != nil {
					rows[i].Err = err.Error()
				}
				return nil
			})
			tr.end(pass)
			r.sweepChecked(check, &sweep.Table{Rows: rows})
			var total cellCounters
			for _, c := range cnts {
				total.add(c)
			}
			perPass = append(perPass, total)
			passLat = append(passLat, time.Since(start))
		}
	})
	if err != nil {
		return err
	}
	for p := 1; p < len(perPass); p++ {
		if perPass[p] != perPass[0] {
			r.fail(len(w.cells), "pass %d: layer counters differ from the first pass", p)
		}
	}
	st := tr.stats()
	cell := st["sweep.cell"]
	passTotal := st["sweep.pass"].total
	m := r.m
	c := perPass[0]
	m.set("sweep.cells", float64(len(w.cells)), "count")
	setLatency(m, "sweep.cell_ms", cell.durs)
	m.set("sweep.pool_idle_share", 1-ratio(float64(cell.total), float64(sweepWorkers)*float64(passTotal)), "share")
	m.set("soc.new_ms", st["soc.New"].meanMs(), "ms")
	m.set("soc.new_share", ratio(float64(st["soc.New"].total), float64(cell.total)), "share")
	m.set("soc.instrs", float64(c.instrs), "count")
	m.set("workloads.setup_ms", st["workloads.setup"].meanMs(), "ms")
	m.set("workloads.collect_ms", st["workloads.collect"].meanMs(), "ms")
	rtRun := st["rt.Run"]
	m.set("rt.run_ms", rtRun.meanMs(), "ms")
	m.set("rt.run_share", ratio(float64(rtRun.total), float64(cell.total)), "share")
	m.set("rt.run_ns_per_instr", ratio(float64(rtRun.total), float64(passes)*float64(c.instrs)), "ns")
	m.set("rt.objects", float64(c.objects), "count")
	m.set("sim.cycles", float64(c.cycles), "count")
	m.set("sim.ns_per_cycle", ratio(float64(rtRun.total), float64(passes)*float64(c.cycles)), "ns")
	m.set("noc.messages", float64(c.nocMessages), "count")
	m.set("noc.flit_hops", float64(c.flitHops), "count")
	m.set("noc.global_flit_hops", float64(c.globalHops), "count")
	m.set("mem.sdram_grants", float64(c.grants), "count")
	m.set("mem.sdram_line_ops", float64(c.lineOps), "count")
	m.set("mem.sdram_word_ops", float64(c.wordOps), "count")
	m.set("cache.d_hits", float64(c.dHits), "count")
	m.set("cache.d_misses", float64(c.dMisses), "count")
	m.set("cache.i_misses", float64(c.iMisses), "count")
	m.set("cache.writebacks", float64(c.writebacks), "count")
	m.set("cache.d_hit_ratio", ratio(float64(c.dHits), float64(c.dHits+c.dMisses)), "share")
	m.set("lock.acquires", float64(c.lockAcquires), "count")
	m.set("lock.handoffs", float64(c.handoffs), "count")
	m.set("lock.wait_cycles", float64(c.lockWait), "count")
	m.set("trace_overhead", traceOverhead(enginePasses, passLat), "ratio")
	r.note("counts are per pass of %d cells; times cover %d traced passes", len(w.cells), passes)
	if r.cfg.traceOut != "" {
		return tr.writeChrome(r.cfg.traceOut)
	}
	return nil
}
