// Package workloads contains the applications of the paper's evaluation,
// all written once against the PMC annotation API (internal/rt) and
// therefore runnable unchanged on every backend:
//
//   - radiosity, raytrace, volrend — structural substitutes for the
//     SPLASH-2 applications of Section VI-A / Fig. 8 (see DESIGN.md §2 for
//     the substitution argument);
//   - mfifo — the multiple-reader, multiple-writer FIFO of Section VI-B /
//     Fig. 9;
//   - motionest — the scratch-pad motion-estimation kernel of
//     Section VI-C / Fig. 10;
//   - msgpass — the running example of Figs. 1, 5 and 6.
package workloads

import (
	"fmt"

	"pmc/internal/rt"
	"pmc/internal/sim"
	"pmc/internal/soc"
	"pmc/internal/stats"
	"pmc/internal/trace"
)

// App is a runnable workload.
type App interface {
	// Name identifies the workload.
	Name() string
	// Setup allocates and initializes shared objects (runs before the
	// simulation starts, outside simulated time).
	Setup(r *rt.Runtime, tiles int)
	// Worker is the per-tile body.
	Worker(c *rt.Ctx, tile, tiles int)
	// Checksum returns a determinism witness computed from the final
	// shared state.
	Checksum(r *rt.Runtime) uint32
}

// ServiceApp is an App that runs open-loop service traffic and measures
// it: Service returns the run's service metrics (offered and completed
// request counts, the exact latency histogram). Valid after the run
// completes.
type ServiceApp interface {
	App
	Service() *stats.Service
}

// Result is one measured run.
type Result struct {
	App      string
	Backend  string
	Tiles    int
	Cycles   sim.Time // makespan
	Total    soc.TileStats
	Checksum uint32
	// NoC traffic, for the DSM discussions.
	NoCMessages uint64
	NoCBytes    uint64
	FlitHops    uint64
	// The hierarchical split of FlitHops on cluster topologies:
	// intra-cluster crossbar hops vs backbone hops. On flat topologies
	// every hop counts as local and GlobalFlitHops stays zero.
	LocalFlitHops  uint64
	GlobalFlitHops uint64
	// SDRAMGrants counts the SDRAM bank reservations, the bus contention
	// the lock ablation reports.
	SDRAMGrants uint64
	// Service holds the open-loop service metrics for ServiceApp
	// workloads; nil for single-shot kernels.
	Service *stats.Service
	// Kernel is the event kernel's work over the run.
	Kernel sim.Counters
}

// Sample converts the result to the stats package's renderer input.
func (r *Result) Sample() stats.Sample {
	return stats.Sample{
		Label:  fmt.Sprintf("%s (%s)", r.App, r.Backend),
		Cycles: r.Cycles,
		Stats:  r.Total,
	}
}

// FlushOverheadPct returns the percentage of accounted cycles spent
// executing cache-control instructions — the paper counts exactly this
// ("the time spent on executing flush instructions") and reports
// 0.66 / 0.00 / 0.01 % for its three applications. Bus time for the
// flush-triggered writebacks is accounted separately (FlushStall) and
// folded into the write-stall bar when rendering Fig. 8.
func (r *Result) FlushOverheadPct() float64 {
	return stats.FlushOverheadPct(r.Total)
}

// Utilization returns the paper's "core utilization" fraction of
// accounted cycles. It delegates to the stats package's Fig. 8 mapping
// (Busy + LockWait — a spinning core executes poll instructions), so the
// number printed as "utilization" always agrees with the Fig. 8 bars.
func (r *Result) Utilization() float64 {
	return stats.Utilization(r.Total)
}

// Run executes app on a fresh system with the named backend and returns the
// measured result. An optional recorder can be attached by tests through
// the hook.
func Run(app App, cfg soc.Config, backendName string) (*Result, error) {
	return run(app, cfg, backendName, nil)
}

// ByName returns a fresh instance of the named workload at its evaluation
// configuration.
func ByName(name string) (App, bool) {
	switch name {
	case "msgpass":
		return DefaultMsgPass(), true
	case "radiosity":
		return DefaultRadiosity(), true
	case "raytrace":
		return DefaultRaytrace(), true
	case "volrend":
		return DefaultVolrend(), true
	case "mfifo":
		return DefaultMFifo(), true
	case "motionest":
		return DefaultMotionEst(), true
	case "stencil":
		return DefaultStencil(), true
	case "reacquire":
		return DefaultReacquire(), true
	case "pipeline":
		return DefaultPipeline(), true
	case "bulkcopy":
		return DefaultBulkCopy(), true
	case "bulkcopy-word":
		return DefaultBulkCopyWord(), true
	case "server":
		return DefaultServer(), true
	case "kvstore":
		return DefaultKVStore(), true
	case "stream":
		return DefaultStream(), true
	}
	return nil, false
}

// Names lists the workloads ByName accepts.
var Names = []string{"msgpass", "radiosity", "raytrace", "volrend", "mfifo", "motionest", "stencil", "reacquire", "pipeline", "bulkcopy", "bulkcopy-word", "server", "kvstore", "stream"}

// Scaled is ByName with an optional CI-sized ("small") configuration: the
// same shrunken parameters the experiment suite uses for quick runs. With
// small=false it is exactly ByName.
func Scaled(name string, small bool) (App, bool) {
	app, ok := ByName(name)
	if !ok || !small {
		return app, ok
	}
	switch a := app.(type) {
	case *Radiosity:
		a.Patches, a.Rounds, a.Fanout = 48, 2, 3
	case *Raytrace:
		a.Cells, a.Rays, a.StepsPerRay = 48, 40, 4
	case *Volrend:
		a.Bricks, a.OutTiles, a.RaysPerTile = 32, 24, 3
	case *MFifo:
		a.Items = 12
	case *MotionEst:
		a.BlocksX, a.BlocksY = 4, 2
	case *Stencil:
		a.Iters = 4
	case *Reacquire:
		a.Iters = 32
	case *Pipeline:
		a.Frames = 6
	case *BulkCopy:
		a.SlotWords, a.Rounds = 32, 2
		if a.Chunk > 1 {
			a.Chunk = 32
		}
	case *Server:
		a.Requests = 24
	case *KVStore:
		a.Ops = 24
	case *Stream:
		a.Frames = 16
	}
	return app, true
}

// RunPlaced is Run with a per-object placement table installed before
// Setup: object names (exact, or trailing-* prefix globs) route to named
// backends, everything else to the run's default backend.
func RunPlaced(app App, cfg soc.Config, backendName string, place map[string]string) (*Result, error) {
	return run(app, cfg, backendName, func(r *rt.Runtime) { r.SetPlacement(place) })
}

// RunTraced is Run with an event tracer attached; the trace is returned for
// Chrome-trace export.
func RunTraced(app App, cfg soc.Config, backendName string) (*Result, *trace.Trace, error) {
	tr := &trace.Trace{}
	res, err := run(app, cfg, backendName, func(r *rt.Runtime) { r.Tracer = tr })
	return res, tr, err
}

// run builds the system, runs app on it and collects the result. SDRAM
// is raised to rt.MinSDRAMBytes when cfg is smaller, since the default
// 32 MiB map stops holding the per-tile private heaps at 48 tiles. SDRAM
// size only places the centralized lock table at the top of the map, so
// the raise moves no distributed-lock result.
func run(app App, cfg soc.Config, backendName string, pre func(*rt.Runtime)) (*Result, error) {
	b, err := rt.ByName(backendName)
	if err != nil {
		return nil, err
	}
	if need := rt.MinSDRAMBytes(cfg.Tiles); need > cfg.SDRAMBytes {
		cfg.SDRAMBytes = need
	}
	sys, err := soc.New(cfg)
	if err != nil {
		return nil, err
	}
	r := rt.New(sys, b)
	if pre != nil {
		pre(r)
	}
	app.Setup(r, cfg.Tiles)
	for t := 0; t < cfg.Tiles; t++ {
		t := t
		r.Spawn(t, fmt.Sprintf("%s-w%d", app.Name(), t), func(c *rt.Ctx) {
			app.Worker(c, t, cfg.Tiles)
		})
	}
	if err := r.Run(); err != nil {
		sys.Recycle()
		return nil, fmt.Errorf("%s on %s: %w", app.Name(), backendName, err)
	}
	res := &Result{
		App:         app.Name(),
		Backend:     b.Name(),
		Tiles:       cfg.Tiles,
		Cycles:      sys.K.Now(),
		Total:       sys.TotalStats(),
		Checksum:    app.Checksum(r),
		NoCMessages: sys.Net.Stats().Messages,
		NoCBytes:    sys.Net.Stats().Bytes,
		FlitHops:    sys.Net.Stats().FlitHops,

		LocalFlitHops:  sys.Net.Stats().LocalFlitHops,
		GlobalFlitHops: sys.Net.Stats().GlobalFlitHops,
		SDRAMGrants:    sys.SDRAM.Grants(),
		Kernel:         sys.K.Counters,
	}
	if sa, ok := app.(ServiceApp); ok {
		res.Service = sa.Service()
	}
	// Everything the result needs has been read: the system's buffers
	// can serve the next run.
	sys.Recycle()
	return res, nil
}

// xorshift32 is the deterministic PRNG used by all workloads (no
// math/rand: reproducibility across Go versions matters more than
// statistical quality here).
type xorshift32 uint32

func newRand(seed uint32) xorshift32 {
	if seed == 0 {
		seed = 2463534242
	}
	return xorshift32(seed)
}

func (x *xorshift32) next() uint32 {
	v := uint32(*x)
	v ^= v << 13
	v ^= v >> 17
	v ^= v << 5
	*x = xorshift32(v)
	return v
}

func (x *xorshift32) intn(n int) int { return int(x.next() % uint32(n)) }

// taskCounter is a shared work queue: a single counter object handed out
// under entry_x/exit_x — the central task queue pattern the SPLASH-2
// applications use. Workers claim chunks of several tasks per critical
// section (the standard mitigation for queue serialization at high core
// counts); results stay deterministic because every workload folds
// per-task values commutatively.
type taskCounter struct {
	obj   *rt.Object
	limit uint32
	chunk uint32
	local map[*rt.Ctx]*taskSpan
}

type taskSpan struct{ next, end uint32 }

func newTaskCounter(r *rt.Runtime, name string, limit int) *taskCounter {
	return &taskCounter{
		obj:   r.Alloc(name, 4),
		limit: uint32(limit),
		chunk: 4,
		local: make(map[*rt.Ctx]*taskSpan),
	}
}

// next claims the next task index, or returns false when exhausted.
func (q *taskCounter) next(c *rt.Ctx) (uint32, bool) {
	sp := q.local[c]
	if sp == nil {
		sp = &taskSpan{}
		q.local[c] = sp
	}
	if sp.next < sp.end {
		idx := sp.next
		sp.next++
		c.Compute(2) // local bookkeeping
		return idx, true
	}
	c.EntryX(q.obj)
	idx := c.Read32(q.obj, 0)
	if idx < q.limit {
		n := q.chunk
		if idx+n > q.limit {
			n = q.limit - idx
		}
		c.Write32(q.obj, 0, idx+n)
		sp.next, sp.end = idx+1, idx+n
	}
	c.ExitX(q.obj)
	return idx, idx < q.limit
}
