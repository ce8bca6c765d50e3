// Package rt is the PMC runtime: the concrete implementation of the
// paper's annotations (Section V-A) on the simulated SoC, with one
// protocol per memory architecture of Table II:
//
//	nocc — shared data uncached; annotations keep only mutual exclusion
//	       (this doubles as the sequentially consistent reference, and is
//	       the "no CC" baseline of Fig. 8);
//	swcc — software cache coherency over the non-coherent write-back
//	       caches (Fig. 8's "SWCC"), BACKER-style; swcc-lazy defers the
//	       exit writeback to the next lock handoff;
//	replica (dsm, cdsm) — distributed shared memory over the write-only
//	       NoC: every unit of a memory level holds a replica of the shared
//	       heap — dsm one per tile-local memory, cdsm one per cluster
//	       scratch;
//	staging (spm, cspm) — scratch-pad staging: objects are copied into
//	       the memory of the caller's unit for the duration of a scope and
//	       copied back on exit — spm into the tile-local memory, cspm into
//	       the cluster scratch.
//
// The replica and staging protocols are each one implementation over a
// memory level (soc.Level), so the two columns at two levels are four
// backends. adaptive routes each object among nocc, swcc, dsm and spm and
// migrates it as its access pattern emerges.
//
// A single application written against Ctx's annotation API runs unchanged
// on all of them — the PMC approach's portability claim. The runtime also
// enforces the annotation discipline (reads only inside entry/exit scopes,
// writes only inside exclusive scopes, flush only inside entry_x/exit_x)
// and can record every operation into the formal model (internal/core) for
// differential verification.
package rt

import (
	"encoding/binary"
	"fmt"

	"pmc/internal/lock"
	"pmc/internal/mem"
	"pmc/internal/sim"
	"pmc/internal/soc"
	"pmc/internal/trace"
)

// Address-space layout inside SDRAM (above the shared heap at 0).
const (
	// heapBase is where shared objects are allocated.
	heapBase = mem.Addr(0x0000_0040)
	// codeBase is where per-tile code footprints live.
	codeBase = mem.Addr(0x0100_0000)
	// codeStride is the per-tile code region size.
	codeStride = mem.Addr(0x0001_0000)
	// privBase is where per-tile private heaps (stack/heap analogue)
	// live: after the code regions (codeBase + 32 tiles × codeStride).
	privBase = mem.Addr(0x0140_0000)
	// privStride is the per-tile private heap size.
	privStride = mem.Addr(0x0004_0000)
)

// MinSDRAMBytes returns the smallest SDRAM size whose memory map holds the
// per-tile private heaps of a system with the given tile count, plus one
// stride of headroom for the central lock table at the top. The default
// 32 MiB of soc.DefaultConfig covers the paper's 32 tiles but stops at 48;
// workload runs raise a smaller configured SDRAM to this.
func MinSDRAMBytes(tiles int) int {
	return int(privBase + mem.Addr(tiles+1)*privStride)
}

// AtomicSize is the largest object the platform reads and writes
// indivisibly (one 32-bit bus word). The model speaks of bytes; on the
// 32-bit MicroBlaze an aligned word is indivisible, so entry_ro of objects
// up to this size needs no lock (Table II's "when the size of the object is
// one byte, it does nothing", adapted to the platform's atom).
const AtomicSize = 4

// Object is a shared, annotated object: the unit entry/exit pairs protect.
// Objects are cache-line aligned and never share a line (Section V-B).
type Object struct {
	ID   int
	Name string
	Size int
	// Addr is the canonical SDRAM address.
	Addr mem.Addr
	// LockID is the mutex protecting the object.
	LockID int
	// route is the backend every annotation and access on this object
	// dispatches through (allocation-level consistency).
	route Backend
}

// WordCount returns the number of 32-bit words the object spans.
func (o *Object) WordCount() int { return (o.Size + 3) / 4 }

// Backend returns the name of the backend this object is routed to.
func (o *Object) Backend() string { return o.route.Name() }

// Backend implements the annotations for one memory architecture
// (Table II). All methods run in the calling worker's process context and
// charge simulated time through the Ctx's tile.
//
// The data-access surface is ranged (annotation API v2): ReadRange and
// WriteRange move [off, off+4·len) in one operation, and Read32/Write32
// are the one-word special case kept as distinct methods so their
// instruction sequence — and therefore their sim-cycle cost — is pinned
// exactly to the historical word path.
type Backend interface {
	Name() string
	// Init is called once after the runtime is assembled, before any
	// worker runs (e.g. DSM replica setup, lock transfer hooks).
	Init(rt *Runtime)
	EntryX(c *Ctx, o *Object)
	ExitX(c *Ctx, o *Object)
	EntryRO(c *Ctx, o *Object)
	ExitRO(c *Ctx, o *Object)
	Fence(c *Ctx)
	Flush(c *Ctx, o *Object)
	Read32(c *Ctx, o *Object, off int) uint32
	Write32(c *Ctx, o *Object, off int, v uint32)
	// ReadRange reads len(dst) words starting at byte offset off.
	ReadRange(c *Ctx, o *Object, off int, dst []uint32)
	// WriteRange writes len(src) words starting at byte offset off.
	WriteRange(c *Ctx, o *Object, off int, src []uint32)
}

// rangeCopier is the optional backend capability behind Ctx.Copy: an
// object-to-object block move that beats the read-range-then-write-range
// lowering (e.g. the dual-port DMA of the replica or staging memory).
// It reports false when this particular copy cannot be accelerated, in
// which case the caller falls back to ReadRange+WriteRange. The copied
// word values are materialized only when wantVals is set (the recorder
// lowers them to model reads and writes); recorder-free runs skip the
// readback entirely.
type rangeCopier interface {
	CopyRange(c *Ctx, dst *Object, dstOff int, src *Object, srcOff int, words int, wantVals bool) ([]uint32, bool)
}

// copyLevelDMA runs the dual-port DMA of the tile's memory at level l
// between two resolved addresses in it — the shared body of the replica
// and staging CopyRange implementations — returning the copied values
// only on demand.
func copyLevelDMA(c *Ctx, l soc.Level, srcA, dstA mem.Addr, words int, wantVals bool) []uint32 {
	c.T.CopyLevel(c.P, l, srcA, dstA, words*4)
	if !wantVals {
		return nil
	}
	vals := make([]uint32, words)
	m := c.T.Mem(l)
	for i := range vals {
		vals[i] = m.Read32(dstA + mem.Addr(4*i))
	}
	return vals
}

// readRangeByWords lowers a ranged read onto a backend's word path: one
// Read32 per word, the exact cost of the loop an application would write.
func readRangeByWords(b Backend, c *Ctx, o *Object, off int, dst []uint32) {
	for i := range dst {
		dst[i] = b.Read32(c, o, off+4*i)
	}
}

// writeRangeByWords lowers a ranged write onto a backend's word path.
func writeRangeByWords(b Backend, c *Ctx, o *Object, off int, src []uint32) {
	for i, v := range src {
		b.Write32(c, o, off+4*i, v)
	}
}

// replicated is the capability of backends that keep full replicas of the
// shared heap outside the canonical SDRAM copy (dsm per tile, cdsm per
// cluster). The runtime uses it to pre-load replicas, to read the
// authoritative copy after a run, and to bound the heap to the replica
// capacity. Asserted as an interface so it promotes through wrappers that
// embed a Backend (e.g. the fault-injecting decorator).
type replicated interface {
	// initReplicas writes image, an object's initial contents in
	// little-endian bytes, into every replica of o.
	initReplicas(rt *Runtime, o *Object, image []byte)
	readCanonical(rt *Runtime, o *Object, wordIdx int) uint32
	// heapLimit is the replica capacity in bytes.
	heapLimit(rt *Runtime) int
}

// lockTransferrer is the capability of backends whose protocol piggybacks
// data movement on a lock handoff (dsm replica forwarding, cdsm cross-
// cluster forwarding, swcc-lazy deferred flush). The runtime owns the
// single DLock.OnTransfer hook and dispatches each transfer to the owning
// object's route through this interface, so mixed-route runs compose:
// every route sees exactly the handoffs of its own objects.
type lockTransferrer interface {
	lockTransfer(rt *Runtime, o *Object, from, to int, t sim.Time) sim.Time
}

// unwrapper is implemented by decorating backends (the fault injector) so
// the runtime can see through them when resolving an object's effective
// protocol (e.g. the recorder's staging special case for spm and cspm).
type unwrapper interface {
	unwrap() Backend
}

// protocolResolver is implemented by backends that route per-object to an
// inner protocol (the adaptive backend): protocolFor returns the protocol
// currently serving o.
type protocolResolver interface {
	protocolFor(o *Object) Backend
}

// protoFor resolves the effective protocol backend serving o right now,
// seeing through decorators and the adaptive router.
func (rt *Runtime) protoFor(o *Object) Backend {
	b := o.route
	for {
		switch v := b.(type) {
		case unwrapper:
			b = v.unwrap()
		case protocolResolver:
			b = v.protocolFor(o)
		default:
			return b
		}
	}
}

// Violation is a breach of the annotation discipline detected at run time.
type Violation struct {
	Tile int
	Op   string
	Obj  string
	Msg  string
}

func (v Violation) Error() string {
	return fmt.Sprintf("pmc discipline: tile %d: %s(%s): %s", v.Tile, v.Op, v.Obj, v.Msg)
}

// Runtime binds a simulated system, a backend registry, and the
// shared-object table. B is the default backend: Alloc routes objects to
// it unless a placement rule or AllocOn says otherwise.
type Runtime struct {
	Sys *soc.System
	B   Backend

	// routes is the backend registry, keyed by Backend.Name(). Every
	// backend here has been Init'ed against this runtime.
	routes map[string]Backend

	// placement maps object names (exact, or trailing-* prefix globs) to
	// backend names; Alloc consults it before falling back to B.
	placement map[string]string

	objects   []*Object
	objByLock map[int]*Object
	objByName map[string]*Object
	heapNext  mem.Addr

	// Recorder, if non-nil, mirrors every annotation and access into the
	// formal model for differential verification (tests only; O(n²)).
	Recorder *Recorder

	// Tracer, if non-nil, records scope/fence/flush/lock events for
	// CSV or Chrome-trace export (internal/trace).
	Tracer *trace.Trace

	// Strict makes discipline violations panic instead of accumulate.
	Strict     bool
	violations []Violation

	workers []*Ctx
	nextCtx int

	// arenas are the staging allocators, one per memory unit at each
	// level (see arena).
	arenas [soc.NumLevels][]spmArena
}

// arena returns the staging allocator of unit u's memory at level l,
// initializing it over the memory on first use. The arena belongs to the
// memory, not to a backend or a worker: every staging route and every
// worker the unit hosts draws from it, so co-resident scopes never
// overlap.
func (rt *Runtime) arena(l soc.Level, u int) *spmArena {
	if rt.arenas[l] == nil {
		rt.arenas[l] = make([]spmArena, rt.Sys.Units(l))
	}
	a := &rt.arenas[l][u]
	if !a.inited {
		a.init(rt.stagingBase(), rt.Sys.MemBytes(l))
	}
	return a
}

// stagingBase returns the offset where scratch-pad staging arenas may start
// allocating. Replicated routes (dsm per tile, cdsm per cluster, adaptive)
// mirror the shared heap 1:1 into the same memories the staging arenas
// carve up — replicaAddr maps o.Addr straight to a local/cluster offset —
// so when any such route is registered the arenas begin above the mirrored
// heap, or a staged buffer and a live replica would silently overlap. With
// no replicated route the arena owns the memory from offset zero, exactly
// as a pure spm/cspm run always has.
func (rt *Runtime) stagingBase() mem.Addr {
	for _, b := range rt.routes {
		if _, ok := b.(replicated); ok {
			return rt.heapNext
		}
	}
	return 0
}

// Backends lists the selectable backend names.
var Backends = []string{"nocc", "swcc", "swcc-lazy", "dsm", "spm", "cdsm", "cspm", "adaptive"}

// ByName returns a fresh backend by name: nocc, swcc, swcc-lazy, dsm, spm,
// cdsm, cspm, adaptive.
func ByName(name string) (Backend, error) {
	switch name {
	case "nocc", "sc":
		return NoCC(), nil
	case "swcc":
		return SWCC(), nil
	case "swcc-lazy":
		return SWCCLazy(), nil
	case "dsm":
		return DSM(), nil
	case "spm":
		return SPM(), nil
	case "cdsm":
		return CDSM(), nil
	case "cspm":
		return CSPM(), nil
	case "adaptive":
		return Adaptive(), nil
	}
	return nil, fmt.Errorf("rt: unknown backend %q (have %v)", name, Backends)
}

// New assembles a runtime over sys. def is the default backend: Alloc
// routes objects to it unless a placement rule or AllocOn directs them
// elsewhere. extra pre-registers additional routes; AllocOn also registers
// routes lazily by name, so extra is only needed for backends that carry
// non-default construction (e.g. fault-injected wrappers).
func New(sys *soc.System, def Backend, extra ...Backend) *Runtime {
	rt := &Runtime{
		Sys:       sys,
		B:         def,
		routes:    make(map[string]Backend),
		objByLock: make(map[int]*Object),
		objByName: make(map[string]*Object),
		heapNext:  heapBase,
	}
	rt.register(def)
	for _, b := range extra {
		rt.register(b)
	}
	rt.installTransferMux()
	return rt
}

// register Inits b against the runtime and adds it to the route registry.
func (rt *Runtime) register(b Backend) {
	name := b.Name()
	if _, dup := rt.routes[name]; dup {
		panic(fmt.Sprintf("rt: New: duplicate backend route %q in registry", name))
	}
	b.Init(rt)
	rt.routes[name] = b
}

// installTransferMux points the distributed lock's single transfer hook at
// the runtime's per-object dispatcher. Backend Inits may have installed
// their own hook (the pre-routing convention); the mux supersedes them so
// each handoff reaches exactly the owning object's route.
func (rt *Runtime) installTransferMux() {
	if rt.Sys.DLock == nil {
		return
	}
	rt.Sys.DLock.OnTransfer = func(lockID, from, to int, t sim.Time) sim.Time {
		o := rt.objByLock[lockID]
		if o == nil || from == lock.NoHolder || from == to {
			return t
		}
		if lt, ok := o.route.(lockTransferrer); ok {
			return lt.lockTransfer(rt, o, from, to, t)
		}
		return t
	}
}

// route resolves a backend name to a registered route, registering (and
// Init'ing) a fresh instance on first use.
func (rt *Runtime) route(backend string) (Backend, error) {
	if b, ok := rt.routes[backend]; ok {
		return b, nil
	}
	b, err := ByName(backend)
	if err != nil {
		return nil, err
	}
	// ByName aliases (e.g. "sc" → nocc) resolve to their canonical route.
	if cur, ok := rt.routes[b.Name()]; ok {
		return cur, nil
	}
	rt.register(b)
	return b, nil
}

// SetPlacement installs the allocation routing table: object names (exact,
// or trailing-* prefix globs like "grid*") to backend names. Subsequent
// Alloc calls consult it before falling back to the default backend.
// Unknown backend names surface as panics at the first matching Alloc.
func (rt *Runtime) SetPlacement(place map[string]string) {
	rt.placement = place
}

// placedBackend returns the placement-table backend name for an object
// name: an exact match wins, then the longest trailing-* prefix glob.
func (rt *Runtime) placedBackend(name string) (string, bool) {
	if b, ok := rt.placement[name]; ok {
		return b, true
	}
	best, bestLen := "", -1
	for pat, b := range rt.placement {
		if n := len(pat) - 1; n >= 0 && pat[n] == '*' &&
			len(name) >= n && name[:n] == pat[:n] && n > bestLen {
			best, bestLen = b, n
		}
	}
	return best, bestLen >= 0
}

// Alloc creates a shared object of the given size (bytes), cache-line
// aligned, protected by a fresh lock, routed to the default backend (or
// the placement table's choice, if one matches). Object names must be
// unique: the runtime, traces and violation reports all identify objects
// by name.
func (rt *Runtime) Alloc(name string, size int) *Object {
	route := rt.B
	if b, ok := rt.placedBackend(name); ok {
		r, err := rt.route(b)
		if err != nil {
			panic(fmt.Sprintf("rt: Alloc(%q): placement: %v", name, err))
		}
		route = r
	}
	return rt.allocRoute(name, size, route)
}

// AllocOn is Alloc with an explicit backend route: the object's every
// annotation and access dispatches through the named backend, regardless
// of the runtime's default. The route is registered (and Init'ed) on first
// use; unknown names panic.
func (rt *Runtime) AllocOn(name string, size int, backend string) *Object {
	r, err := rt.route(backend)
	if err != nil {
		panic(fmt.Sprintf("rt: AllocOn(%q): %v", name, err))
	}
	return rt.allocRoute(name, size, r)
}

func (rt *Runtime) allocRoute(name string, size int, route Backend) *Object {
	if size <= 0 {
		panic(fmt.Sprintf("rt: Alloc(%q): size %d must be positive (bytes)", name, size))
	}
	if prev, dup := rt.objByName[name]; dup {
		panic(fmt.Sprintf("rt: Alloc(%q): duplicate object name (already allocated with %d bytes)", name, prev.Size))
	}
	line := mem.Addr(rt.Sys.Cfg.DCache.LineSize)
	addr := (rt.heapNext + line - 1) &^ (line - 1)
	o := &Object{
		ID:     len(rt.objects),
		Name:   name,
		Size:   size,
		Addr:   addr,
		LockID: len(rt.objects),
		route:  route,
	}
	rt.heapNext = addr + mem.Addr((size+int(line)-1)/int(line))*line
	// The replica-capacity bound applies whenever any registered route
	// keeps full-heap replicas: replicas span the whole shared heap, so
	// every allocation counts against the tightest registered limit.
	for _, b := range rt.routes {
		if d, ok := b.(replicated); ok {
			if limit := d.heapLimit(rt); int(rt.heapNext) > limit {
				panic(fmt.Sprintf("rt: %s shared heap (%#x) exceeds replica memory (%#x): shrink the working set",
					b.Name(), rt.heapNext, limit))
			}
		}
	}
	if rt.heapNext >= codeBase {
		panic("rt: shared heap overflows into the code region")
	}
	rt.objects = append(rt.objects, o)
	rt.objByLock[o.LockID] = o
	rt.objByName[o.Name] = o
	if rt.Recorder != nil {
		rt.Recorder.addObject(o)
	}
	return o
}

// Objects returns the allocation table.
func (rt *Runtime) Objects() []*Object { return rt.objects }

// InitObject pre-loads an object's contents before the simulation runs
// (outside simulated time): canonical SDRAM plus any backend replicas.
func (rt *Runtime) InitObject(o *Object, words []uint32) {
	if len(words) > o.WordCount() {
		panic("rt: InitObject data larger than object")
	}
	image := wordBytes(words)
	rt.Sys.SDRAM.WriteBlock(o.Addr, image)
	if d, ok := o.route.(replicated); ok {
		d.initReplicas(rt, o, image)
	}
	if rt.Recorder != nil {
		rt.Recorder.initObject(o, words)
	}
}

// wordBytes encodes words as the little-endian bytes memory holds them in.
func wordBytes(words []uint32) []byte {
	b := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(b[4*i:], w)
	}
	return b
}

// ReadObjectWord reads an object's canonical word outside simulated time
// (for result verification after Run). For replicated backends (dsm, cdsm)
// the authoritative copy is the replica of the tile/cluster that last held
// the object exclusively.
func (rt *Runtime) ReadObjectWord(o *Object, wordIdx int) uint32 {
	if d, ok := o.route.(replicated); ok {
		return d.readCanonical(rt, o, wordIdx)
	}
	return rt.Sys.SDRAM.Read32(o.Addr + mem.Addr(4*wordIdx))
}

// drain writes every dirty cache line back to SDRAM at the data level
// (zero simulated cost), making SDRAM canonical for post-run verification —
// the lazy-release SWCC variant legitimately finishes with the latest data
// still dirty in the last owner's cache. At most one cache holds any line
// dirty (shared objects are single-writer by the lock discipline, private
// lines are per tile), so the drain cannot overwrite newer data.
func (rt *Runtime) drain() {
	for _, t := range rt.Sys.Tiles {
		t.DC.FlushAll()
	}
}

// Spawn starts a worker on the given tile. body runs in a simulation
// process; all annotation calls go through the returned/provided Ctx.
func (rt *Runtime) Spawn(tile int, name string, body func(c *Ctx)) {
	if tile < 0 || tile >= len(rt.Sys.Tiles) {
		panic(fmt.Sprintf("rt: Spawn on tile %d of %d", tile, len(rt.Sys.Tiles)))
	}
	t := rt.Sys.Tiles[tile]
	rt.Sys.K.Spawn(name, func(p *sim.Proc) {
		c := &Ctx{
			rt:       rt,
			P:        p,
			T:        t,
			scopes:   make(map[*Object]*scope),
			privNext: privBase + mem.Addr(tile)*privStride,
		}
		rt.workers = append(rt.workers, c)
		body(c)
		c.finish()
	})
}

// Run executes the simulation until completion and returns an error on
// deadlock, watchdog, or (if any) the first discipline violation.
func (rt *Runtime) Run() error {
	if err := rt.Sys.Run(); err != nil {
		return err
	}
	rt.drain()
	if len(rt.violations) > 0 {
		return rt.violations[0]
	}
	return nil
}

// Violations returns all detected discipline violations.
func (rt *Runtime) Violations() []Violation { return rt.violations }

func (rt *Runtime) violate(c *Ctx, op string, o *Object, msg string) {
	name := "-"
	if o != nil {
		name = o.Name
	}
	v := Violation{Tile: c.T.ID, Op: op, Obj: name, Msg: msg}
	if rt.Strict {
		panic(v.Error())
	}
	rt.violations = append(rt.violations, v)
}

// Barrier is a zero-cost synchronization barrier for orchestrating workload
// phases outside the measured region (setup, result collection). It is
// simulation machinery, not a PMC primitive — measured in-application
// barriers must be built from annotations instead.
type Barrier struct {
	n       int
	waiting []*sim.Proc
	round   int
}

// NewBarrier returns a barrier for n workers.
func (rt *Runtime) NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// Wait blocks until n workers arrive.
func (b *Barrier) Wait(c *Ctx) {
	if len(b.waiting)+1 == b.n {
		ws := b.waiting
		b.waiting = nil
		b.round++
		for _, w := range ws {
			w.Unpark(nil)
		}
		return
	}
	b.waiting = append(b.waiting, c.P)
	c.P.Park()
}
