package rt

import (
	"fmt"

	"pmc/internal/mem"
	"pmc/internal/sim"
	"pmc/internal/soc"
	"pmc/internal/trace"
)

// scopeMode is the access mode an open entry/exit pair grants.
type scopeMode uint8

const (
	scopeX scopeMode = iota
	scopeRO
)

// scope is the per-context state of one open entry/exit pair.
type scope struct {
	mode scopeMode
	// spmAddr is the staged copy's address for the staging backends.
	spmAddr mem.Addr
	// locked records whether entry_ro took the object's lock.
	locked bool
}

// annotationOverhead is the instruction cost of executing an annotation's
// runtime code (call, bookkeeping) beyond its memory traffic.
const annotationOverhead = 4

// Ctx is a worker's handle to the PMC runtime: the annotation API of
// Section V-A plus reads, writes, private data, and modelled computation.
// A Ctx is bound to one tile and one simulation process; it must only be
// used from its own worker body.
type Ctx struct {
	rt *Runtime
	P  *sim.Proc
	T  *soc.Tile

	scopes   map[*Object]*scope
	privNext mem.Addr
}

// emit records a trace event if tracing is enabled.
func (c *Ctx) emit(ph trace.Phase, name string, arg uint64) {
	if c.rt.Tracer != nil {
		c.rt.Tracer.Emit(trace.Event{
			Time: c.P.Now(), Tile: c.T.ID, Phase: ph, Name: name, Arg: arg,
		})
	}
}

// Now returns the current simulated time.
func (c *Ctx) Now() sim.Time { return c.P.Now() }

// WaitUntil blocks the worker until simulated time t. Times at or before
// the present return immediately — the open-loop workloads use this to
// pace request arrivals, and a source that has fallen behind its schedule
// must not rewind the clock.
func (c *Ctx) WaitUntil(t sim.Time) {
	if t > c.P.Now() {
		c.P.WaitUntil(t)
	}
}

// EntryX opens exclusive read/write access to o (issues an acquire).
func (c *Ctx) EntryX(o *Object) {
	if _, open := c.scopes[o]; open {
		c.rt.violate(c, "entry_x", o, "object already open in this context")
		return
	}
	c.scopes[o] = &scope{mode: scopeX, locked: true}
	c.T.Exec(c.P, annotationOverhead)
	o.route.EntryX(c, o)
	c.emit(trace.Begin, "x:"+o.Name, 0)
	if c.rt.Recorder != nil {
		c.rt.Recorder.acquire(c, o)
	}
}

// ExitX closes exclusive access to o (issues a release).
func (c *Ctx) ExitX(o *Object) {
	s, open := c.scopes[o]
	if !open || s.mode != scopeX {
		c.rt.violate(c, "exit_x", o, "no matching entry_x")
		return
	}
	if c.rt.Recorder != nil {
		c.rt.Recorder.release(c, o)
	}
	c.T.Exec(c.P, annotationOverhead)
	o.route.ExitX(c, o)
	c.emit(trace.End, "x:"+o.Name, 0)
	delete(c.scopes, o)
}

// EntryRO opens non-exclusive read-only access to o.
func (c *Ctx) EntryRO(o *Object) {
	if _, open := c.scopes[o]; open {
		c.rt.violate(c, "entry_ro", o, "object already open in this context")
		return
	}
	c.scopes[o] = &scope{mode: scopeRO}
	c.T.Exec(c.P, annotationOverhead)
	o.route.EntryRO(c, o)
	c.emit(trace.Begin, "ro:"+o.Name, 0)
	if c.rt.Recorder != nil {
		c.rt.Recorder.enterRO(c, o)
	}
}

// ExitRO closes read-only access to o.
func (c *Ctx) ExitRO(o *Object) {
	s, open := c.scopes[o]
	if !open || s.mode != scopeRO {
		c.rt.violate(c, "exit_ro", o, "no matching entry_ro")
		return
	}
	if c.rt.Recorder != nil {
		c.rt.Recorder.exitRO(c, o)
	}
	c.T.Exec(c.P, annotationOverhead)
	o.route.ExitRO(c, o)
	c.emit(trace.End, "ro:"+o.Name, 0)
	delete(c.scopes, o)
}

// Fence issues a fence: on the in-order MicroBlaze it constrains only the
// compiler and costs no instructions (Table II), but it is recorded in the
// model as the ≺F source.
func (c *Ctx) Fence() {
	c.rt.B.Fence(c)
	c.emit(trace.Instant, "fence", 0)
	if c.rt.Recorder != nil {
		c.rt.Recorder.fence(c)
	}
}

// FenceObj issues a location-scoped fence on o (the Section IV-D
// optimization): it orders only operations on o, letting the hardware and
// compiler reorder everything else. On the in-order platform it costs the
// same as Fence (nothing); the difference is the weaker model constraint,
// which the recorder verifies.
func (c *Ctx) FenceObj(o *Object) {
	o.route.Fence(c)
	if c.rt.Recorder != nil {
		c.rt.Recorder.fenceObj(c, o)
	}
}

// Flush forces o's modifications toward global visibility (best effort).
// Only allowed inside an entry_x/exit_x pair (Section V-A).
func (c *Ctx) Flush(o *Object) {
	s, open := c.scopes[o]
	if !open || s.mode != scopeX {
		c.rt.violate(c, "flush", o, "flush outside entry_x/exit_x")
		return
	}
	c.T.Exec(c.P, annotationOverhead)
	o.route.Flush(c, o)
	c.emit(trace.Instant, "flush:"+o.Name, 0)
}

// Read32 reads the 32-bit word at byte offset off of o. The object must be
// open in RO or X mode. It is the one-word form of ReadBlock, kept on the
// backend's dedicated word path so its instruction sequence — and
// therefore its sim-cycle cost — is byte-identical to annotation API v1
// (TestOneWordBlockEquivalence pins the equivalence).
func (c *Ctx) Read32(o *Object, off int) uint32 {
	if off < 0 || off+4 > o.WordCount()*4 {
		panic(fmt.Sprintf("rt: Read32(%s, %d) out of bounds", o.Name, off))
	}
	if _, open := c.scopes[o]; !open {
		c.rt.violate(c, "read", o, "access outside any entry/exit scope")
	}
	v := o.route.Read32(c, o, off)
	if c.rt.Recorder != nil {
		c.rt.Recorder.read(c, o, off, v)
	}
	return v
}

// Write32 writes the word at byte offset off of o. The object must be open
// in X mode. Like Read32, it is the one-word form of WriteBlock on the
// pinned word path.
func (c *Ctx) Write32(o *Object, off int, v uint32) {
	if off < 0 || off+4 > o.WordCount()*4 {
		panic(fmt.Sprintf("rt: Write32(%s, %d) out of bounds", o.Name, off))
	}
	if s, open := c.scopes[o]; !open || s.mode != scopeX {
		c.rt.violate(c, "write", o, "write outside entry_x/exit_x scope")
	}
	o.route.Write32(c, o, off, v)
	if c.rt.Recorder != nil {
		c.rt.Recorder.write(c, o, off, v)
	}
}

// rangeOK validates a ranged access of words 32-bit words starting at byte
// offset off. Out-of-bounds and misaligned ranges are discipline
// violations (not panics): the runtime reports them and the access is
// skipped, mirroring how scope violations accumulate.
func (c *Ctx) rangeOK(op string, o *Object, off, words int) bool {
	if off < 0 || off%4 != 0 || words < 0 || off+4*words > o.WordCount()*4 {
		c.rt.violate(c, op, o, fmt.Sprintf("range [%d,+%d words) out of bounds (object spans %d words)",
			off, words, o.WordCount()))
		return false
	}
	return true
}

// ReadBlock reads len(dst) consecutive words starting at byte offset off
// of o into dst in one ranged operation. The object must be open in RO or
// X mode. Backends implement the range natively — the cache installs every
// missing line with one burst transaction, DSM and SPM stream from local
// memory — so a block read never costs more than the equivalent Read32
// loop and is usually cheaper.
func (c *Ctx) ReadBlock(o *Object, off int, dst []uint32) {
	if len(dst) == 0 {
		return
	}
	if !c.rangeOK("read-block", o, off, len(dst)) {
		clear(dst)
		return
	}
	if _, open := c.scopes[o]; !open {
		c.rt.violate(c, "read-block", o, "access outside any entry/exit scope")
	}
	o.route.ReadRange(c, o, off, dst)
	if c.rt.Recorder != nil {
		c.rt.Recorder.readRange(c, o, off, dst)
	}
}

// WriteBlock writes len(src) consecutive words starting at byte offset off
// of o in one ranged operation. The object must be open in X mode.
func (c *Ctx) WriteBlock(o *Object, off int, src []uint32) {
	if len(src) == 0 {
		return
	}
	if !c.rangeOK("write-block", o, off, len(src)) {
		return
	}
	if s, open := c.scopes[o]; !open || s.mode != scopeX {
		c.rt.violate(c, "write-block", o, "write outside entry_x/exit_x scope")
	}
	o.route.WriteRange(c, o, off, src)
	if c.rt.Recorder != nil {
		c.rt.Recorder.writeRange(c, o, off, src)
	}
}

// Copy moves words consecutive words from src (open in any mode) at byte
// offset srcOff into dst (open in X mode) at byte offset dstOff. When both
// objects route to the same backend and it has overlapped block-move
// hardware (DSM and SPM local-memory DMA), the copy executes as a single
// transfer; otherwise — including cross-backend copies between objects on
// different routes — it lowers to a ranged read on the source's backend
// followed by a ranged write on the destination's.
func (c *Ctx) Copy(dst *Object, dstOff int, src *Object, srcOff int, words int) {
	if words == 0 {
		return
	}
	if !c.rangeOK("copy", src, srcOff, words) || !c.rangeOK("copy", dst, dstOff, words) {
		return
	}
	if _, open := c.scopes[src]; !open {
		c.rt.violate(c, "copy", src, "source not open in any entry/exit scope")
	}
	if s, open := c.scopes[dst]; !open || s.mode != scopeX {
		c.rt.violate(c, "copy", dst, "destination not open in an entry_x/exit_x scope")
	}
	wantVals := c.rt.Recorder != nil
	var (
		vals  []uint32
		accel bool
	)
	if rc, ok := src.route.(rangeCopier); ok && src.route == dst.route {
		vals, accel = rc.CopyRange(c, dst, dstOff, src, srcOff, words, wantVals)
	}
	if !accel {
		vals = make([]uint32, words)
		src.route.ReadRange(c, src, srcOff, vals)
		dst.route.WriteRange(c, dst, dstOff, vals)
	}
	if c.rt.Recorder != nil {
		c.rt.Recorder.copyRange(c, dst, dstOff, src, srcOff, vals)
	}
}

// Compute models n instructions of private computation (register/ALU work).
func (c *Ctx) Compute(n int) {
	c.T.Exec(c.P, n)
}

// SetCodeFootprint declares the executing phase's code size in bytes. Each
// tile has a private code region; footprints beyond the I-cache capacity
// thrash it.
func (c *Ctx) SetCodeFootprint(bytes int) {
	if bytes > int(codeStride) {
		panic(fmt.Sprintf("rt: code footprint %d exceeds per-tile region", bytes))
	}
	base := codeBase + mem.Addr(c.T.ID)*codeStride
	c.T.SetCodeFootprint(base, bytes)
}

// SetCodeProfile declares a loop-nest code shape: innerPasses passes over a
// hot loop of hotBytes, then one pass over coldBytes of colder code (see
// soc.Tile.SetCodeLoop).
func (c *Ctx) SetCodeProfile(hotBytes, coldBytes, innerPasses int) {
	if hotBytes+coldBytes > int(codeStride) {
		panic(fmt.Sprintf("rt: code footprint %d exceeds per-tile region", hotBytes+coldBytes))
	}
	base := codeBase + mem.Addr(c.T.ID)*codeStride
	c.T.SetCodeLoop(base, hotBytes, coldBytes, innerPasses)
}

// Priv is a handle to a private (per-tile, always cacheable) array.
type Priv struct {
	base  mem.Addr
	words int
}

// PrivAlloc allocates words of private data from the tile's private heap.
func (c *Ctx) PrivAlloc(words int) Priv {
	base := c.privNext
	c.privNext += mem.Addr(words * 4)
	limit := privBase + mem.Addr(c.T.ID+1)*privStride
	if c.privNext > limit {
		panic(fmt.Sprintf("rt: tile %d private heap exhausted", c.T.ID))
	}
	return Priv{base: base, words: words}
}

// PRead reads private word idx.
func (c *Ctx) PRead(p Priv, idx int) uint32 {
	if idx < 0 || idx >= p.words {
		panic("rt: PRead out of bounds")
	}
	return c.T.ReadPrivate32(c.P, p.base+mem.Addr(4*idx))
}

// PWrite writes private word idx.
func (c *Ctx) PWrite(p Priv, idx int, v uint32) {
	if idx < 0 || idx >= p.words {
		panic("rt: PWrite out of bounds")
	}
	c.T.WritePrivate32(c.P, p.base+mem.Addr(4*idx), v)
}

// finish runs at worker exit: any scope left open is a discipline
// violation.
func (c *Ctx) finish() {
	for o := range c.scopes {
		c.rt.violate(c, "finish", o, "scope still open at worker exit")
	}
}

// spmArena is a trivial first-fit allocator over one staging memory (a
// tile-local memory or a cluster scratch), used by the staging backends
// for scope-lifetime copies.
type spmArena struct {
	inited bool
	free   []span // sorted by base
	limit  mem.Addr
}

type span struct {
	base mem.Addr
	size int
}

func (a *spmArena) init(base mem.Addr, limit int) {
	a.inited = true
	a.free = nil
	if int(base) < limit {
		a.free = []span{{base: base, size: limit - int(base)}}
	}
	a.limit = mem.Addr(limit)
}

func (a *spmArena) alloc(size int) (mem.Addr, bool) {
	// Word-align allocations.
	size = (size + 3) &^ 3
	for i := range a.free {
		if a.free[i].size >= size {
			addr := a.free[i].base
			a.free[i].base += mem.Addr(size)
			a.free[i].size -= size
			if a.free[i].size == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			return addr, true
		}
	}
	return 0, false
}

func (a *spmArena) release(addr mem.Addr, size int) {
	size = (size + 3) &^ 3
	// Insert sorted and coalesce.
	i := 0
	for i < len(a.free) && a.free[i].base < addr {
		i++
	}
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{base: addr, size: size}
	// Coalesce with neighbours.
	if i+1 < len(a.free) && a.free[i].base+mem.Addr(a.free[i].size) == a.free[i+1].base {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].base+mem.Addr(a.free[i-1].size) == a.free[i].base {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}
